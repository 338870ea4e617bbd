package optimizer_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

// planDump renders a plan through dumpPlan.
func planDump(p *optimizer.Plan, q *logical.Query) string {
	var b strings.Builder
	dumpPlan(&b, p, q, 0)
	return b.String()
}

// memoTwin checks each optimization of a POP run against a memo-less twin:
// when the runner reports an optimization done, the feedback cache and the
// statement's temp MVs are exactly as that optimization saw them, so the
// recorder re-optimizes there with a copy of the attempt's optimizer whose
// Memo is nil — same feedback, namespace, ForceMVReuse and penalty.
type memoTwin struct {
	q      *logical.Query
	last   *optimizer.Optimizer // the attempt's optimizer, captured by Configure
	plans  []string             // the twin's plan per optimization
	reused int                  // candidates the run carried over, summed
	err    error
}

func (m *memoTwin) Record(ev trace.Event) {
	if ev.Kind != trace.OptimizeDone || m.err != nil {
		return
	}
	m.reused += ev.Opt.Reused
	twin := *m.last
	twin.Memo = nil
	p, err := twin.Optimize(m.q)
	if err != nil {
		m.err = err
		return
	}
	m.plans = append(m.plans, planDump(p, m.q))
	switch {
	case twin.ReusedCandidates != 0:
		m.err = errors.New("a memo-less optimizer reported reused candidates")
	case twin.EnumeratedCandidates != ev.Opt.Candidates:
		m.err = fmt.Errorf("optimization %d: %d candidates with the memo, %d without",
			len(m.plans)-1, ev.Opt.Candidates, twin.EnumeratedCandidates)
	}
}

// TestMemoMatchesFreshOptimizer is the identity pin of incremental
// re-optimization: across full POP loops over the DMV workload, every
// optimization that carried plan groups over from the statement's memo must
// produce exactly the plan — estimates and validity ranges included — and
// the candidate count of a fresh optimizer given the same inputs. The
// configurations cover feedback on single tables and join subsets, new temp
// MVs (sorts, and hash builds with ReuseHashBuilds), the forced MV reuse of
// the last permitted attempt, and the uncertainty penalty.
func TestMemoMatchesFreshOptimizer(t *testing.T) {
	cat := catalog.New()
	if err := dmv.Load(cat, dmv.Config{Scale: 0.2, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	infos, err := dmv.Queries(cat)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("a single-goroutine identity check; slow under the race detector")
	}
	configs := map[string]func(*pop.Options){
		"default": func(*pop.Options) {},
		// One re-optimization, so the second attempt is the last permitted
		// one and forces MV reuse; it runs under the uncertainty penalty
		// and can reuse hash-join builds.
		"last-attempt": func(o *pop.Options) {
			o.MaxReopts = 1
			o.UncertaintyPenalty = 1.5
			o.ReuseHashBuilds = true
		},
	}
	for name, configure := range configs {
		t.Run(name, func(t *testing.T) {
			reused, reopts := 0, 0
			for _, qi := range infos {
				rec := &memoTwin{q: qi.Query}
				opts := pop.DefaultOptions()
				configure(&opts)
				opts.Configure = func(o *optimizer.Optimizer) { rec.last = o }
				opts.Trace = rec
				res, err := pop.NewRunner(cat, opts).Run(qi.Query, nil)
				if err != nil {
					t.Fatalf("%s: %v", qi.Name, err)
				}
				if rec.err != nil {
					t.Fatalf("%s: %v", qi.Name, rec.err)
				}
				if len(rec.plans) != len(res.Attempts) {
					t.Fatalf("%s: %d twin optimizations for %d attempts", qi.Name, len(rec.plans), len(res.Attempts))
				}
				for i, a := range res.Attempts {
					if got := planDump(a.Optimized, qi.Query); got != rec.plans[i] {
						t.Fatalf("%s attempt %d: memo plan differs from a fresh optimizer's\nmemo:\n%sfresh:\n%s",
							qi.Name, i, got, rec.plans[i])
					}
				}
				reused += rec.reused
				reopts += res.Reopts
			}
			if reopts == 0 || reused == 0 {
				t.Fatalf("%d re-optimizations carried %d candidates; want both > 0", reopts, reused)
			}
		})
	}
}

// memoFixture is TPC-H Q10 (customer ⋈ orders ⋈ lineitem) with a
// statement-scoped feedback cache and MV namespace.
type memoFixture struct {
	cat  *catalog.Catalog
	q    *logical.Query
	fb   *stats.Feedback
	memo *optimizer.Memo
}

const memoNS = "memotest/"

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.003, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	q, err := tpch.Q10Param(cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.DropViewsPrefixed(memoNS) })
	return &memoFixture{cat: cat, q: q, fb: stats.NewFeedback(), memo: &optimizer.Memo{}}
}

// optimizer returns an optimizer over the fixture's statement state; with
// memo set it carries the fixture's memo.
func (f *memoFixture) optimizer(memo bool, configure func(*optimizer.Optimizer)) *optimizer.Optimizer {
	o := optimizer.New(f.cat)
	o.Feedback = f.fb
	o.MVNamespace = memoNS
	o.ParamBindings = []types.Datum{types.NewFloat(25)}
	if configure != nil {
		configure(o)
	}
	if memo {
		o.Memo = f.memo
	}
	return o
}

// step optimizes with the memo and with a fresh optimizer, fails unless the
// two agree, and returns the memo call's reused candidate count.
func (f *memoFixture) step(t *testing.T, configure func(*optimizer.Optimizer)) int {
	t.Helper()
	withMemo, fresh := f.optimizer(true, configure), f.optimizer(false, configure)
	pm, err := withMemo.Optimize(f.q)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fresh.Optimize(f.q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := planDump(pm, f.q), planDump(pf, f.q); got != want {
		t.Fatalf("memo plan differs from a fresh optimizer's\nmemo:\n%sfresh:\n%s", got, want)
	}
	if withMemo.EnumeratedCandidates != fresh.EnumeratedCandidates {
		t.Fatalf("memo call enumerated %d candidates, fresh %d", withMemo.EnumeratedCandidates, fresh.EnumeratedCandidates)
	}
	return withMemo.ReusedCandidates
}

// mask returns the subset of the named aliases.
func (f *memoFixture) mask(aliases ...string) uint64 {
	var m uint64
	for i, tr := range f.q.Tables {
		for _, a := range aliases {
			if tr.Alias == a {
				m |= 1 << uint(i)
			}
		}
	}
	return m
}

// register adds a temp MV for the subset with the given cardinality.
func (f *memoFixture) register(mask uint64, card float64) *catalog.MatView {
	var cols []int
	for ti := range f.q.Tables {
		if mask&(1<<uint(ti)) != 0 {
			for ord := 0; ord < f.q.Schemas[ti].Len(); ord++ {
				cols = append(cols, f.q.GlobalID(ti, ord))
			}
		}
	}
	mv := &catalog.MatView{Signature: memoNS + optimizer.Signature(f.q, mask), Cols: cols, Card: card}
	f.cat.RegisterView(mv)
	return mv
}

// TestMemoReuseRule drives one statement's optimizations by hand through
// each change the reuse rule must notice, comparing every memo call with a
// fresh optimizer. The cases are built so a weaker rule shows: a temp MV
// whose cardinality equals the estimate it replaces changes no estimate, and
// feedback on a single table under a join subset whose own feedback pins its
// estimate changes nothing but the subset's inputs.
func TestMemoReuseRule(t *testing.T) {
	f := newMemoFixture(t)
	sig := func(mask uint64) string { return optimizer.Signature(f.q, mask) }
	co, ol := f.mask("c", "o"), f.mask("o", "l")
	if co == 0 || ol == 0 || co == ol {
		t.Fatalf("Q10 aliases changed: %v", f.q.Tables)
	}
	full := f.mask("c", "o", "l")

	if n := f.step(t, nil); n != 0 {
		t.Fatalf("first call reused %d candidates", n)
	}
	// Nothing changed: the whole plan space carries over.
	repeat := f.optimizer(true, nil)
	if _, err := repeat.Optimize(f.q); err != nil {
		t.Fatal(err)
	}
	if repeat.ReusedCandidates != repeat.EnumeratedCandidates || repeat.ReusedCandidates == 0 {
		t.Fatalf("unchanged re-optimization reused %d of %d candidates", repeat.ReusedCandidates, repeat.EnumeratedCandidates)
	}

	est, err := optimizer.NewCardEstimator(f.cat, f.q, f.fb)
	if err != nil {
		t.Fatal(err)
	}

	// Feedback pins both join pairs' estimates; then feedback on the single
	// table they share changes only the pairs' inputs.
	f.fb.Record(sig(co), est.SubsetCard(co)/40)
	f.fb.Record(sig(ol), est.SubsetCard(ol)/30)
	f.step(t, nil)
	o := f.mask("o")
	f.fb.Record(sig(o), est.SubsetCard(o)*25)
	if n := f.step(t, nil); n == 0 {
		t.Fatal("singleton feedback left nothing to reuse")
	}

	// A temp MV for a join pair whose feedback already holds the MV's
	// cardinality: the estimate is unchanged, only the view is new.
	card, _ := f.fb.Get(sig(co))
	f.register(co, card)
	f.step(t, nil)
	// The last attempt's forced reuse makes the view free.
	f.step(t, func(o *optimizer.Optimizer) { o.ForceMVReuse = true })
	f.step(t, func(o *optimizer.Optimizer) { o.ForceMVReuse = true })
	// The uncertainty penalty inflates every estimate feedback does not back.
	f.step(t, func(o *optimizer.Optimizer) { o.ForceMVReuse = true; o.UncertaintyPenalty = 1.5 })
	// Feedback on the whole query.
	f.fb.Record(sig(full), est.SubsetCard(full)*3)
	if n := f.step(t, func(o *optimizer.Optimizer) { o.ForceMVReuse = true; o.UncertaintyPenalty = 1.5 }); n == 0 {
		t.Fatal("feedback on the full query left nothing to reuse")
	}
}

// TestMemoDiscard checks that the memo is dropped, not consulted, when the
// query, the parameter bindings or a plan-shaping setting changes.
func TestMemoDiscard(t *testing.T) {
	f := newMemoFixture(t)
	other, err := tpch.Q10Param(f.cat) // same text, a different query object
	if err != nil {
		t.Fatal(err)
	}
	changes := map[string]func(*optimizer.Optimizer, **logical.Query){
		"query":    func(_ *optimizer.Optimizer, q **logical.Query) { *q = other },
		"bindings": func(o *optimizer.Optimizer, _ **logical.Query) { o.ParamBindings = []types.Datum{types.NewFloat(5)} },
		"negative zero": func(o *optimizer.Optimizer, _ **logical.Query) {
			o.ParamBindings = []types.Datum{types.NewFloat(0)}
		},
		"cost params":     func(o *optimizer.Optimizer, _ **logical.Query) { o.Model.Params.FetchRow *= 2 },
		"robustness":      func(o *optimizer.Optimizer, _ **logical.Query) { o.RobustnessBonus = 0.2 },
		"disable hsjn":    func(o *optimizer.Optimizer, _ **logical.Query) { o.DisableHSJN = true },
		"disable mgjn":    func(o *optimizer.Optimizer, _ **logical.Query) { o.DisableMGJN = true },
		"disable nljn":    func(o *optimizer.Optimizer, _ **logical.Query) { o.DisableNLJN = true },
		"disable ixjoin":  func(o *optimizer.Optimizer, _ **logical.Query) { o.DisableIndexJoin = true },
		"disable mvreuse": func(o *optimizer.Optimizer, _ **logical.Query) { o.DisableMVReuse = true },
		"no validity":     func(o *optimizer.Optimizer, _ **logical.Query) { o.ComputeValidity = false },
		"threshold":       func(o *optimizer.Optimizer, _ **logical.Query) { o.GreedyThreshold = 8 },
		"namespace":       func(o *optimizer.Optimizer, _ **logical.Query) { o.MVNamespace = "elsewhere/" },
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			memo := &optimizer.Memo{}
			run := func(change func(*optimizer.Optimizer, **logical.Query)) *optimizer.Optimizer {
				o := f.optimizer(false, nil)
				o.Memo = memo
				q := f.q
				if name == "negative zero" {
					o.ParamBindings = []types.Datum{types.NewFloat(math.Copysign(0, -1))}
				}
				if change != nil {
					change(o, &q)
				}
				if _, err := o.Optimize(q); err != nil {
					t.Fatal(err)
				}
				return o
			}
			run(nil)
			if o := run(nil); o.ReusedCandidates == 0 {
				t.Fatal("unchanged call reused nothing")
			}
			if o := run(change); o.ReusedCandidates != 0 {
				t.Fatalf("reused %d candidates across the change", o.ReusedCandidates)
			}
		})
	}
}
