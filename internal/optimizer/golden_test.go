package optimizer_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/pop"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// hexf renders a float exactly, so the golden file pins every bit.
func hexf(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// dumpPlan writes one line per plan node, pre-order: the node's label and
// operator parameters, then its Card, Cost and every child edge's validity
// range in exact hex.
func dumpPlan(b *strings.Builder, p *optimizer.Plan, q *logical.Query, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if p.Op == optimizer.OpMVScan {
		// Views are registered under a per-statement namespace whose number
		// depends on how many statements ran before; drop it.
		sig := p.MV.Signature
		if i := strings.IndexByte(sig, '/'); i >= 0 {
			sig = sig[i+1:]
		}
		fmt.Fprintf(b, "MVSCAN(%s)", sig)
	} else {
		b.WriteString(optimizer.NodeLabel(p, q))
	}
	if p.Filter != nil {
		fmt.Fprintf(b, " filter=%s", p.Filter)
	}
	if len(p.EquiLeft) > 0 {
		fmt.Fprintf(b, " keys=%v/%v", p.EquiLeft, p.EquiRight)
	}
	if p.IndexJoin {
		fmt.Fprintf(b, " lookup=%d", p.LookupCol)
	}
	if len(p.SortKeys) > 0 {
		fmt.Fprintf(b, " sort=%v", p.SortKeys)
	}
	fmt.Fprintf(b, " cols=%v card=%s cost=%s", p.Cols, hexf(p.Card), hexf(p.Cost))
	for k := range p.Children {
		r := p.EdgeValidity(k)
		fmt.Fprintf(b, " v%d=[%s,%s]", k, hexf(r.Lo), hexf(r.Hi))
	}
	b.WriteByte('\n')
	for _, c := range p.Children {
		dumpPlan(b, c, q, depth+1)
	}
}

// dumpOptimizations writes each optimize_done event's candidate count and
// cost, in call order.
func dumpOptimizations(b *strings.Builder, evs []trace.Event) {
	for i, ev := range evs {
		fmt.Fprintf(b, "optimize %d: candidates=%d cost=%s\n", i, ev.Opt.Candidates, hexf(ev.Opt.Cost))
	}
}

// dumpResult writes every optimized plan of a POP run and its outcome.
func dumpResult(b *strings.Builder, res *pop.Result, q *logical.Query) {
	for i, a := range res.Attempts {
		fmt.Fprintf(b, "attempt %d plan:\n", i)
		dumpPlan(b, a.Optimized, q, 1)
	}
	fmt.Fprintf(b, "work=%s reopts=%d\n", hexf(res.Work), res.Reopts)
}

// popGolden runs each query through a full POP loop under opts and dumps
// every optimization it performs.
func popGolden(t *testing.T, b *strings.Builder, section string, cat *catalog.Catalog, names []string, qs map[string]*logical.Query, opts pop.Options) {
	t.Helper()
	for _, name := range names {
		q := qs[name]
		col := trace.NewCollector()
		o := opts
		o.Trace = col
		res, err := pop.NewRunner(cat, o).Run(q, nil)
		if err != nil {
			t.Fatalf("%s %s: %v", section, name, err)
		}
		fmt.Fprintf(b, "== %s %s ==\n", section, name)
		dumpOptimizations(b, col.OfKind(trace.OptimizeDone))
		dumpResult(b, res, q)
	}
}

// TestOptimizerGolden pins the optimizer's output bit for bit: plans, card
// and cost estimates, validity ranges and candidate counts across the DMV
// workload's full re-optimization loops (feedback and temp-MV reuse
// included), the named TPC-H queries, the parameterized Q10 through the plan
// cache (estimation under parameter bindings), the greedy-pop strategy and
// the cardinality-greedy fallback past GreedyThreshold. Optimizer changes
// meant to be behavior-preserving must leave the golden file unchanged; run
// with -update to rewrite it after an intended change.
func TestOptimizerGolden(t *testing.T) {
	var b strings.Builder

	dmvCat := catalog.New()
	if err := dmv.Load(dmvCat, dmv.Config{Scale: 0.2, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	infos, err := dmv.Queries(dmvCat)
	if err != nil {
		t.Fatal(err)
	}
	dmvQS := map[string]*logical.Query{}
	var dmvNames []string
	for _, qi := range infos {
		dmvQS[qi.Name] = qi.Query
		dmvNames = append(dmvNames, qi.Name)
	}
	popGolden(t, &b, "dmv/dp-pop", dmvCat, dmvNames, dmvQS, pop.DefaultOptions())
	greedy := pop.DefaultOptions()
	greedy.Planner = pop.GreedyPOP
	popGolden(t, &b, "dmv/greedy-pop", dmvCat, dmvNames, dmvQS, greedy)
	fallback := pop.DefaultOptions()
	fallback.Configure = func(o *optimizer.Optimizer) { o.GreedyThreshold = 3 }
	popGolden(t, &b, "dmv/greedy-threshold-3", dmvCat, dmvNames, dmvQS, fallback)

	tpchCat := catalog.New()
	if err := tpch.Load(tpchCat, tpch.Config{ScaleFactor: 0.003, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	named, err := tpch.Queries(tpchCat)
	if err != nil {
		t.Fatal(err)
	}
	var tpchNames []string
	for n := range named {
		tpchNames = append(tpchNames, n)
	}
	sort.Strings(tpchNames)
	popGolden(t, &b, "tpch/dp-pop", tpchCat, tpchNames, named, pop.DefaultOptions())

	q10, err := tpch.Q10Param(tpchCat)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	opts := pop.DefaultOptions()
	opts.Trace = col
	runner := plancache.NewRunner(plancache.New(), tpchCat, opts)
	for _, qty := range []float64{5, 25, 50, 5, 12.5} {
		before := len(col.OfKind(trace.OptimizeDone))
		res, info, err := runner.Run(q10, []types.Datum{types.NewFloat(qty)})
		if err != nil {
			t.Fatalf("Q10Param(qty=%g): %v", qty, err)
		}
		fmt.Fprintf(&b, "== plancache Q10Param qty=%g hit=%v invalidated=%v ==\n", qty, info.Hit, info.Invalidated)
		dumpOptimizations(&b, col.OfKind(trace.OptimizeDone)[before:])
		dumpResult(&b, res, q10)
		for i, cp := range runner.Cache.Entry(info.Key).Plans() {
			fmt.Fprintf(&b, "cached plan %d:\n", i)
			dumpPlan(&b, cp.Plan, q10, 1)
		}
	}

	path := filepath.Join("testdata", "optimizer.golden")
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("optimizer output diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("optimizer output diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
