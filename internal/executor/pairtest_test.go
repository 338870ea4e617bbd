package executor

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// fuzzBytes hands out fuzz input bytes, then zeros once the input runs dry.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// datum draws from a small domain so equalities are often true: NULL, ints,
// floats equal to (and between) those ints, dates, and strings. Mixed kinds
// give cross-kind numeric comparisons and incomparable ones (string vs int).
func (b *fuzzBytes) datum() types.Datum {
	v := b.next()
	small := int64(v>>3) % 3
	switch v % 6 {
	case 0:
		return types.Null
	case 1, 2:
		return types.NewInt(small)
	case 3:
		if v&0x80 != 0 {
			return types.NewFloat(float64(small) + 0.5)
		}
		return types.NewFloat(float64(small))
	case 4:
		return types.NewDate(small)
	default:
		return types.NewString([]string{"a", "b", "c"}[small])
	}
}

func (b *fuzzBytes) row(width int) schema.Row {
	r := make(schema.Row, width)
	for i := range r {
		r[i] = b.datum()
	}
	return r
}

// col picks a joined-row column in [lo, hi): the outer side is [0, ow), the
// inner side [ow, width).
func (b *fuzzBytes) col(lo, hi int) expr.Expr {
	return &expr.ColRef{Pos: lo + b.next()%(hi-lo)}
}

// crossEq draws a cross-side =, in either operand order.
func (b *fuzzBytes) crossEq(ow, width int) expr.Expr {
	if b.next()%2 == 0 {
		return &expr.Cmp{Op: expr.EQ, L: b.col(0, ow), R: b.col(ow, width)}
	}
	return &expr.Cmp{Op: expr.EQ, L: b.col(ow, width), R: b.col(0, ow)}
}

// cmp draws one comparison for the non-prefix part of the grammar.
func (b *fuzzBytes) cmp(ow, width int) expr.Expr {
	switch b.next() % 4 {
	case 0:
		return b.crossEq(ow, width)
	case 1: // same-side =
		if b.next()%2 == 0 {
			return &expr.Cmp{Op: expr.EQ, L: b.col(0, ow), R: b.col(0, ow)}
		}
		return &expr.Cmp{Op: expr.EQ, L: b.col(ow, width), R: b.col(ow, width)}
	case 2:
		return &expr.Cmp{Op: expr.LT, L: b.col(0, width), R: b.col(0, width)}
	default:
		return &expr.Cmp{Op: expr.EQ, L: b.col(0, width), R: &expr.Const{Val: b.datum()}}
	}
}

// conjunct draws a comparison, an OR of two, or a NOT of one.
func (b *fuzzBytes) conjunct(ow, width int) expr.Expr {
	switch b.next() % 4 {
	case 0:
		return &expr.Logic{Op: expr.Or, Args: []expr.Expr{b.cmp(ow, width), b.cmp(ow, width)}}
	case 1:
		return &expr.Not{E: b.cmp(ow, width)}
	default:
		return b.cmp(ow, width)
	}
}

// filter draws a residual join filter: a prefix of cross-side equalities
// followed by arbitrary conjuncts, as one AND, a lone conjunct, or nil.
func (b *fuzzBytes) filter(ow, width int) expr.Expr {
	var args []expr.Expr
	for i, n := 0, b.next()%4; i < n; i++ {
		args = append(args, b.crossEq(ow, width))
	}
	for i, n := 0, b.next()%3; i < n; i++ {
		args = append(args, b.conjunct(ow, width))
	}
	switch {
	case len(args) == 0:
		return nil
	case len(args) == 1 && b.next()%2 == 0:
		return args[0]
	}
	return &expr.Logic{Op: expr.And, Args: args}
}

// FuzzJoinPairTest checks the pair test against the filter it compiles:
// keep and error must equal evalFilter on outer.Concat(inner), for every
// pair the same pairTest (and so the same scratch row) sees.
func FuzzJoinPairTest(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{1, 1, 2, 8, 9, 1, 9, 3, 0, 1, 0, 0},
		{2, 2, 3, 3, 1, 16, 0, 4, 11, 5, 2, 1, 1, 0, 1, 3, 0, 7, 2, 2},
		{3, 0, 0, 0, 6, 0, 1, 2, 2, 0, 1, 1, 2, 1, 0, 2, 2, 3, 0, 1, 2, 3},
		{0, 3, 1, 2, 1, 3, 1, 0, 2, 129, 3, 5, 1, 2, 0, 0, 1, 1, 1, 2, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		ow, iw := 1+b.next()%3, 1+b.next()%3
		width := ow + iw
		filter := b.filter(ow, width)
		pt := newPairTest(filter, ow)
		for pair := 0; pair < 3; pair++ {
			outer, inner := b.row(ow), b.row(iw)
			keep, err := pt.keep(nil, outer, inner)
			want, werr := evalFilter(filter, nil, outer.Concat(inner))
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("filter %v on %v ++ %v: pair test error %v, evalFilter error %v", filter, outer, inner, err, werr)
			}
			if keep != want {
				t.Fatalf("filter %v on %v ++ %v: pair test keep=%v, evalFilter keep=%v", filter, outer, inner, keep, want)
			}
		}
	})
}

// rejectFixture builds lt and rt with n rows each, every row on join key 1,
// so every outer row meets every inner row on the key, and with lv < rv
// throughout, so the residual l.lv > r.rv rejects every candidate pair.
func rejectFixture(t testing.TB, n int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, spec := range []struct {
		name, key, val string
		base           int64
	}{{"lt", "lk", "lv", 0}, {"rt", "rk", "rv", 1000}} {
		tab, err := c.CreateTable(spec.name, schema.New(
			schema.Column{Name: spec.key, Type: types.KindInt},
			schema.Column{Name: spec.val, Type: types.KindInt},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			tab.Heap.MustInsert(schema.Row{types.NewInt(1), types.NewInt(spec.base + int64(i))})
		}
	}
	if _, err := c.CreateBTreeIndex("rt_rk", "rt", "rk"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// rejectQuery is SELECT l.lv, r.rv FROM lt l, rt r WHERE l.lk = r.rk AND
// l.lv > r.rv: the key matches every pair and the residual rejects it.
func rejectQuery(t testing.TB, cat *catalog.Catalog) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("lt", "l")
	b.AddTable("rt", "r")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "lk"), R: b.Col("r", "rk")})
	b.Where(&expr.Cmp{Op: expr.GT, L: b.Col("l", "lv"), R: b.Col("r", "rv")})
	b.SelectCol("l", "lv")
	b.SelectCol("r", "rv")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// noWorkers grants no workers, so every exchange runs its inline probe loop.
type noWorkers struct{}

func (noWorkers) AcquireWorkers(int) int { return 0 }
func (noWorkers) ReleaseWorkers(int)     {}

// residualJoin is one join method of rejectQuery, forced through the
// optimizer knobs, with the executor settings it runs under.
type residualJoin struct {
	name   string
	cfg    func(*optimizer.Optimizer)
	want   func(*optimizer.Plan) bool // the plan node the method must produce
	batch  int
	inline bool
}

var residualJoins = []residualJoin{
	{name: "naiveNLJN", cfg: func(o *optimizer.Optimizer) { o.DisableHSJN, o.DisableMGJN, o.DisableIndexJoin = true, true, true },
		want: func(p *optimizer.Plan) bool { return p.Op == optimizer.OpNLJN && !p.IndexJoin }},
	{name: "indexNLJN", cfg: func(o *optimizer.Optimizer) { o.DisableHSJN, o.DisableMGJN = true, true },
		want: func(p *optimizer.Plan) bool { return p.Op == optimizer.OpNLJN && p.IndexJoin }},
	{name: "hsjnRow", cfg: func(o *optimizer.Optimizer) { o.DisableNLJN, o.DisableMGJN = true, true },
		want: func(p *optimizer.Plan) bool { return p.Op == optimizer.OpHSJN }},
	{name: "hsjnBatch", cfg: func(o *optimizer.Optimizer) { o.DisableNLJN, o.DisableMGJN = true, true },
		want: func(p *optimizer.Plan) bool { return p.Op == optimizer.OpHSJN }, batch: 64},
	{name: "mgjn", cfg: func(o *optimizer.Optimizer) { o.DisableNLJN, o.DisableHSJN = true, true },
		want: func(p *optimizer.Plan) bool { return p.Op == optimizer.OpMGJN }},
	{name: "exchangeInlineRow", cfg: func(o *optimizer.Optimizer) {
		o.DisableNLJN, o.DisableMGJN = true, true
		o.Model.Params.Workers = 4
	}, want: isPartitionedHSJN, inline: true},
	{name: "exchangeInlineBatch", cfg: func(o *optimizer.Optimizer) {
		o.DisableNLJN, o.DisableMGJN = true, true
		o.Model.Params.Workers = 4
	}, want: isPartitionedHSJN, batch: 64, inline: true},
}

// isPartitionedHSJN matches a GATHER over a hash join, which the executor
// runs as one partitioned hash join.
func isPartitionedHSJN(p *optimizer.Plan) bool {
	return p.Op == optimizer.OpExchange && p.ExKind == optimizer.ExGather && p.Children[0].Op == optimizer.OpHSJN
}

// plan optimizes q under the method's knobs and checks the plan uses it.
func (j residualJoin) plan(t testing.TB, cat *catalog.Catalog, q *logical.Query) (*optimizer.Plan, optimizer.CostParams) {
	t.Helper()
	opt := optimizer.New(cat)
	j.cfg(opt)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !planContains(plan, j.want) {
		t.Fatalf("%s: plan lacks the forced join method:\n%s", j.name, optimizer.Explain(plan, q))
	}
	return plan, opt.Model.Params
}

// run builds and drains one executable tree for the plan, returning the
// number of rows it produced.
func (j residualJoin) run(t testing.TB, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan, params optimizer.CostParams) int {
	ex, err := NewExecutor(cat, q, nil, params, &Meter{})
	if err != nil {
		t.Fatal(err)
	}
	ex.BatchSize = j.batch
	if j.inline {
		ex.Gate = noWorkers{}
	}
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunWith(root, j.batch)
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

// TestRejectedJoinPairsDoNotAllocate pins that a join allocates nothing for
// a candidate pair its residual filter rejects: every join emission site
// tests the pair in place and builds the joined row only for a kept pair.
// Each run builds and drains a fresh tree, so the per-run count includes a
// fixed set-up cost; with 3600 rejected pairs per run, one allocation per
// pair would show as 1.0 and the bound leaves room only for the set-up.
func TestRejectedJoinPairsDoNotAllocate(t *testing.T) {
	const n = 60
	cat := rejectFixture(t, n)
	q := rejectQuery(t, cat)
	for _, j := range residualJoins {
		t.Run(j.name, func(t *testing.T) {
			plan, params := j.plan(t, cat, q)
			if got := j.run(t, cat, q, plan, params); got != 0 {
				t.Fatalf("residual must reject every pair, got %d rows", got)
			}
			allocs := testing.AllocsPerRun(5, func() { j.run(t, cat, q, plan, params) })
			perPair := allocs / (n * n)
			t.Logf("%.0f allocs per run, %.4f per rejected pair", allocs, perPair)
			if perPair >= 0.05 {
				t.Errorf("%.0f allocations for %d rejected pairs (%.3f per pair); want 0 per pair", allocs, n*n, perPair)
			}
		})
	}
}

// BenchmarkJoinResidual times each join method over 3600 candidate pairs
// that its residual filter rejects, so the numbers are the cost of testing
// pairs, not of emitting rows.
func BenchmarkJoinResidual(b *testing.B) {
	cat := rejectFixture(b, 60)
	q := rejectQuery(b, cat)
	for _, j := range residualJoins {
		b.Run(j.name, func(b *testing.B) {
			plan, params := j.plan(b, cat, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.run(b, cat, q, plan, params)
			}
		})
	}
}
