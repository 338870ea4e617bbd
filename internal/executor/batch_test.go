package executor

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

func TestBatchAllocSlabSemantics(t *testing.T) {
	b := NewBatch(4)
	r1 := b.Alloc(3)
	r1[0], r1[1], r1[2] = types.NewInt(1), types.NewInt(2), types.NewInt(3)
	r2 := b.Alloc(3)
	r2[0], r2[1], r2[2] = types.NewInt(4), types.NewInt(5), types.NewInt(6)
	if !b.Ephemeral() {
		t.Error("Alloc must mark the batch ephemeral")
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2", b.Len())
	}
	if b.Rows[0][0].Int() != 1 || b.Rows[1][2].Int() != 6 {
		t.Error("carved rows lost their values")
	}

	// Slab growth mid-batch must leave previously carved rows intact.
	g := NewBatch(2)
	a := g.Alloc(2)
	a[0], a[1] = types.NewInt(10), types.NewInt(11)
	wide := g.Alloc(64) // exceeds the initial slab block
	wide[0] = types.NewInt(12)
	if g.Rows[0][0].Int() != 10 || g.Rows[0][1].Int() != 11 {
		t.Error("slab growth invalidated an earlier row")
	}

	// Reset keeps capacity but empties rows and slab.
	b.Reset()
	if b.Len() != 0 || b.Ephemeral() {
		t.Error("Reset must empty the batch and clear ephemeral")
	}

	// Zero-width rows are representable (projection of no columns).
	z := NewBatch(1)
	if got := z.Alloc(0); len(got) != 0 {
		t.Errorf("Alloc(0) row has %d datums", len(got))
	}
}

func TestAppendBatchRowsCopiesEphemeral(t *testing.T) {
	b := NewBatch(2)
	r := b.Alloc(2)
	r[0], r[1] = types.NewInt(1), types.NewInt(2)
	var dst []schema.Row
	dst = appendBatchRows(dst, b)

	// Producer reuses the slab for its next batch; the copy must survive.
	b.Reset()
	r2 := b.Alloc(2)
	r2[0], r2[1] = types.NewInt(99), types.NewInt(99)
	if dst[0][0].Int() != 1 || dst[0][1].Int() != 2 {
		t.Error("ephemeral rows were retained by reference, not copied")
	}

	// Stable batches append by reference (no copy needed).
	s := NewBatch(2)
	stable := schema.Row{types.NewInt(7)}
	s.Append(stable)
	dst2 := appendBatchRows(nil, s)
	if &dst2[0][0] != &stable[0] {
		t.Error("stable rows should be appended by reference")
	}
}

// runModes executes one plan in row mode and at every batch size, asserting
// identical result multisets and a bit-identical work total, and returns the
// row-mode rows.
func runModes(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, dop int, label string) []schema.Row {
	t.Helper()
	exec := func(batchSize int) ([]schema.Row, float64) {
		meter := &Meter{}
		ex, err := NewExecutor(cat, q, nil, params, meter)
		if err != nil {
			t.Fatal(err)
		}
		ex.DOP = dop
		ex.BatchSize = batchSize
		root, err := ex.Build(plan)
		if err != nil {
			t.Fatalf("build: %v\n%s", err, optimizer.Explain(plan, q))
		}
		rows, err := RunWith(root, batchSize)
		if err != nil {
			t.Fatalf("%s size=%d: %v", label, batchSize, err)
		}
		return rows, meter.Work()
	}
	wantRows, wantWork := exec(0)
	for _, size := range []int{1, 3, 64, 1024} {
		rows, work := exec(size)
		sameRows(t, rows, wantRows, label)
		if work != wantWork {
			t.Errorf("%s size=%d: work = %v, want %v (row mode)", label, size, work, wantWork)
		}
	}
	return wantRows
}

// TestBatchMatchesRowExecution pins the tentpole invariant: result rows and
// the simulated work total are bit-identical between row-at-a-time and
// batch-at-a-time execution, at every batch size, across plan shapes that
// exercise scans, hash joins, aggregation and sort.
func TestBatchMatchesRowExecution(t *testing.T) {
	cat := fixture(t)

	t.Run("threeWayJoin", func(t *testing.T) {
		q := threeWayQuery(t, cat, 50)
		for name, cfg := range map[string]func(*optimizer.Optimizer){
			"default":  func(o *optimizer.Optimizer) {},
			"onlyHSJN": func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableMGJN = true },
		} {
			opt := optimizer.New(cat)
			cfg(opt)
			plan, err := opt.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			rows := runModes(t, cat, q, plan, opt.Model.Params, 1, name)
			sameRows(t, rows, reference(t, cat, 50), name)
		}
	})

	t.Run("aggregationAndSort", func(t *testing.T) {
		b := logical.NewBuilder(cat)
		b.AddTable("emp", "e")
		b.AddTable("dept", "d")
		b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
		b.SelectCol("d", "d_name")
		b.SelectAgg(logical.AggCount, nil, "n")
		b.SelectAgg(logical.AggSum, b.Col("e", "e_salary"), "total")
		b.GroupBy(b.Col("d", "d_name"))
		b.OrderBy(b.Col("d", "d_name"), false)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(cat)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := runModes(t, cat, q, plan, opt.Model.Params, 1, "agg")
		if len(rows) != 4 {
			t.Errorf("got %d groups, want 4", len(rows))
		}
	})

	t.Run("indexScanWithLimit", func(t *testing.T) {
		b := logical.NewBuilder(cat)
		b.AddTable("emp", "e")
		b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(200)}})
		b.SelectCol("e", "e_id")
		b.OrderBy(b.Col("e", "e_id"), true)
		b.Limit(7)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(cat)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := runModes(t, cat, q, plan, opt.Model.Params, 1, "limit")
		if len(rows) != 7 {
			t.Errorf("limit returned %d rows", len(rows))
		}
	})
}

// TestBatchParallelMatchesRow extends the invariant across exchanges: the
// partitioned hash join's work total must be identical across row/batch mode
// at every DOP. The residual-filtered join runs each probe worker's pair
// test on its own scratch row, which -race checks at DOP 4; its rows must
// also match the serial plan's.
func TestBatchParallelMatchesRow(t *testing.T) {
	cat := fixture(t)
	for name, q := range map[string]*logical.Query{
		"equiOnly": joinQuery(t, cat),
		"residual": residualJoinQuery(t, cat),
	} {
		t.Run(name, func(t *testing.T) {
			opt := parallelOptimizer(cat, 4)
			plan, err := opt.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			if !planContains(plan, func(p *optimizer.Plan) bool { return p.Op == optimizer.OpExchange }) {
				t.Fatalf("expected a parallel plan:\n%s", optimizer.Explain(plan, q))
			}
			serial := runPlan(t, parallelOptimizer(cat, 1), q, nil)
			if len(serial) == 0 {
				t.Fatal("serial join returned no rows; fixture broken")
			}
			var wantWork float64
			for _, dop := range []int{1, 2, 4} {
				rows := runModes(t, cat, q, plan, opt.Model.Params, dop, "parallel")
				sameRows(t, rows, serial, "parallel vs serial plan")
				meter := &Meter{}
				ex, err := NewExecutor(cat, q, nil, opt.Model.Params, meter)
				if err != nil {
					t.Fatal(err)
				}
				ex.DOP = dop
				root, err := ex.Build(plan)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(root); err != nil {
					t.Fatal(err)
				}
				if dop == 1 {
					wantWork = meter.Work()
				} else if meter.Work() != wantWork {
					t.Errorf("dop=%d: work = %v, want %v", dop, meter.Work(), wantWork)
				}
			}
		})
	}
}

// residualJoinQuery is joinQuery plus a cross-table residual that keeps
// part of the equi-join's pairs: e.e_id < d.d_loc * 100.
func residualJoinQuery(t *testing.T, cat *catalog.Catalog) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.AddTable("dept", "d")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"),
		R: &expr.Arith{Op: expr.Mul, L: b.Col("d", "d_loc"), R: &expr.Const{Val: types.NewInt(100)}}})
	b.SelectCol("e", "e_id")
	b.SelectCol("d", "d_name")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// batchViolationRun executes a plan expecting a CheckViolation, returning the
// rows delivered before the violation and the work total.
func batchViolationRun(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, batchSize int) ([]schema.Row, float64, *CheckViolation) {
	t.Helper()
	meter := &Meter{}
	ex, err := NewExecutor(cat, q, nil, params, meter)
	if err != nil {
		t.Fatal(err)
	}
	ex.BatchSize = batchSize
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, runErr := RunWith(root, batchSize)
	cv, ok := runErr.(*CheckViolation)
	if !ok {
		t.Fatalf("size=%d: want CheckViolation, got %v", batchSize, runErr)
	}
	return rows, meter.Work(), cv
}

// TestBatchCheckUpperViolationParity pins the eager CHECK's batch semantics:
// the violation fires at exactly count == Hi+1, the rows below the bound are
// still delivered, and the work total matches row mode bit-for-bit — at
// every batch size, including sizes that straddle the crossing row.
func TestBatchCheckUpperViolationParity(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Children[0] = wrapCheck(plan.Children[0], optimizer.Range{Lo: 0, Hi: 100}, optimizer.ECDC)

	wantRows, wantWork, wantCV := batchViolationRun(t, cat, q, plan, opt.Model.Params, 0)
	if wantCV.Actual != 101 || wantCV.Exact {
		t.Fatalf("row mode violation: actual=%v exact=%v", wantCV.Actual, wantCV.Exact)
	}
	for _, size := range []int{1, 7, 100, 101, 1024} {
		rows, work, cv := batchViolationRun(t, cat, q, plan, opt.Model.Params, size)
		if cv.Actual != 101 || cv.Exact {
			t.Errorf("size=%d: violation actual=%v exact=%v, want 101/false", size, cv.Actual, cv.Exact)
		}
		if len(rows) != len(wantRows) {
			t.Errorf("size=%d: %d rows delivered before violation, want %d", size, len(rows), len(wantRows))
		}
		if work != wantWork {
			t.Errorf("size=%d: work = %v, want %v", size, work, wantWork)
		}
	}
}

// TestBatchCheckLowerViolationParity pins the end-of-stream lower-bound
// check: exact violation at the full cardinality, identical work.
func TestBatchCheckLowerViolationParity(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Children[0] = wrapCheck(plan.Children[0], optimizer.Range{Lo: 1000, Hi: math.Inf(1)}, optimizer.ECDC)

	wantRows, wantWork, wantCV := batchViolationRun(t, cat, q, plan, opt.Model.Params, 0)
	if !wantCV.Exact || wantCV.Actual != 500 {
		t.Fatalf("row mode EOF violation: exact=%v actual=%v", wantCV.Exact, wantCV.Actual)
	}
	for _, size := range []int{1, 64, 1024} {
		rows, work, cv := batchViolationRun(t, cat, q, plan, opt.Model.Params, size)
		if !cv.Exact || cv.Actual != 500 {
			t.Errorf("size=%d: EOF violation exact=%v actual=%v", size, cv.Exact, cv.Actual)
		}
		if len(rows) != len(wantRows) {
			t.Errorf("size=%d: %d rows, want %d", size, len(rows), len(wantRows))
		}
		if work != wantWork {
			t.Errorf("size=%d: work = %v, want %v", size, work, wantWork)
		}
	}
}

// TestBatchCheckPassParity runs an in-range CHECK through the batch path and
// expects a clean pass with identical rows and work.
func TestBatchCheckPassParity(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Children[0] = wrapCheck(plan.Children[0], optimizer.Range{Lo: 100, Hi: 1000}, optimizer.LC)
	rows := runModes(t, cat, q, plan, opt.Model.Params, 1, "checkPass")
	if len(rows) != 500 {
		t.Errorf("got %d rows, want 500", len(rows))
	}
}

// TestRunWithFallsBackForRowOnlyRoot documents the shim: a root without a
// native batch path (the row-only SORT output) is still driven correctly —
// RunWith degrades to Run while converted operators below it batch freely.
func TestRunWithFallsBackForRowOnlyRoot(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	b.OrderBy(b.Col("e", "e_id"), true)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op != optimizer.OpSort {
		t.Skipf("expected SORT root, got %s", plan.Op)
	}
	rows := runModes(t, cat, q, plan, opt.Model.Params, 1, "sortRoot")
	if len(rows) != 500 {
		t.Errorf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].Int() < rows[i][0].Int() {
			t.Fatal("descending order violated")
		}
	}
}
