package logical

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	mustCreate := func(name string, cols ...schema.Column) {
		if _, err := c.CreateTable(name, schema.New(cols...)); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("customer",
		schema.Column{Name: "c_custkey", Type: types.KindInt},
		schema.Column{Name: "c_name", Type: types.KindString},
	)
	mustCreate("orders",
		schema.Column{Name: "o_orderkey", Type: types.KindInt},
		schema.Column{Name: "o_custkey", Type: types.KindInt},
		schema.Column{Name: "o_date", Type: types.KindDate},
	)
	mustCreate("lineitem",
		schema.Column{Name: "l_orderkey", Type: types.KindInt},
		schema.Column{Name: "l_quantity", Type: types.KindFloat},
	)
	return c
}

func buildQ10ish(t *testing.T) *Query {
	t.Helper()
	b := NewBuilder(testCatalog(t))
	b.AddTable("customer", "c")
	b.AddTable("orders", "o")
	b.AddTable("lineitem", "l")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("c", "c_custkey"), R: b.Col("o", "o_custkey")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("o", "o_orderkey"), R: b.Col("l", "l_orderkey")})
	b.Where(&expr.Cmp{Op: expr.LE, L: b.Col("l", "l_quantity"), R: b.Param(0)})
	b.SelectCol("c", "c_name")
	b.SelectAgg(AggSum, b.Col("l", "l_quantity"), "total_qty")
	b.GroupBy(b.Col("c", "c_name"))
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestGlobalIDLayout(t *testing.T) {
	q := buildQ10ish(t)
	if q.NumColumns() != 2+3+2 {
		t.Fatalf("NumColumns = %d", q.NumColumns())
	}
	if q.Base(0) != 0 || q.Base(1) != 2 || q.Base(2) != 5 {
		t.Errorf("bases = %d %d %d", q.Base(0), q.Base(1), q.Base(2))
	}
	// TableOf / OrdinalOf round trip.
	for ti := 0; ti < 3; ti++ {
		for ord := 0; ord < q.Schemas[ti].Len(); ord++ {
			g := q.GlobalID(ti, ord)
			if q.TableOf(g) != ti || q.OrdinalOf(g) != ord {
				t.Errorf("round trip failed for table %d ord %d (g=%d)", ti, ord, g)
			}
		}
	}
	if q.TableOf(-1) != -1 || q.TableOf(99) != -1 {
		t.Error("out-of-range TableOf should be -1")
	}
	if q.OrdinalOf(99) != -1 {
		t.Error("out-of-range OrdinalOf should be -1")
	}
}

func TestColumnNameAndType(t *testing.T) {
	q := buildQ10ish(t)
	if q.ColumnName(q.GlobalID(1, 2)) != "o.o_date" {
		t.Errorf("name = %s", q.ColumnName(q.GlobalID(1, 2)))
	}
	if q.ColumnType(q.GlobalID(1, 2)) != types.KindDate {
		t.Error("type lookup")
	}
	if q.ColumnType(99) != types.KindNull {
		t.Error("out-of-range type should be KindNull")
	}
	if q.ColumnName(99) != "$99" {
		t.Error("out-of-range name")
	}
}

func TestTablesUsed(t *testing.T) {
	q := buildQ10ish(t)
	want := []uint64{0b011, 0b110, 0b100} // c ⋈ o, o ⋈ l, the lineitem param predicate
	if len(q.Where) != len(want) {
		t.Fatalf("WHERE has %d conjuncts, want %d", len(q.Where), len(want))
	}
	for i, p := range q.Where {
		if m := q.TablesUsed(p); m != want[i] {
			t.Errorf("conjunct %d (%s): mask = %b, want %b", i, p, m, want[i])
		}
	}
}

func TestNumParams(t *testing.T) {
	q := buildQ10ish(t)
	if q.NumParams != 1 {
		t.Errorf("NumParams = %d", q.NumParams)
	}
}

func TestQueryString(t *testing.T) {
	q := buildQ10ish(t)
	s := q.String()
	for _, want := range []string{"SELECT", "FROM customer c", "WHERE", "GROUP BY", "SUM", "?0"} {
		if !strings.Contains(s, want) {
			t.Errorf("query string %q missing %q", s, want)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	cat := testCatalog(t)

	b := NewBuilder(cat)
	b.AddTable("missing", "")
	if _, err := b.Build(); err == nil {
		t.Error("missing table should fail")
	}

	b = NewBuilder(cat)
	b.AddTable("customer", "c")
	b.AddTable("orders", "c") // duplicate alias
	if _, err := b.Build(); err == nil {
		t.Error("duplicate alias should fail")
	}

	b = NewBuilder(cat)
	b.AddTable("customer", "c")
	b.Col("zzz", "c_name")
	b.SelectCol("c", "c_name")
	if _, err := b.Build(); err == nil {
		t.Error("unknown alias should fail")
	}

	b = NewBuilder(cat)
	b.AddTable("customer", "c")
	b.SelectCol("c", "nope")
	if _, err := b.Build(); err == nil {
		t.Error("unknown column should fail")
	}

	b = NewBuilder(cat)
	if _, err := b.Build(); err == nil {
		t.Error("no tables should fail")
	}

	b = NewBuilder(cat)
	b.AddTable("customer", "c")
	if _, err := b.Build(); err == nil {
		t.Error("no select list should fail")
	}
}

func TestBuilderDefaultAliasAndExtras(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	b.AddTable("customer", "")
	b.SelectExpr(&expr.Arith{Op: expr.Add, L: b.Col("customer", "c_custkey"), R: &expr.Const{Val: types.NewInt(1)}}, "plus1")
	b.OrderBy(b.Col("customer", "c_name"), true)
	b.Limit(10)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if q.Tables[0].Alias != "customer" {
		t.Error("default alias")
	}
	if q.Limit != 10 || len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Error("order/limit lost")
	}
	s := q.String()
	if !strings.Contains(s, "ORDER BY") || !strings.Contains(s, "DESC") || !strings.Contains(s, "LIMIT 10") {
		t.Errorf("string = %q", s)
	}
}

func TestWhereSplitsConjuncts(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	b.AddTable("customer", "c")
	p1 := &expr.Cmp{Op: expr.GT, L: b.Col("c", "c_custkey"), R: &expr.Const{Val: types.NewInt(1)}}
	p2 := &expr.Cmp{Op: expr.LT, L: b.Col("c", "c_custkey"), R: &expr.Const{Val: types.NewInt(9)}}
	b.Where(&expr.Logic{Op: expr.And, Args: []expr.Expr{p1, p2}})
	b.SelectCol("c", "c_name")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Errorf("conjuncts = %d, want 2", len(q.Where))
	}
}

func TestSelectItemString(t *testing.T) {
	if (SelectItem{Agg: AggCount}).String() != "COUNT(*)" {
		t.Error("COUNT(*) rendering")
	}
	if (SelectItem{Agg: AggAvg, E: &expr.ColRef{Pos: 1, Name: "x"}}).String() != "AVG(x)" {
		t.Error("AVG rendering")
	}
	if (SelectItem{E: &expr.ColRef{Pos: 1, Name: "x"}}).String() != "x" {
		t.Error("plain rendering")
	}
	for _, a := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg} {
		if a.String() == "" {
			t.Error("agg name empty")
		}
	}
}
