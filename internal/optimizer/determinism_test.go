package optimizer

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// TestExplainDeterminism pins the map-order audit: optimizing the same
// query repeatedly — fresh optimizer, fresh query build each round — must
// produce byte-identical EXPLAIN text. When the per-subset plan groups were
// maps visited in iteration order, a cost tie could break differently per
// run and flip the printed plan.
func TestExplainDeterminism(t *testing.T) {
	cat := fixture(t)

	builds := map[string]func(t *testing.T) *logical.Query{
		"selective-two-way": func(t *testing.T) *logical.Query {
			return selectiveJoinQuery(t, cat, 5)
		},
		"three-way-join": func(t *testing.T) *logical.Query {
			b := logical.NewBuilder(cat)
			b.AddTable("dim", "d")
			b.AddTable("fact", "f")
			b.AddTable("other", "o")
			b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_dim")})
			b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("f", "f_id"), R: b.Col("o", "o_fact")})
			b.SelectCol("d", "d_tag")
			b.SelectCol("o", "o_id")
			q, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"grouped-ordered": func(t *testing.T) *logical.Query {
			b := logical.NewBuilder(cat)
			b.AddTable("dim", "d")
			b.AddTable("fact", "f")
			b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_dim")})
			b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("f", "f_val"), R: &expr.Const{Val: types.NewFloat(500)}})
			b.SelectCol("d", "d_tag")
			b.SelectAgg(logical.AggSum, b.Col("f", "f_val"), "total")
			b.GroupBy(b.Col("d", "d_tag"))
			b.OrderBy(b.Col("d", "d_tag"), false)
			q, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
	}

	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			var first string
			// Several rounds: Go re-randomizes map iteration per loop, so
			// an order-dependent tie-break has many chances to flip.
			for round := 0; round < 8; round++ {
				q := build(t)
				p, err := New(cat).Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				text := Explain(p, q)
				if round == 0 {
					first = text
					continue
				}
				if text != first {
					t.Fatalf("EXPLAIN text diverged on round %d:\n--- first ---\n%s\n--- round %d ---\n%s",
						round, first, round, text)
				}
			}
		})
	}
}
