package optimizer

import (
	"math/bits"

	"repro/internal/expr"
	"repro/internal/logical"
)

// queryFacts is the per-query bookkeeping enumeration and estimation consult
// on every candidate: which tables each WHERE conjunct touches, each table's
// local predicates, the join predicates with their table masks, and which
// table owns each column. Optimize and NewCardEstimator derive it once per
// call from the immutable query, so candidate costing answers these with an
// index or a mask test instead of walking expression trees. It is never
// cached on the query: a call pays for its own facts, so no work moves into
// set-up or across calls.
type queryFacts struct {
	q        *logical.Query
	masks    []uint64      // table mask of each WHERE conjunct, parallel to q.Where
	local    [][]expr.Expr // per table, the conjuncts over that table alone, in WHERE order
	localAnd []expr.Expr   // per table, its local conjuncts conjoined (nil if none)
	joins    []predMask    // the conjuncts over two or more tables, in WHERE order
	colTable []int         // owning table index of each query-global column id
	ids      []int         // ids[g] = g for every query-global column id; see tableCols
}

// predMask pairs a predicate with its precomputed table mask.
type predMask struct {
	pred expr.Expr
	mask uint64
}

func newQueryFacts(q *logical.Query) *queryFacts {
	n := q.NumColumns()
	byCol := make([]int, 2*n) // one allocation for both per-column slices
	f := &queryFacts{
		q:        q,
		masks:    make([]uint64, len(q.Where)),
		local:    make([][]expr.Expr, len(q.Tables)),
		colTable: byCol[:n:n],
		ids:      byCol[n:],
	}
	for ti := range q.Tables {
		for ord := 0; ord < q.Schemas[ti].Len(); ord++ {
			g := q.GlobalID(ti, ord)
			f.colTable[g] = ti
			f.ids[g] = g
		}
	}
	for i, p := range q.Where {
		m := q.TablesUsed(p)
		f.masks[i] = m
		switch {
		case m == 0:
		case m&(m-1) == 0:
			ti := bits.TrailingZeros64(m)
			f.local[ti] = append(f.local[ti], p)
		default:
			f.joins = append(f.joins, predMask{pred: p, mask: m})
		}
	}
	f.localAnd = make([]expr.Expr, len(q.Tables))
	for ti, preds := range f.local {
		f.localAnd[ti] = expr.Conjoin(preds...)
	}
	return f
}

// tableCols returns the global ids of all of table ti's columns, in column
// order. Plans share the slice, so it is capped to keep an append from
// reaching the next table's ids.
func (f *queryFacts) tableCols(ti int) []int {
	lo, hi := f.q.Base(ti), f.q.Base(ti)+f.q.Schemas[ti].Len()
	return f.ids[lo:hi:hi]
}

// tableOf returns the index of the table owning global column id g, or -1.
func (f *queryFacts) tableOf(g int) int {
	if g < 0 || g >= len(f.colTable) {
		return -1
	}
	return f.colTable[g]
}

// joinPredsBetween returns the join predicates connecting subset rest with
// table ti, in WHERE order.
func (f *queryFacts) joinPredsBetween(rest uint64, ti int) []expr.Expr {
	var out []expr.Expr
	for _, jp := range f.joins {
		if connects(jp.mask, rest, ti) {
			out = append(out, jp.pred)
		}
	}
	return out
}

// countJoinPreds returns len(joinPredsBetween(rest, ti)) without building the
// slice.
func (f *queryFacts) countJoinPreds(rest uint64, ti int) int {
	n := 0
	for _, jp := range f.joins {
		if connects(jp.mask, rest, ti) {
			n++
		}
	}
	return n
}

// connects reports whether a join predicate over the tables in mask links
// subset rest with table ti: it touches both and nothing outside them.
func connects(mask, rest uint64, ti int) bool {
	bit := uint64(1) << uint(ti)
	return mask&bit != 0 && mask&rest != 0 && mask&^(rest|bit) == 0
}
