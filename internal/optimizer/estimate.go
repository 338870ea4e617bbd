package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/stats"
)

// estimator derives cardinalities for the enumerator. It consults the
// cardinality-feedback cache before statistics, so actual cardinalities
// observed during a previous partial execution override the original
// (possibly wrong) estimates — POP's aspect 2 (paper §2).
type estimator struct {
	q     *logical.Query
	facts *queryFacts // derived from q
	tabs  []*catalog.Table
	fb    *stats.Feedback
	// uncertainty inflates estimates not backed by feedback during a
	// re-optimization (>1 enables; see Optimizer.UncertaintyPenalty).
	uncertainty float64

	// Fast-path state. The DP enumerator asks for the same subset
	// cardinalities, signatures and predicate selectivities many times per
	// Optimize call, and each uncached answer walks expression trees or
	// builds strings. Everything below is derived purely from the fields
	// above, which are immutable for the estimator's lifetime, so memoizing
	// returns bit-identical values in identical call orders.
	lk       stats.Lookup       // interned lookup closure
	fbHas    bool               // fb had entries at construction
	joinSel  []float64          // memoized joinPredSelectivity per facts.joins entry (NaN = unset)
	baseCard []float64          // memoized filteredBaseCard (NaN = unset)
	subsets  map[uint64]float64 // memoized SubsetCard
	sigs     map[uint64]string  // memoized Signature
}

func newEstimator(f *queryFacts, tabs []*catalog.Table, fb *stats.Feedback) *estimator {
	e := &estimator{q: f.q, facts: f, tabs: tabs, fb: fb}
	e.lk = func(pos int) *stats.ColumnStats { return e.statsLookup(pos) }
	e.fbHas = fb != nil && fb.Len() > 0
	e.joinSel = make([]float64, len(f.joins))
	e.baseCard = make([]float64, len(tabs))
	for i := range e.joinSel {
		e.joinSel[i] = math.NaN()
	}
	for i := range e.baseCard {
		e.baseCard[i] = math.NaN()
	}
	e.subsets = make(map[uint64]float64)
	e.sigs = make(map[uint64]string)
	return e
}

// uncertain applies the §7 uncertainty penalty to a non-observed estimate.
// It is active only during re-optimization (the feedback cache has entries)
// and only when the optimizer enables it.
func (e *estimator) uncertain(card float64) float64 {
	if e.uncertainty > 1 && e.fbHas {
		return card * e.uncertainty
	}
	return card
}

// statsLookup resolves a query-global column id to its column statistics.
func (e *estimator) statsLookup(g int) *stats.ColumnStats {
	ti := e.facts.tableOf(g)
	if ti < 0 {
		return nil
	}
	return e.tabs[ti].Stats(g - e.q.Base(ti))
}

// lookup adapts statsLookup to the stats package's Lookup type.
func (e *estimator) lookup() stats.Lookup { return e.lk }

// Signature builds the canonical plan-edge signature for a table subset of
// the query: the sorted aliases of the tables joined plus the sorted
// canonical text of every predicate applied within the subset (all members'
// local predicates and all internal join predicates). Two structurally
// equivalent subplans share a signature regardless of operator choice or
// join order — the key property for cardinality feedback and MV matching.
func Signature(q *logical.Query, mask uint64) string { return signature(q, nil, mask) }

// signature is Signature with the conjuncts' table masks (parallel to
// q.Where) supplied by the caller, or derived here when masks is nil.
func signature(q *logical.Query, masks []uint64, mask uint64) string {
	var aliases []string
	for i := range q.Tables {
		if mask&(1<<uint(i)) != 0 {
			aliases = append(aliases, q.Tables[i].Alias)
		}
	}
	sort.Strings(aliases)
	var preds []string
	for i, p := range q.Where {
		var used uint64
		if masks != nil {
			used = masks[i]
		} else {
			used = q.TablesUsed(p)
		}
		if used != 0 && used&mask == used {
			preds = append(preds, predSignature(q, p))
		}
	}
	sort.Strings(preds)
	return "T{" + strings.Join(aliases, ",") + "}|P{" + strings.Join(preds, ";") + "}"
}

// Signature is the estimator-local shorthand for Signature(q, mask),
// memoized per mask.
func (e *estimator) Signature(mask uint64) string {
	if s, ok := e.sigs[mask]; ok {
		return s
	}
	s := signature(e.q, e.facts.masks, mask)
	e.sigs[mask] = s
	return s
}

// predSignature renders a predicate with column refs spelled as
// alias.column, independent of global-id numbering.
func predSignature(q *logical.Query, p expr.Expr) string {
	named := expr.Remap(p, func(pos int) int { return pos })
	// Remap copies; rewrite names in the copy.
	expr.Walk(named, func(n expr.Expr) {
		if c, ok := n.(*expr.ColRef); ok {
			c.Name = q.ColumnName(c.Pos)
		}
	})
	return named.String()
}

// baseTableCard returns the unfiltered row count of table ti.
func (e *estimator) baseTableCard(ti int) float64 { return e.tabs[ti].RowCount() }

// filteredBaseCard estimates the cardinality of table ti after its local
// predicates, preferring feedback. Memoized per table.
func (e *estimator) filteredBaseCard(ti int) float64 {
	if !math.IsNaN(e.baseCard[ti]) {
		return e.baseCard[ti]
	}
	card := e.filteredBaseCardUncached(ti)
	e.baseCard[ti] = card
	return card
}

func (e *estimator) filteredBaseCardUncached(ti int) float64 {
	if e.fb != nil {
		if card, ok := e.fb.Get(e.Signature(1 << uint(ti))); ok {
			return card
		}
	}
	card := e.baseTableCard(ti)
	for _, p := range e.facts.local[ti] {
		card *= stats.Selectivity(p, e.lookup())
	}
	if card < 0 {
		card = 0
	}
	return e.uncertain(card)
}

// joinPredSelectivity estimates one join predicate's selectivity.
func (e *estimator) joinPredSelectivity(p expr.Expr) float64 {
	if l, r, ok := expr.EquiJoinColumns(p); ok {
		return stats.JoinSelectivity(e.statsLookup(l), e.statsLookup(r))
	}
	return stats.Selectivity(p, e.lookup())
}

// SubsetCard estimates the output cardinality of joining the table subset,
// preferring feedback for the exact subset. Memoized per mask; selectivities
// of individual join predicates are memoized across masks.
func (e *estimator) SubsetCard(mask uint64) float64 {
	if card, ok := e.subsets[mask]; ok {
		return card
	}
	card := e.subsetCardUncached(mask)
	e.subsets[mask] = card
	return card
}

func (e *estimator) subsetCardUncached(mask uint64) float64 {
	if e.fb != nil {
		if card, ok := e.fb.Get(e.Signature(mask)); ok {
			return card
		}
	}
	card := 1.0
	for i := range e.q.Tables {
		if mask&(1<<uint(i)) != 0 {
			card *= e.filteredBaseCard(i)
		}
	}
	for i, jp := range e.facts.joins {
		if jp.mask&mask == jp.mask {
			if math.IsNaN(e.joinSel[i]) {
				e.joinSel[i] = e.joinPredSelectivity(jp.pred)
			}
			card *= e.joinSel[i]
		}
	}
	if card < 0 {
		card = 0
	}
	return e.uncertain(card)
}

// groupCount estimates the number of groups for the given grouping keys out
// of `card` input rows: the product of the keys' distinct counts, capped by
// the input cardinality.
func (e *estimator) groupCount(groupBy []int, card float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, g := range groupBy {
		if cs := e.statsLookup(g); cs != nil && cs.Distinct > 0 {
			groups *= cs.Distinct
		} else {
			groups *= 100
		}
	}
	if groups > card {
		groups = card
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// maskString renders a table bitmask for diagnostics.
func (e *estimator) maskString(mask uint64) string {
	var parts []string
	for i := range e.q.Tables {
		if mask&(1<<uint(i)) != 0 {
			parts = append(parts, e.q.Tables[i].Alias)
		}
	}
	return strings.Join(parts, "⋈")
}

// popcount returns the number of tables in the mask.
func popcount(mask uint64) int { return bits.OnesCount64(mask) }

// maskError formats a "no plan" diagnostic.
func maskError(e *estimator, mask uint64) error {
	return fmt.Errorf("optimizer: no plan found for subset %s", e.maskString(mask))
}
