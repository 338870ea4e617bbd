package optimizer

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/types"
)

// Memo carries one statement's dynamic-programming plan groups from one
// Optimize call to the next, making re-optimization incremental: a call
// copies a table subset's group from the previous call instead of
// enumerating it again whenever nothing the group depends on has changed.
// Feedback changes only the subsets whose estimate it corrects, and a new
// temporary materialized view only the subsets it matches; the rest of the
// plan space is reused as it was. Plans, estimates, validity ranges and
// candidate counts are bit-identical to a call without a memo.
//
// A group's contents are a deterministic function of the query, the
// parameter bindings, the plan-shaping settings (memoKey), and, per subset,
// the estimated cardinality, the matching temp MV and — where one matches —
// ForceMVReuse. Feedback, temp MVs, the uncertainty penalty and the forced
// MV reuse of POP's last attempt reach plans only through those per-subset
// inputs. A subset's group is therefore reused only when the subset and all
// its non-empty subsets saw the same inputs in the previous call; a setting,
// query or binding change discards the memo. Reused plans are never
// mutated: validity narrowing touches only the group being built, and the
// post-passes (finish, parallelize, checkpoint placement) clone before they
// rewrite.
//
// Only the DP path (base access paths plus exhaustive enumeration) reads
// and writes the memo; the greedy join orders ignore it. The zero value is
// an empty memo. Like Optimizer, a Memo is not safe for concurrent use.
type Memo struct {
	key    memoKey
	params []types.Datum
	tabs   []*catalog.Table

	// best is the previous call's plan groups; groups (indexed by subset
	// mask) what each was built from, nil before the first call. next is
	// the call in flight's record, swapped with groups when it ends.
	best   map[uint64][]*Plan
	groups []memoGroup
	next   []memoGroup
}

// memoKey snapshots everything that shapes plans besides the per-subset
// inputs memoGroup records.
type memoKey struct {
	cat       *catalog.Catalog
	q         *logical.Query
	model     CostModel
	disable   [5]bool
	validity  bool
	order     JoinOrder
	threshold int
	ns        string
}

// memoGroup records the inputs one subset's plan group was built from. A
// DP call records every non-empty subset of its tables.
type memoGroup struct {
	card       float64          // estimated cardinality, compared bit for bit
	view       *catalog.MatView // matching temp MV, nil if none
	force      bool             // ForceMVReuse, recorded only when view != nil
	candidates int              // candidates the group's enumeration offered
	// same marks a subset that, with all its non-empty subsets, saw the
	// previous call's inputs unchanged; its group was carried over.
	same bool
}

func (o *Optimizer) memoKey(q *logical.Query) memoKey {
	return memoKey{
		cat:   o.Cat,
		q:     q,
		model: o.Model,
		disable: [5]bool{o.DisableHSJN, o.DisableMGJN, o.DisableNLJN,
			o.DisableIndexJoin, o.DisableMVReuse},
		validity:  o.ComputeValidity,
		order:     o.JoinOrder,
		threshold: o.GreedyThreshold,
		ns:        o.MVNamespace,
	}
}

// begin readies the memo for a call over q, discarding the previous call's
// groups unless its key, bindings and tables match.
func (m *Memo) begin(o *Optimizer, q *logical.Query, tabs []*catalog.Table) {
	key := o.memoKey(q)
	if m.groups != nil && (key != m.key || !sameDatums(o.ParamBindings, m.params) || !slices.Equal(tabs, m.tabs)) {
		m.groups, m.best = nil, nil
	}
	m.key = key
	m.params = append(m.params[:0], o.ParamBindings...)
	m.tabs = append(m.tabs[:0], tabs...)
	size := 1 << uint(len(tabs))
	if cap(m.next) < size {
		m.next = make([]memoGroup, size)
	}
	m.next = m.next[:size]
	clear(m.next)
}

// end makes the call's plan groups the ones the next call may reuse.
func (m *Memo) end(best map[uint64][]*Plan) {
	m.best = best
	m.groups, m.next = m.next, m.groups
}

// carry records subset mask's inputs for the next call and, when the subset
// and all its non-empty subsets are unchanged since the previous call,
// copies the previous call's group into this one and reports true.
func (pl *planner) carry(mask uint64, view *catalog.MatView) bool {
	m := pl.memo
	if m == nil {
		return false
	}
	card := pl.groupCard(mask)
	g := &m.next[mask]
	*g = memoGroup{card: card, view: view, force: view != nil && pl.opt.ForceMVReuse}
	if m.groups == nil {
		return false
	}
	prev := &m.groups[mask]
	if math.Float64bits(prev.card) != math.Float64bits(card) || prev.view != view || prev.force != g.force {
		return false
	}
	// Subsets come earlier in DP order, so each S∖{t} is already decided;
	// requiring those to be carried closes the check over every subset.
	for r := mask; r != 0; r &= r - 1 {
		if sub := mask &^ (r & -r); sub != 0 && !m.next[sub].same {
			return false
		}
	}
	g.same = true
	g.candidates = prev.candidates
	pl.best[mask] = m.best[mask]
	pl.candidates += prev.candidates
	pl.reused += prev.candidates
	return true
}

// built records the candidates the enumeration of subset mask offered since
// the count stood at before.
func (pl *planner) built(mask uint64, before int) {
	if pl.memo != nil {
		pl.memo.next[mask].candidates = pl.candidates - before
	}
}

// groupCard returns the estimate the subset's plans carry: the filtered
// base cardinality for a single table, the join estimate otherwise.
func (pl *planner) groupCard(mask uint64) float64 {
	if mask&(mask-1) == 0 {
		return pl.est.filteredBaseCard(bits.TrailingZeros64(mask))
	}
	return pl.est.SubsetCard(mask)
}

// sameDatums reports whether two binding lists are identical value for
// value, floats down to the sign of zero.
func sameDatums(a, b []types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
		if a[i].Kind() == types.KindFloat && math.Signbit(a[i].Float()) != math.Signbit(b[i].Float()) {
			return false
		}
	}
	return true
}
