package optimizer

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/stats"
	"repro/internal/types"
)

// Optimizer is the cost-based query optimizer. The zero value is not usable;
// construct with New. The Disable* knobs reproduce the paper's experimental
// setups (e.g. Figure 12 disables hash joins to generate many SORT
// materialization points).
type Optimizer struct {
	Cat      *catalog.Catalog
	Feedback *stats.Feedback
	Model    CostModel

	DisableHSJN      bool
	DisableMGJN      bool
	DisableNLJN      bool
	DisableIndexJoin bool
	DisableMVReuse   bool

	// ForceMVReuse makes matching temporary materialized views effectively
	// free, so the optimizer always reuses them. The POP runner enables it on
	// the final permitted re-optimization to guarantee forward progress
	// (paper §7 "Ensuring Termination": "forcing the use of intermediate
	// results after several attempts").
	ForceMVReuse bool

	// MVNamespace scopes temp-MV lookups to one statement: views are matched
	// under key MVNamespace+signature, so concurrent statements sharing a
	// catalog never see each other's intermediate results.
	MVNamespace string

	// RobustnessBonus implements §7 "Checking Opportunities": a relative
	// cost handicap (e.g. 0.2 = +20%) applied to operators that offer fewer
	// re-optimization opportunities — hash joins and index nested-loop
	// joins — so that in volatile environments the optimizer prefers
	// sort-merge plans, whose materialization points are natural low-risk
	// checkpoints. Synced into the cost model at Optimize time.
	RobustnessBonus float64

	// UncertaintyPenalty implements §7 "Considering Uncertainty during
	// Re-optimization": during a re-optimization (feedback cache non-empty),
	// cardinality estimates that are NOT backed by an actual observation are
	// inflated by this factor (e.g. 1.5), penalizing plans built on
	// still-uncertain estimates relative to plans whose inputs were measured.
	UncertaintyPenalty float64

	// ComputeValidity enables the §2.2 sensitivity analysis during pruning.
	ComputeValidity bool

	// GreedyThreshold is the table count beyond which exhaustive DP yields
	// to greedy left-deep enumeration.
	GreedyThreshold int

	// JoinOrder selects the join-ordering algorithm (see greedy.go). The
	// default, JoinOrderAuto, is DP with a greedy fallback past
	// GreedyThreshold; JoinOrderGreedy forces the statistics-free greedy
	// chain regardless of table count.
	JoinOrder JoinOrder

	// ParamBindings, when non-empty, binds the query's parameter markers to
	// these values for estimation only: the estimator sees `col <= 5` where
	// the query says `col <= ?0`, so cardinalities come from histograms
	// instead of default selectivities. The emitted plan still carries the
	// markers (marker predicates are never sargable, so plan shape and
	// expressions are binding-independent) and remains executable under any
	// future binding — the property the plan cache relies on.
	ParamBindings []types.Datum

	// Memo, when non-nil, carries the DP plan groups across Optimize calls
	// for the same statement (see Memo): a re-optimization reuses every
	// subset whose inputs are unchanged. Nil enumerates everything afresh.
	Memo *Memo

	// EnumeratedCandidates is set by each Optimize call to the size of the
	// plan space the enumeration covered: the candidates it costed plus
	// those carried over from the Memo — the measure of optimization work a
	// plan-cache hit avoids. ReusedCandidates is the carried-over part. Like
	// the rest of the struct they are not safe for concurrent Optimize calls
	// on one Optimizer.
	EnumeratedCandidates int
	ReusedCandidates     int

	// DOPAdvisor, when non-nil, is consulted for the DOP recorded on each
	// exchange the parallelize post-pass places: given the configured worker
	// count it returns the width to plan for (clamped to [1, workers]). The
	// server's scheduler supplies one that reflects current pool pressure, so
	// heavily contended moments plan narrower exchanges up front instead of
	// discovering the clamp at execution time. Plan *shape* decisions still
	// use the configured worker count — shapes stay binding- and
	// load-independent, which the plan cache relies on.
	DOPAdvisor func(workers int) int
}

// New returns an optimizer with default cost parameters and validity-range
// computation enabled.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{
		Cat:             cat,
		Model:           CostModel{Params: DefaultCostParams()},
		ComputeValidity: true,
		GreedyThreshold: 12,
	}
}

// planner carries the per-query enumeration state.
type planner struct {
	opt   *Optimizer
	q     *logical.Query
	facts *queryFacts // derived from q, the query the plans are built for
	tabs  []*catalog.Table
	est   *estimator
	// best holds each table subset's best plans, one per output order,
	// sorted by order key (-1 = unordered comes first). Visiting a group in
	// slice order keeps every cost tie-break, candidate generation order and
	// validity narrowing the same from run to run.
	best map[uint64][]*Plan

	// candidates counts addCandidate offers plus the offers of groups
	// carried over from memo (see EnumeratedCandidates); reused counts the
	// latter. memo is nil off the DP path.
	candidates int
	reused     int
	memo       *Memo
}

// Optimize compiles the query into the cheapest physical plan, computing
// validity ranges on plan edges along the way.
func (o *Optimizer) Optimize(q *logical.Query) (*Plan, error) {
	o.ReusedCandidates = 0
	tabs := make([]*catalog.Table, len(q.Tables))
	for i, tr := range q.Tables {
		t, err := o.Cat.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		tabs[i] = t
	}
	// Estimation runs against the bound query when parameter bindings are
	// supplied; plan construction always uses the marker query. The two are
	// structurally identical (same tables, same global-id layout), so masks
	// and column ids transfer directly. Without bindings both share one set
	// of facts.
	facts := newQueryFacts(q)
	estFacts := facts
	if estQ := logical.BindParams(q, o.ParamBindings); estQ != q {
		estFacts = newQueryFacts(estQ)
	}
	pl := &planner{
		opt:   o,
		q:     q,
		facts: facts,
		tabs:  tabs,
		est:   newEstimator(estFacts, tabs, o.Feedback),
		best:  make(map[uint64][]*Plan),
	}
	pl.est.uncertainty = o.UncertaintyPenalty
	o.Model.RobustnessBonus = o.RobustnessBonus
	n := len(tabs)
	full := uint64(1)<<uint(n) - 1
	greedy := n > 1 && (o.JoinOrder == JoinOrderGreedy || n > o.GreedyThreshold)
	if o.Memo != nil && !greedy {
		pl.memo = o.Memo
		pl.memo.begin(o, q, tabs)
	}
	for ti := range tabs {
		pl.planBase(ti)
	}
	if n > 1 {
		switch {
		case o.JoinOrder == JoinOrderGreedy:
			if err := pl.enumerateGreedyVisible(full); err != nil {
				o.EnumeratedCandidates = pl.candidates
				return nil, err
			}
		case n <= o.GreedyThreshold:
			pl.enumerateDP(full)
		default:
			if err := pl.enumerateGreedy(full); err != nil {
				o.EnumeratedCandidates = pl.candidates
				return nil, err
			}
		}
	}
	if pl.memo != nil {
		pl.memo.end(pl.best)
	}
	o.EnumeratedCandidates, o.ReusedCandidates = pl.candidates, pl.reused
	join := pl.bestOf(full)
	if join == nil {
		return nil, maskError(pl.est, full)
	}
	plan, err := pl.finish(join)
	if err != nil {
		return nil, err
	}
	if o.Model.Params.Workers > 1 {
		plan = o.parallelize(plan, false)
	}
	return plan, nil
}

// parallelize is the DOP-aware post-pass: with Workers > 1 it rewrites the
// chosen serial plan, fanning eligible fragments out across workers behind
// exchange operators. An eligible hash join becomes
// GATHER(HSJN(REPART(probe), REPART(build))) — a partitioned join whose build
// and probe phases both run at DOP — and eligible bare scans feeding
// order-insensitive consumers are wrapped in a plain GATHER. needOrder marks
// subtrees whose output order a parent consumes (merge-join inputs, orders
// inherited through a hash join's probe side); a gather merges worker streams
// in arrival order, so ordered edges are never parallelized.
func (o *Optimizer) parallelize(p *Plan, needOrder bool) *Plan {
	if len(p.Children) == 0 {
		return p
	}
	n := CloneNode(p)
	switch p.Op {
	case OpHSJN:
		if !needOrder && o.parallelJoinEligible(p) {
			return o.parallelJoin(p)
		}
		n.Children[0] = o.maybeGather(o.parallelize(p.Children[0], needOrder), needOrder)
		n.Children[1] = o.maybeGather(o.parallelize(p.Children[1], false), false)
	case OpMGJN:
		n.Children[0] = o.parallelize(p.Children[0], true)
		n.Children[1] = o.parallelize(p.Children[1], true)
	case OpNLJN:
		// The inner is rescanned (naive) or index-probed per outer row; only
		// the outer subtree is eligible.
		n.Children[0] = o.maybeGather(o.parallelize(p.Children[0], needOrder), needOrder)
	case OpSort, OpTemp, OpHashAgg, OpProject:
		// These consume their input in any order.
		for i := range n.Children {
			n.Children[i] = o.maybeGather(o.parallelize(p.Children[i], false), false)
		}
	default:
		for i := range n.Children {
			n.Children[i] = o.parallelize(p.Children[i], needOrder)
		}
	}
	o.Model.finishCosting(n)
	return n
}

// partitionableScan reports whether the executor can split this leaf into
// disjoint worker morsels. Hash lookups are excluded: a point probe has no
// stream to split.
func partitionableScan(p *Plan) bool {
	switch p.Op {
	case OpTableScan, OpIndexScan, OpMVScan:
		return true
	default:
		return false
	}
}

// maybeGather wraps a partitionable scan in a GATHER exchange when the
// parallel speedup outweighs the exchange overhead.
func (o *Optimizer) maybeGather(c *Plan, needOrder bool) *Plan {
	if needOrder || !partitionableScan(c) || !o.exchangePays(c.Cost, c.Card, 1) {
		return c
	}
	return o.wrapExchange(ExGather, c)
}

// parallelJoinEligible requires both inputs to be partitionable scans — the
// fragment the partitioned-join runtime knows how to split — and the join's
// subtree cost to amortize three exchanges (two repartitions, one gather).
func (o *Optimizer) parallelJoinEligible(p *Plan) bool {
	return len(p.EquiLeft) > 0 &&
		partitionableScan(p.Children[0]) && partitionableScan(p.Children[1]) &&
		o.exchangePays(p.Cost, p.Children[0].Card+p.Children[1].Card+p.Card, 3)
}

// exchangePays compares the work a parallel fragment saves, cost·(1-1/W),
// against the exchange overhead for moving rows rows through nExchanges
// exchanges.
func (o *Optimizer) exchangePays(cost, rows float64, nExchanges float64) bool {
	pr := &o.Model.Params
	w := float64(pr.Workers)
	if w <= 1 {
		return false
	}
	return cost*(1-1/w) > nExchanges*pr.ExchangeSetup+rows*pr.ExchangeRow
}

// wrapExchange layers an exchange of the given kind over c. Exchanges are
// cardinality-preserving and order-destroying. The recorded DOP is the
// configured worker count, narrowed by the DOPAdvisor when one is set;
// whether to wrap at all (exchangePays) always uses the configured count so
// plan shapes stay load-independent.
func (o *Optimizer) wrapExchange(kind ExchangeKind, c *Plan) *Plan {
	dop := o.Model.Params.Workers
	if o.DOPAdvisor != nil {
		if a := o.DOPAdvisor(dop); a >= 1 && a < dop {
			dop = a
		}
	}
	x := &Plan{
		Op:       OpExchange,
		ExKind:   kind,
		DOP:      dop,
		Children: []*Plan{c},
		Cols:     c.Cols,
		Card:     c.Card,
		tables:   c.tables,
		ordered:  -1,
	}
	o.Model.finishCosting(x)
	return x
}

// parallelJoin rewrites an eligible hash join into its partitioned form:
// both inputs are repartitioned on the hash of the join key and the join's
// output is gathered back into one stream.
func (o *Optimizer) parallelJoin(p *Plan) *Plan {
	j := CloneNode(p)
	j.Children[0] = o.wrapExchange(ExRepart, p.Children[0])
	j.Children[1] = o.wrapExchange(ExRepart, p.Children[1])
	j.ordered = -1
	o.Model.finishCosting(j)
	return o.wrapExchange(ExGather, j)
}

// addCandidate offers a plan for its subset/order slot, pruning against the
// incumbent and narrowing the winner's validity ranges per §2.2.
func (pl *planner) addCandidate(cand *Plan) {
	pl.candidates++
	group := pl.best[cand.tables]
	// Narrow across order groups too: an ordered plan (e.g. a merge join)
	// and the unordered best are structural alternatives for the same
	// subset, so their cost crossover bounds both plans' edges even though
	// neither prunes the other.
	if cand.ordered != -1 {
		if len(group) > 0 && group[0].ordered == -1 {
			pl.narrowPair(cand, group[0])
		}
	} else {
		for _, inc := range group {
			if inc.ordered != -1 {
				pl.narrowPair(cand, inc)
			}
		}
	}
	i := 0
	for i < len(group) && group[i].ordered < cand.ordered {
		i++
	}
	if i == len(group) || group[i].ordered != cand.ordered {
		group = append(group, nil)
		copy(group[i+1:], group[i:])
		group[i] = cand
		pl.best[cand.tables] = group
		return
	}
	inc := group[i]
	if cand.Cost < inc.Cost {
		pl.narrow(cand, inc)
		group[i] = cand
	} else {
		pl.narrow(inc, cand)
	}
}

// narrowPair narrows the cheaper plan's validity ranges against the
// costlier alternative.
func (pl *planner) narrowPair(a, b *Plan) {
	if a.Cost < b.Cost {
		pl.narrow(a, b)
	} else {
		pl.narrow(b, a)
	}
}

func (pl *planner) narrow(winner, loser *Plan) {
	if !pl.opt.ComputeValidity || len(winner.Children) == 0 || len(loser.Children) == 0 {
		return
	}
	pl.opt.Model.narrowValidity(winner, loser)
}

// bestOf returns the cheapest plan for the subset across all order keys;
// a cost tie goes to the lowest order key.
func (pl *planner) bestOf(mask uint64) *Plan {
	var best *Plan
	for _, p := range pl.best[mask] {
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// orderedOn returns the subset's best plan ordered on global column col, or
// nil.
func (pl *planner) orderedOn(mask uint64, col int) *Plan {
	for _, p := range pl.best[mask] {
		if p.ordered == col {
			return p
		}
	}
	return nil
}

// planBase fills table ti's plan group, carrying it over from the memo when
// its inputs are unchanged.
func (pl *planner) planBase(ti int) {
	mask := uint64(1) << uint(ti)
	view := pl.view(mask)
	if pl.carry(mask, view) {
		return
	}
	before := pl.candidates
	for _, ap := range pl.baseAccessPaths(ti, view) {
		pl.addCandidate(ap)
	}
	pl.built(mask, before)
}

// baseAccessPaths generates the single-table access plans: sequential scan,
// index scans (sargable and order-providing), and — during re-optimization —
// a scan of view, the table's matching temporary materialized view if any.
func (pl *planner) baseAccessPaths(ti int, view *catalog.MatView) []*Plan {
	q, t := pl.q, pl.tabs[ti]
	pr := &pl.opt.Model.Params
	local := pl.facts.local[ti]
	baseRows := t.RowCount()
	fCard := pl.est.filteredBaseCard(ti)
	cols := pl.facts.tableCols(ti)
	mask := uint64(1) << uint(ti)

	var paths []*Plan

	scan := &Plan{
		Op:      OpTableScan,
		Table:   ti,
		Filter:  pl.facts.localAnd[ti],
		Cols:    cols,
		Card:    fCard,
		Cost:    baseRows*pr.ScanRow + baseRows*float64(len(local))*pr.PredEval,
		tables:  mask,
		ordered: -1,
	}
	paths = append(paths, scan)

	for _, ix := range t.BTrees {
		ord := ix.KeyOrdinal()
		keyGID := q.GlobalID(ti, ord)
		lo, hi, loInc, hiInc, used, residual := sargableBounds(local, keyGID)
		// Selectivity of the index-applied portion.
		idxSel := 1.0
		for _, p := range used {
			idxSel *= stats.Selectivity(p, pl.est.lookup())
		}
		matched := baseRows * idxSel
		height := float64(ix.Height())
		cost := height*pr.IndexLevel + matched*pr.FetchRow +
			matched*float64(len(residual))*pr.PredEval
		if len(used) == 0 {
			// Full index scan: provides order, costs a fetch per row.
			cost = baseRows*(pr.FetchRow+0.2) + baseRows*float64(len(residual))*pr.PredEval
		}
		paths = append(paths, &Plan{
			Op:         OpIndexScan,
			Table:      ti,
			IndexOrd:   ord,
			IndexLo:    lo,
			IndexHi:    hi,
			IndexLoInc: loInc,
			IndexHiInc: hiInc,
			Filter:     expr.Conjoin(residual...),
			Cols:       cols,
			Card:       fCard,
			Cost:       cost,
			tables:     mask,
			ordered:    keyGID,
		})
	}

	// Hash-index point lookups: an equality predicate with a constant on a
	// hash-indexed column becomes an O(1) probe plus qualifying fetches.
	for _, ix := range t.Hash {
		keyOrds := ix.KeyOrdinals()
		if len(keyOrds) != 1 {
			continue // composite hash keys are not yet sargable
		}
		ord := keyOrds[0]
		keyGID := q.GlobalID(ti, ord)
		lo, hi, loInc, hiInc, used, residual := sargableBounds(local, keyGID)
		if lo == nil || hi == nil || !loInc || !hiInc {
			continue // hash indexes serve equality only
		}
		if loConst, ok := lo.(*expr.Const); !ok {
			continue
		} else if hiConst, ok2 := hi.(*expr.Const); !ok2 {
			continue
		} else if c, err := loConst.Val.Compare(hiConst.Val); err != nil || c != 0 {
			continue
		}
		idxSel := 1.0
		for _, p := range used {
			idxSel *= stats.Selectivity(p, pl.est.lookup())
		}
		matched := baseRows * idxSel
		paths = append(paths, &Plan{
			Op:         OpHashLookup,
			Table:      ti,
			IndexOrd:   ord,
			IndexLo:    lo,
			IndexHi:    hi,
			IndexLoInc: true,
			IndexHiInc: true,
			Filter:     expr.Conjoin(residual...),
			Cols:       cols,
			Card:       fCard,
			Cost: pr.HashProbeRow + matched*pr.FetchRow +
				matched*float64(len(residual))*pr.PredEval,
			tables:  mask,
			ordered: -1,
		})
	}

	if view != nil {
		paths = append(paths, pl.mvScan(mask, view))
	}
	return paths
}

// matchMV returns an MVSCAN plan if a temporary materialized view matches
// the subset's signature (paper §2.3: intermediate results are offered to
// the optimizer as materialized views and chosen only if they win on cost).
func (pl *planner) matchMV(mask uint64) *Plan {
	if mv := pl.view(mask); mv != nil {
		return pl.mvScan(mask, mv)
	}
	return nil
}

// view returns the temporary materialized view matching the subset's
// signature, or nil.
func (pl *planner) view(mask uint64) *catalog.MatView {
	if pl.opt.DisableMVReuse {
		return nil
	}
	return pl.opt.Cat.View(pl.opt.MVNamespace + pl.est.Signature(mask))
}

// mvScan builds the MVSCAN plan reading view mv for the subset.
func (pl *planner) mvScan(mask uint64, mv *catalog.MatView) *Plan {
	ordered := -1
	if mv.Sorted {
		ordered = mv.OrderedCol
	}
	pr := &pl.opt.Model.Params
	cost := mv.Card * pr.TempRead
	if pl.opt.ForceMVReuse {
		cost = 0 // termination heuristic: the view always wins (§7)
	}
	return &Plan{
		Op:      OpMVScan,
		MV:      mv,
		Cols:    append([]int(nil), mv.Cols...),
		Card:    mv.Card,
		Cost:    cost,
		tables:  mask,
		ordered: ordered,
	}
}

// sargableBounds extracts index bounds for the key column from the local
// predicates: constant comparisons become bounds, everything else stays
// residual.
func sargableBounds(preds []expr.Expr, keyGID int) (lo, hi expr.Expr, loInc, hiInc bool, used, residual []expr.Expr) {
	for _, p := range preds {
		c, ok := p.(*expr.Cmp)
		if !ok {
			residual = append(residual, p)
			continue
		}
		col, isCol := c.L.(*expr.ColRef)
		val, isConst := c.R.(*expr.Const)
		op := c.Op
		if !isCol || !isConst {
			if col2, ok2 := c.R.(*expr.ColRef); ok2 {
				if val2, ok3 := c.L.(*expr.Const); ok3 {
					col, val, op, isCol, isConst = col2, val2, c.Op.Flip(), true, true
				}
			}
		}
		if !isCol || !isConst || col.Pos != keyGID {
			residual = append(residual, p)
			continue
		}
		switch op {
		case expr.EQ:
			lo, hi, loInc, hiInc = &expr.Const{Val: val.Val}, &expr.Const{Val: val.Val}, true, true
			used = append(used, p)
		case expr.LT:
			hi, hiInc = &expr.Const{Val: val.Val}, false
			used = append(used, p)
		case expr.LE:
			hi, hiInc = &expr.Const{Val: val.Val}, true
			used = append(used, p)
		case expr.GT:
			lo, loInc = &expr.Const{Val: val.Val}, false
			used = append(used, p)
		case expr.GE:
			lo, loInc = &expr.Const{Val: val.Val}, true
			used = append(used, p)
		default:
			residual = append(residual, p)
		}
	}
	return lo, hi, loInc, hiInc, used, residual
}

// enumerateDP runs exhaustive left-deep dynamic programming over subsets.
func (pl *planner) enumerateDP(full uint64) {
	n := popcount(full)
	for size := 2; size <= n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if mask&full != mask || popcount(mask) != size {
				continue
			}
			pl.expandSubset(mask)
		}
	}
}

// expandSubset generates join plans for a subset from its left-deep splits
// and offers a matching MV as an alternative — or carries the subset's group
// over from the memo when its inputs are unchanged.
func (pl *planner) expandSubset(mask uint64) {
	view := pl.view(mask)
	if pl.carry(mask, view) {
		return
	}
	before := pl.candidates
	// Bit ti of splits marks a usable split (mask minus ti has plans); of
	// connected, a split with a join predicate across it.
	var splits, connected uint64
	for ti := range pl.q.Tables {
		bit := uint64(1) << uint(ti)
		if mask&bit == 0 {
			continue
		}
		rest := mask &^ bit
		if rest == 0 || len(pl.best[rest]) == 0 {
			continue
		}
		splits |= bit
		if pl.facts.countJoinPreds(rest, ti) > 0 {
			connected |= bit
		}
	}
	if connected != 0 {
		splits = connected // defer cartesian products unless unavoidable
	}
	for ti := range pl.q.Tables {
		if bit := uint64(1) << uint(ti); splits&bit != 0 {
			pl.joinAll(mask&^bit, ti)
		}
	}
	if view != nil {
		pl.addCandidate(pl.mvScan(mask, view))
	}
	pl.built(mask, before)
}

// enumerateGreedy folds tables into a left-deep chain, at each step choosing
// the join that minimizes estimated output cardinality — the standard
// fallback for very wide joins.
func (pl *planner) enumerateGreedy(full uint64) error {
	// Start from the smallest filtered table.
	start, bestCard := -1, math.Inf(1)
	for ti := range pl.q.Tables {
		if c := pl.est.filteredBaseCard(ti); c < bestCard {
			start, bestCard = ti, c
		}
	}
	joined := uint64(1) << uint(start)
	for joined != full {
		next, nextCard, connectedFound := -1, math.Inf(1), false
		for ti := range pl.q.Tables {
			bit := uint64(1) << uint(ti)
			if joined&bit != 0 {
				continue
			}
			conn := pl.facts.countJoinPreds(joined, ti) > 0
			card := pl.est.SubsetCard(joined | bit)
			if conn && !connectedFound {
				// First connected candidate beats any cartesian one.
				next, nextCard, connectedFound = ti, card, true
				continue
			}
			if conn == connectedFound && card < nextCard {
				next, nextCard = ti, card
			}
		}
		if next < 0 {
			return fmt.Errorf("optimizer: greedy enumeration stuck at %s", pl.est.maskString(joined))
		}
		pl.joinAll(joined, next)
		joined |= 1 << uint(next)
		if mv := pl.matchMV(joined); mv != nil {
			pl.addCandidate(mv)
		}
		if len(pl.best[joined]) == 0 {
			return maskError(pl.est, joined)
		}
	}
	return nil
}

// equiPair is one hash/merge-joinable equality between the outer subset and
// the inner table.
type equiPair struct {
	pred     expr.Expr
	outerCol int // global id on the outer side
	innerCol int // global id on the inner (single-table) side
}

func (pl *planner) equiPairs(preds []expr.Expr, rest uint64, ti int) (pairs []equiPair, residual []expr.Expr) {
	for _, p := range preds {
		l, r, ok := expr.EquiJoinColumns(p)
		if !ok {
			residual = append(residual, p)
			continue
		}
		lt, rt := pl.facts.tableOf(l), pl.facts.tableOf(r)
		switch {
		case lt == ti && rest&(1<<uint(rt)) != 0:
			pairs = append(pairs, equiPair{pred: p, outerCol: r, innerCol: l})
		case rt == ti && rest&(1<<uint(lt)) != 0:
			pairs = append(pairs, equiPair{pred: p, outerCol: l, innerCol: r})
		default:
			residual = append(residual, p)
		}
	}
	return pairs, residual
}

// joinSplit holds what every join of the left-deep split rest ⋈ ti shares,
// whichever of rest's plans is the outer: the predicates and their
// conjunctions, the equi-join keys, the output cardinality and the inner
// plans. Building it once per split keeps that work out of the per-outer
// candidate loop.
type joinSplit struct {
	ti      int
	mask    uint64
	outCard float64
	inner   *Plan // cheapest plan for table ti

	joinPred expr.Expr // every join predicate of the split, conjoined
	nonEqui  expr.Expr // the ones no equi pair covers, conjoined

	// Index nested-loop joins, one per equi pair with a B-tree on its
	// inner column.
	indexJoins []indexJoin

	// Hash joins: the equi keys on the outer (probe) and inner (build) side.
	probeKeys, buildKeys []int

	// Merge join on the first equi pair. mergeInner is the inner ordered on
	// its key: a plan for ti already ordered so, else a sort of inner.
	mergeLeft, mergeRight []int
	mergeSort             []SortKey // the outer's sort keys
	mergeInner            *Plan
	mergeFilter           expr.Expr
}

// indexJoin is one index nested-loop join of a split.
type indexJoin struct {
	ord       int     // inner column ordinal the B-tree is on
	height    float64 // B-tree height
	lookupCol int     // outer column probing the index
	filter    expr.Expr
}

// joinAll offers every join of each of rest's plans with table ti.
func (pl *planner) joinAll(rest uint64, ti int) {
	outers := pl.best[rest]
	bit := uint64(1) << uint(ti)
	inner := pl.bestOf(bit)
	if len(outers) == 0 || inner == nil {
		return
	}
	preds := pl.facts.joinPredsBetween(rest, ti)
	pairs, nonEqui := pl.equiPairs(preds, rest, ti)
	sp := &joinSplit{
		ti:       ti,
		mask:     rest | bit,
		outCard:  pl.est.SubsetCard(rest | bit),
		inner:    inner,
		joinPred: expr.Conjoin(preds...),
		nonEqui:  expr.Conjoin(nonEqui...),
	}
	for _, pr := range pairs {
		ord := pr.innerCol - pl.q.Base(ti)
		ix := pl.tabs[ti].BTreeOn(ord)
		if ix == nil {
			continue
		}
		residual := append([]expr.Expr(nil), nonEqui...)
		for _, other := range pairs {
			if other.pred != pr.pred {
				residual = append(residual, other.pred)
			}
		}
		sp.indexJoins = append(sp.indexJoins, indexJoin{
			ord:       ord,
			height:    float64(ix.Height()),
			lookupCol: pr.outerCol,
			filter:    expr.Conjoin(residual...),
		})
	}
	if len(pairs) > 0 {
		sp.probeKeys = make([]int, len(pairs))
		sp.buildKeys = make([]int, len(pairs))
		for i, pr := range pairs {
			sp.probeKeys[i] = pr.outerCol
			sp.buildKeys[i] = pr.innerCol
		}
		pr := pairs[0]
		sp.mergeLeft, sp.mergeRight = sp.probeKeys[:1:1], sp.buildKeys[:1:1]
		sp.mergeSort = []SortKey{{Col: pr.outerCol}}
		if sp.mergeInner = pl.orderedOn(bit, pr.innerCol); sp.mergeInner == nil {
			sp.mergeInner = pl.sorted(inner, []SortKey{{Col: pr.innerCol}})
		}
		residual := append([]expr.Expr(nil), nonEqui...)
		for _, other := range pairs[1:] {
			residual = append(residual, other.pred)
		}
		sp.mergeFilter = expr.Conjoin(residual...)
	}
	for _, outer := range outers {
		pl.joinCandidates(sp, outer)
	}
}

// joinCandidates offers every physical join of outer ⋈ the split's table
// that the knobs allow: naive NLJN, index NLJN, hash join in both build
// directions, and merge join with sort enforcers.
func (pl *planner) joinCandidates(sp *joinSplit, outer *Plan) {
	m := &pl.opt.Model
	inner := sp.inner
	outerInner := concatCols(outer.Cols, inner.Cols) // the naive NLJN's and first HSJN's output
	offer := func(p *Plan) {
		p.tables = sp.mask
		p.Card = sp.outCard
		m.finishCosting(p) // the model applies the robustness handicap
		pl.addCandidate(p)
	}

	// Naive nested-loop join: always applicable (handles non-equi and
	// cartesian joins), rescans the inner per outer row.
	if !pl.opt.DisableNLJN {
		offer(&Plan{
			Op:       OpNLJN,
			Children: []*Plan{outer, inner},
			JoinPred: sp.joinPred,
			Filter:   sp.joinPred,
			Cols:     outerInner,
			ordered:  outer.ordered,
		})
	}

	// Index nested-loop join per indexed equi column.
	if !pl.opt.DisableNLJN && !pl.opt.DisableIndexJoin {
		for i := range sp.indexJoins {
			ij := &sp.indexJoins[i]
			probe := pl.indexProbePlan(sp, ij, outer)
			offer(&Plan{
				Op:        OpNLJN,
				IndexJoin: true,
				LookupCol: ij.lookupCol,
				Children:  []*Plan{outer, probe},
				JoinPred:  sp.joinPred,
				Filter:    ij.filter,
				Cols:      concatCols(outer.Cols, probe.Cols),
				ordered:   outer.ordered,
			})
		}
	}

	// Hash join (requires at least one equality) in both build directions.
	if !pl.opt.DisableHSJN && len(sp.probeKeys) > 0 {
		// Build on the single table, probe with the outer subset.
		offer(&Plan{
			Op:        OpHSJN,
			Children:  []*Plan{outer, inner},
			EquiLeft:  sp.probeKeys,
			EquiRight: sp.buildKeys,
			Filter:    sp.nonEqui,
			Cols:      outerInner,
			ordered:   outer.ordered,
		})
		// Build on the outer subset, probe with the table.
		offer(&Plan{
			Op:        OpHSJN,
			Children:  []*Plan{inner, outer},
			EquiLeft:  sp.buildKeys,
			EquiRight: sp.probeKeys,
			Filter:    sp.nonEqui,
			Cols:      concatCols(inner.Cols, outer.Cols),
			ordered:   inner.ordered,
		})
	}

	// Merge join on the first equi pair, with sort enforcers as needed. An
	// inner plan already ordered on the key (an index scan) avoids its sort.
	if !pl.opt.DisableMGJN && len(sp.probeKeys) > 0 {
		left, right := pl.sorted(outer, sp.mergeSort), sp.mergeInner
		offer(&Plan{
			Op:        OpMGJN,
			Children:  []*Plan{left, right},
			EquiLeft:  sp.mergeLeft,
			EquiRight: sp.mergeRight,
			Filter:    sp.mergeFilter,
			Cols:      concatCols(left.Cols, right.Cols),
			ordered:   sp.mergeLeft[0],
		})
	}
}

// concatCols returns a new slice holding a's column ids followed by b's.
func concatCols(a, b []int) []int {
	out := make([]int, len(a)+len(b))
	copy(out[copy(out, a):], b)
	return out
}

// indexProbePlan builds the parameterized index-probe inner of an index
// NLJN: Card is the expected matches per probe and Cost the per-probe cost.
func (pl *planner) indexProbePlan(sp *joinSplit, ij *indexJoin, outer *Plan) *Plan {
	pr := &pl.opt.Model.Params
	perProbe := sp.outCard / math.Max(outer.Card, 1e-9)
	if perProbe < 1e-6 {
		perProbe = 1e-6
	}
	cost := ij.height*pr.IndexLevel + perProbe*pr.FetchRow +
		perProbe*float64(len(pl.facts.local[sp.ti]))*pr.PredEval
	return &Plan{
		Op:       OpIndexScan,
		Table:    sp.ti,
		IndexOrd: ij.ord,
		Filter:   pl.facts.localAnd[sp.ti],
		Cols:     pl.facts.tableCols(sp.ti),
		Card:     perProbe,
		Cost:     cost,
		tables:   uint64(1) << uint(sp.ti),
		ordered:  -1,
	}
}

// sorted wraps p in a SORT enforcer on keys unless p is already ordered on
// the first key's column.
func (pl *planner) sorted(p *Plan, keys []SortKey) *Plan {
	if p.ordered == keys[0].Col {
		return p
	}
	s := &Plan{
		Op:       OpSort,
		Children: []*Plan{p},
		SortKeys: keys,
		Cols:     p.Cols,
		Card:     p.Card,
		tables:   p.tables,
		ordered:  keys[0].Col,
	}
	pl.opt.Model.finishCosting(s)
	return s
}

// finish layers aggregation, ordering, projection and limit over the join
// plan.
func (pl *planner) finish(join *Plan) (*Plan, error) {
	q := pl.q
	m := &pl.opt.Model
	top := join
	hasAgg := len(q.GroupBy) > 0
	for _, it := range q.Select {
		if it.Agg != logical.AggNone {
			hasAgg = true
		}
	}
	if hasAgg {
		var groupGids []int
		for _, g := range q.GroupBy {
			c, ok := g.(*expr.ColRef)
			if !ok {
				return nil, fmt.Errorf("optimizer: GROUP BY supports only column references, got %s", g)
			}
			groupGids = append(groupGids, c.Pos)
		}
		agg := &Plan{
			Op:       OpHashAgg,
			Children: []*Plan{top},
			GroupBy:  groupGids,
			Items:    q.Select,
			Cols:     pl.outputIDs(len(q.Select)),
			Card:     pl.est.groupCount(groupGids, top.Card),
			tables:   top.tables,
			ordered:  -1,
		}
		m.finishCosting(agg)
		top = agg
	} else {
		proj := &Plan{
			Op:       OpProject,
			Children: []*Plan{top},
			Items:    q.Select,
			Cols:     pl.outputIDs(len(q.Select)),
			Card:     top.Card,
			tables:   top.tables,
			ordered:  -1,
		}
		m.finishCosting(proj)
		top = proj
	}
	if q.Distinct {
		items := make([]logical.SelectItem, len(top.Cols))
		for i, c := range top.Cols {
			items[i] = logical.SelectItem{E: &expr.ColRef{Pos: c}, Name: q.Select[i].Name}
		}
		dedup := &Plan{
			Op:       OpHashAgg,
			Children: []*Plan{top},
			GroupBy:  append([]int(nil), top.Cols...),
			Items:    items,
			Cols:     append([]int(nil), top.Cols...),
			Card:     top.Card, // upper bound; duplicates unknown a priori
			tables:   top.tables,
			ordered:  -1,
		}
		m.finishCosting(dedup)
		top = dedup
	}
	if len(q.OrderBy) > 0 {
		keys, err := pl.orderKeys(top)
		if err != nil {
			return nil, err
		}
		srt := &Plan{
			Op:       OpSort,
			Children: []*Plan{top},
			SortKeys: keys,
			Cols:     top.Cols,
			Card:     top.Card,
			tables:   top.tables,
			ordered:  keys[0].Col,
		}
		m.finishCosting(srt)
		top = srt
	}
	if q.Limit > 0 {
		top.Limit = q.Limit
	}
	return top, nil
}

// outputIDs allocates synthetic global ids for the n output columns of the
// final aggregation/projection, placed above the base-column id space.
func (pl *planner) outputIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = pl.q.NumColumns() + i
	}
	return out
}

// orderKeys maps ORDER BY items onto the output columns by matching each
// item against the select list.
func (pl *planner) orderKeys(top *Plan) ([]SortKey, error) {
	q := pl.q
	keys := make([]SortKey, 0, len(q.OrderBy))
	for _, o := range q.OrderBy {
		found := -1
		for j, it := range q.Select {
			if it.E != nil && it.Agg == logical.AggNone && it.E.String() == o.E.String() {
				found = j
				break
			}
			if c, ok := o.E.(*expr.ColRef); ok && it.Name != "" && it.Name == c.Name {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("optimizer: ORDER BY key %s must appear in the select list", o.E)
		}
		keys = append(keys, SortKey{Col: q.NumColumns() + found, Desc: o.Desc})
	}
	return keys, nil
}
