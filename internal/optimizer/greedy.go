package optimizer

import "repro/internal/expr"

// This file implements the statistics-free greedy join-ordering mode, after
// the clause-based planner of janus-datalog ("when statistics are
// unnecessary"): join ORDER is chosen from the query's syntax alone —
// connectivity to the already-joined prefix plus a visible-selectivity score
// per table — in O(n·k) candidate offers instead of DP's exponential sweep.
// Physical operator choice along the chosen chain still runs through
// joinCandidates and the cost model, so validity ranges, CHECK placement and
// every downstream POP mechanism work unchanged; only the order search is
// statistics-free.

// JoinOrder selects the join-ordering algorithm an Optimize call uses.
type JoinOrder uint8

const (
	// JoinOrderAuto is the default policy: exhaustive left-deep DP up to
	// GreedyThreshold tables, cardinality-greedy chaining beyond it.
	JoinOrderAuto JoinOrder = iota
	// JoinOrderGreedy always uses the statistics-free greedy chain: the join
	// order is derived from predicate syntax only (connectivity and visible
	// selectivity), never from cardinality estimates. Physical operators are
	// still costed, so plans keep their validity ranges.
	JoinOrderGreedy
)

// visibleWeight scores one local predicate by its syntax alone — the
// "visible selectivity" heuristic: an equality against a known value is
// presumed most selective, a range comparison moderately so, and anything
// else (LIKE, column-to-column, disjunctions) weakly so. Parameter markers
// count as known values: the binding exists at run time even though the
// planner never sees it.
func visibleWeight(p expr.Expr) int {
	c, ok := p.(*expr.Cmp)
	if !ok {
		return 1
	}
	valued := func(e expr.Expr) bool {
		switch e.(type) {
		case *expr.Const, *expr.Param:
			return true
		}
		return false
	}
	if !valued(c.L) && !valued(c.R) {
		return 1
	}
	switch c.Op {
	case expr.EQ:
		return 4
	case expr.LT, expr.LE, expr.GT, expr.GE:
		return 2
	default:
		return 1 // NE barely filters
	}
}

// visibleScores computes each table's visible-selectivity score: the sum of
// visibleWeight over its local predicates. No statistics are consulted.
func (pl *planner) visibleScores() []int {
	score := make([]int, len(pl.q.Tables))
	for ti := range pl.q.Tables {
		for _, p := range pl.facts.local[ti] {
			score[ti] += visibleWeight(p)
		}
	}
	return score
}

// enumerateGreedyVisible folds tables into a left-deep chain using only
// syntactic signals. The seed is the most visibly-filtered table; each step
// prefers tables connected to the prefix by join predicates (cartesian
// products only when unavoidable), ranked by 8·connectivity + visible score
// so an extra join edge outweighs any plausible filter advantage. All ties
// break toward the lower table index, which makes the order — and therefore
// the plan — deterministic across runs.
func (pl *planner) enumerateGreedyVisible(full uint64) error {
	n := len(pl.q.Tables)
	score := pl.visibleScores()
	start := 0
	for ti := 1; ti < n; ti++ {
		if score[ti] > score[start] {
			start = ti
		}
	}
	joined := uint64(1) << uint(start)
	for joined != full {
		next, bestStep, connectedFound := -1, -1, false
		for ti := 0; ti < n; ti++ {
			bit := uint64(1) << uint(ti)
			if joined&bit != 0 {
				continue
			}
			conn := pl.facts.countJoinPreds(joined, ti)
			if connectedFound && conn == 0 {
				continue // defer cartesian products unless unavoidable
			}
			step := 8*conn + score[ti]
			if conn > 0 && !connectedFound {
				// First connected candidate beats any cartesian one.
				next, bestStep, connectedFound = ti, step, true
				continue
			}
			if step > bestStep {
				next, bestStep = ti, step
			}
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
