package optimizer

import "math"

// This file implements the paper's §2.2: validity-range computation through
// plan sensitivity analysis, embedded in the optimizer's pruning phase.
//
// When plan Popt prunes a structurally equivalent alternative Palt (same
// joined tables, same child partitions, different root operator), we search
// for the input cardinality at which their cost functions cross. Beyond that
// crossover Popt is provably suboptimal with respect to the optimizer's own
// cost model, so the crossover narrows the validity range of Popt's input
// edge. The search is the modified Newton-Raphson of Figure 5 — cost
// functions here are code, not formulas, and are not even continuous (the
// hash-join spill cliff), so the method caps iterations, detects divergence
// and jumps, and stops on the first observed cost inversion, which keeps the
// resulting bound conservative: stopping early can only widen the range,
// never produce a false suboptimality bound.

// validityIterations caps the Newton-Raphson iterations (paper: "merely
// three iterations ... results in finding a good validity range").
const validityIterations = 3

// narrowValidity updates popt's per-edge validity ranges given that it just
// pruned palt. Edges are matched between the plans by the set of base tables
// feeding them; edges read partially (the inner of an index nested-loop
// join, which sees only matching rows) are skipped — checking them would not
// observe the child's true cardinality.
func (m *CostModel) narrowValidity(popt, palt *Plan) {
	for k, ck := range popt.Children {
		if !edgeCheckable(popt, k) {
			continue
		}
		j := matchingEdge(palt, ck.tables)
		if j < 0 || !edgeCheckable(palt, j) {
			continue
		}
		// Both crossover searches evaluate both plans at the estimate before
		// stepping; evaluate there once and share the values.
		fOpt := newEdgeCost(m, popt, k)
		fAlt := newEdgeCost(m, palt, j)
		est := math.Max(popt.Children[k].Card, 1e-6)
		costOptEst, costAltEst := fOpt.at(est), fAlt.at(est)
		cur := popt.EdgeValidity(k)
		next := cur
		if ub := upperCrossover(&fOpt, &fAlt, est, costOptEst, costAltEst); ub < next.Hi {
			next.Hi = ub
		}
		if lb := lowerCrossover(&fOpt, &fAlt, est, costOptEst, costAltEst); lb > next.Lo {
			next.Lo = lb
		}
		if next != cur {
			popt.SetEdgeValidity(k, next)
		}
	}
}

// edgeCost is f(card) = total cost of plan p with child edge k's cardinality
// overridden to card, every other input held at its estimate. It is a value
// with fixed-size arrays rather than a closure over slices so the crossover
// searches run without heap allocation.
type edgeCost struct {
	m      *CostModel
	p      *Plan
	k      int
	cc, cs [2]float64
}

func newEdgeCost(m *CostModel, p *Plan, k int) edgeCost {
	e := edgeCost{m: m, p: p, k: k}
	e.cc, e.cs = childEstimates(p)
	return e
}

// at evaluates the cost with the edge's cardinality set to card.
func (e *edgeCost) at(card float64) float64 {
	n := len(e.p.Children)
	e.cc[e.k] = card
	return e.m.Recost(e.p, e.cc[:n], e.cs[:n])
}

// upperCrossover / lowerCrossover method forms evaluate both plans at the
// estimate and run one search; narrowValidity shares those evaluations
// between both directions instead.
func (m *CostModel) upperCrossover(popt *Plan, k int, palt *Plan, j int) float64 {
	fOpt, fAlt := newEdgeCost(m, popt, k), newEdgeCost(m, palt, j)
	est := math.Max(popt.Children[k].Card, 1e-6)
	return upperCrossover(&fOpt, &fAlt, est, fOpt.at(est), fAlt.at(est))
}

func (m *CostModel) lowerCrossover(popt *Plan, k int, palt *Plan, j int) float64 {
	fOpt, fAlt := newEdgeCost(m, popt, k), newEdgeCost(m, palt, j)
	est := math.Max(popt.Children[k].Card, 1e-6)
	return lowerCrossover(&fOpt, &fAlt, est, fOpt.at(est), fAlt.at(est))
}

// edgeCheckable reports whether child edge k of p carries the child's full
// output cardinality (so a CHECK on it observes the true count and the cost
// function responds to it directly).
func edgeCheckable(p *Plan, k int) bool {
	if p.Op == OpNLJN && p.IndexJoin && k == 1 {
		return false // parameterized index probe: partial read
	}
	if p.Op == OpNLJN && !p.IndexJoin && k == 1 {
		return false // rescanned inner: counter counts every rescan
	}
	return true
}

// matchingEdge returns the index of p's child whose table set equals mask,
// or -1.
func matchingEdge(p *Plan, mask uint64) int {
	for i, c := range p.Children {
		if c.tables == mask {
			return i
		}
	}
	return -1
}

// upperCrossover searches upward from the estimate for the cardinality at
// which the alternative becomes cheaper than the pruning winner. fOpt and
// fAlt evaluate the two plans' costs as a function of the shared edge's
// cardinality; costOptEst and costAltEst are their (caller-computed) values
// at the estimate. It returns +Inf if no crossover is found within the
// iteration budget (conservative: the edge stays unbounded above with
// respect to this alternative).
func upperCrossover(fOpt, fAlt *edgeCost, est, costOptEst, costAltEst float64) float64 {
	card := est
	costOpt, costAlt := costOptEst, costAltEst
	if costAlt < costOpt {
		// The alternative is already cheaper at the estimate on this edge's
		// axis; the pruning decision came from other terms. No usable bound.
		return math.Inf(1)
	}
	for iter := 0; iter < validityIterations; iter++ {
		currDiff := costAlt - costOpt
		card *= 1.1 // need another point to estimate the gradient (Fig. 5b)
		costOpt, costAlt = fOpt.at(card), fAlt.at(card)
		newDiff := costAlt - costOpt
		if newDiff < 0 {
			return card // cost inversion observed: a provable crossover
		}
		if newDiff > currDiff {
			card *= 10 // diverging: jump (Fig. 5e)
		} else if gap := currDiff - newDiff; gap > 1e-12 {
			card *= 1 + newDiff/(11*gap) // Newton step (Fig. 5f)
		} else {
			card *= 10 // flat difference: probe much further out
		}
		costOpt, costAlt = fOpt.at(card), fAlt.at(card)
		if costAlt < costOpt {
			return card
		}
	}
	return math.Inf(1)
}

// lowerCrossover is the downward mirror of upperCrossover, returning 0 when
// no crossover is found below the estimate.
func lowerCrossover(fOpt, fAlt *edgeCost, est, costOptEst, costAltEst float64) float64 {
	card := est
	costOpt, costAlt := costOptEst, costAltEst
	if costAlt < costOpt {
		return 0
	}
	for iter := 0; iter < validityIterations; iter++ {
		currDiff := costAlt - costOpt
		card *= 0.9
		costOpt, costAlt = fOpt.at(card), fAlt.at(card)
		newDiff := costAlt - costOpt
		if newDiff < 0 {
			return card
		}
		if newDiff > currDiff {
			card /= 10
		} else if gap := currDiff - newDiff; gap > 1e-12 {
			card /= 1 + newDiff/(11*gap)
		} else {
			card /= 10
		}
		if card < 1e-9 {
			return 0
		}
		costOpt, costAlt = fOpt.at(card), fAlt.at(card)
		if costAlt < costOpt {
			return card
		}
	}
	return 0
}
