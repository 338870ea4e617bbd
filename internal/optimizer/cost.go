package optimizer

import "math"

// CostParams are the work-unit weights of the cost model. The executor
// charges the same weights per actual row processed, so a plan's simulated
// execution time equals its modeled cost evaluated at the actual
// cardinalities — which makes the figures deterministic and machine
// independent (DESIGN.md §1).
type CostParams struct {
	ScanRow      float64 // sequential heap row
	PredEval     float64 // one predicate evaluation
	HashBuildRow float64 // insert a row into a hash table
	HashProbeRow float64 // probe a hash table
	OutputRow    float64 // construct an output tuple
	SortCmpRow   float64 // per row × log2(n) comparison work
	TempWrite    float64 // write a row to a temp
	TempRead     float64 // read a row back from a temp
	IndexLevel   float64 // touch one B+tree level
	FetchRow     float64 // random heap fetch via rid
	MergeRow     float64 // advance a merge-join input
	CheckRow     float64 // CHECK counter bump (negligible, paper §1)
	SpillRow     float64 // write+read a row in an extra hash-join stage

	// MemoryBytes is the hash-join build memory budget. Builds larger than
	// this run in multiple stages, spilling both inputs — the cost cliff the
	// paper cites ("a 10 percent increase in ORDERS may turn a two-stage
	// hash join into a three-stage hash join").
	MemoryBytes float64

	// ReoptInvoke is the fixed cost of one optimizer re-invocation
	// (context switching; paper Fig. 12 shows it as a tiny gap).
	ReoptInvoke float64

	// Workers is the degree of parallelism available to the executor. At 1
	// (the default) the optimizer emits purely serial plans, bit-for-bit
	// identical to plans produced before exchanges existed.
	Workers int

	// ExchangeRow is the per-row cost of moving a row through an exchange:
	// the partition hash plus the hand-off between producer and consumer.
	// Charged once per row per exchange regardless of the executed DOP, so
	// work totals stay deterministic.
	ExchangeRow float64

	// ExchangeSetup is the fixed cost of instantiating one exchange operator
	// (spinning up workers and partition buffers).
	ExchangeSetup float64
}

// DefaultCostParams returns the calibrated default weights.
func DefaultCostParams() CostParams {
	return CostParams{
		ScanRow:      1.0,
		PredEval:     0.15,
		HashBuildRow: 2.0,
		HashProbeRow: 1.2,
		OutputRow:    0.5,
		SortCmpRow:   0.35,
		TempWrite:    1.0,
		TempRead:     0.5,
		IndexLevel:   2.0,
		FetchRow:     4.0,
		MergeRow:     0.8,
		CheckRow:     0.02,
		SpillRow:     2.5,
		MemoryBytes:  1 << 20,
		ReoptInvoke:  500,

		Workers:       1,
		ExchangeRow:   0.05,
		ExchangeSetup: 50,
	}
}

// CostModel evaluates operator cost formulas. The formulas are functions of
// the child edge cardinalities, which is exactly what the validity-range
// sensitivity analysis re-evaluates with perturbed cardinalities (paper
// §2.2: "the only overhead is the repeated evaluation of the cost functions
// for operators oopt and oalt with alternate cardinalities").
type CostModel struct {
	Params CostParams

	// RobustnessBonus is the §7 "Checking Opportunities" handicap: the local
	// work of operators offering few re-optimization opportunities (hash
	// joins, index nested-loop joins) is scaled by 1+RobustnessBonus. Living
	// inside the model keeps the validity-range sensitivity analysis
	// consistent with plan selection.
	RobustnessBonus float64
}

// handicap returns the robustness multiplier for an operator's local work.
func (m *CostModel) handicap(p *Plan) float64 {
	if m.RobustnessBonus <= 0 {
		return 1
	}
	if p.Op == OpHSJN || (p.Op == OpNLJN && p.IndexJoin) {
		return 1 + m.RobustnessBonus
	}
	return 1
}

// hashStages returns the number of passes a hash join build of the given
// size needs under the memory budget.
func (m *CostModel) hashStages(buildRows, rowWidth float64) float64 {
	bytes := buildRows * rowWidth
	if bytes <= m.Params.MemoryBytes || m.Params.MemoryBytes <= 0 {
		return 1
	}
	return math.Ceil(bytes / m.Params.MemoryBytes)
}

// rowWidthOf estimates the byte width of a plan's output rows from its
// column count (widths are tracked coarsely; 12 bytes per column).
func rowWidthOf(p *Plan) float64 {
	w := float64(len(p.Cols)) * 12
	if w <= 0 {
		w = 12
	}
	return w
}

// Recost computes the total (cumulative) cost of plan node p given its child
// output cardinalities cc and child subtree costs cs. Output cardinality is
// scaled from the node's estimate in proportion to the perturbed inputs so
// downstream terms stay consistent. Leaf operators return their precomputed
// cost.
func (m *CostModel) Recost(p *Plan, cc, cs []float64) float64 {
	pr := &m.Params
	switch p.Op {
	case OpTableScan, OpIndexScan, OpHashLookup, OpMVScan:
		return p.Cost

	case OpNLJN:
		outer, inner := cc[0], cc[1]
		outerCost, innerCost := cs[0], cs[1]
		probes := math.Max(outer, 0)
		out := scaleCardOf(p, cc)
		if p.IndexJoin {
			// Inner child is a parameterized index probe: its Cost is the
			// per-probe cost and its Card the per-probe match count.
			return outerCost + (probes*innerCost+out*pr.OutputRow)*m.handicap(p)
		}
		// Naive NLJN rescans the inner subtree once per outer row and
		// evaluates the join predicate against every pair.
		rescans := math.Max(probes, 1)
		return outerCost + rescans*innerCost + probes*inner*pr.PredEval + out*pr.OutputRow

	case OpHSJN:
		probe, build := cc[0], cc[1]
		probeCost, buildCost := cs[0], cs[1]
		stages := m.hashStages(build, rowWidthOf(p.Children[1]))
		out := scaleCardOf(p, cc)
		own := build*pr.HashBuildRow + probe*pr.HashProbeRow + out*pr.OutputRow
		if stages > 1 {
			own += (stages - 1) * (build + probe) * pr.SpillRow
		}
		return probeCost + buildCost + own*m.handicap(p)

	case OpMGJN:
		l, r := cc[0], cc[1]
		out := scaleCardOf(p, cc)
		return cs[0] + cs[1] + (l+r)*pr.MergeRow + out*pr.OutputRow

	case OpSort:
		n := cc[0]
		return cs[0] + n*math.Log2(n+2)*pr.SortCmpRow + n*pr.TempWrite

	case OpTemp:
		n := cc[0]
		return cs[0] + n*(pr.TempWrite+pr.TempRead)

	case OpHashAgg:
		n := cc[0]
		groups := scaleCardOf(p, cc)
		return cs[0] + n*pr.HashBuildRow + groups*pr.OutputRow

	case OpProject:
		n := cc[0]
		filterTerms := 0.0
		if p.Filter != nil {
			filterTerms = n * pr.PredEval
		}
		return cs[0] + n*pr.OutputRow + filterTerms

	case OpCheck:
		n := cc[0]
		return cs[0] + n*pr.CheckRow

	case OpExchange:
		// The charge models the data movement, not the concurrency: the same
		// rows cross the exchange at any DOP, so the simulated work total is
		// DOP-independent (wall-clock is what parallelism buys).
		n := cc[0]
		return cs[0] + pr.ExchangeSetup + n*pr.ExchangeRow

	default:
		return cs[0]
	}
}

// scaleCardOf scales the estimated output cardinality in proportion to the
// perturbed input cardinalities, so cost terms that depend on output size
// respond to the sensitivity analysis. The cardinalities the estimate was
// computed from are read directly from the node's children.
func scaleCardOf(p *Plan, cc []float64) float64 {
	out := p.Card
	for i := range cc {
		if i < len(p.Children) && p.Children[i].Card > 0 {
			out *= cc[i] / p.Children[i].Card
		}
	}
	if math.IsNaN(out) || out < 0 {
		return p.Card
	}
	return out
}

// childEstimates returns p's child cardinalities and subtree costs. Plans
// have at most two children, so the values fit fixed arrays that stay on the
// caller's stack: the validity-range search evaluates Recost thousands of
// times per optimization.
func childEstimates(p *Plan) (cc, cs [2]float64) {
	for i, c := range p.Children {
		cc[i], cs[i] = c.Card, c.Cost
	}
	return cc, cs
}

// finishCosting sets p.Cost from its children using the model.
func (m *CostModel) finishCosting(p *Plan) {
	n := len(p.Children)
	if n == 0 {
		return
	}
	cc, cs := childEstimates(p)
	p.Cost = m.Recost(p, cc[:n], cs[:n])
}

// CostWithEdgeCard recomputes the total cost of p with child edge k's
// cardinality overridden to c, holding every child's subtree cost fixed.
// This is the f(c) whose crossover the validity-range search locates.
func (m *CostModel) CostWithEdgeCard(p *Plan, k int, c float64) float64 {
	n := len(p.Children)
	cc, cs := childEstimates(p)
	if k >= 0 && k < n {
		cc[k] = c
	}
	return m.Recost(p, cc[:n], cs[:n])
}
