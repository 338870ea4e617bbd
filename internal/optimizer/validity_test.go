package optimizer

import (
	"math"
	"testing"
	"testing/quick"
)

// mkLeaf builds a leaf access plan for the validity tests.
func mkLeaf(card, cost float64, mask uint64) *Plan {
	return &Plan{Op: OpTableScan, Cols: []int{0}, Card: card, Cost: cost, tables: mask, ordered: -1}
}

// nljnVsHsjn builds the canonical pair of structurally equivalent plans the
// paper's Figure 4 illustrates: an index NLJN and a hash join over the same
// children. The NLJN is cheaper at the estimate; it becomes suboptimal once
// the outer cardinality grows past the crossover.
func nljnVsHsjn(outerCard float64) (popt, palt *Plan, m *CostModel) {
	m = &CostModel{Params: DefaultCostParams()}
	outer := mkLeaf(outerCard, 1000, 0b01)
	probeInner := &Plan{Op: OpIndexScan, Cols: []int{1}, Card: 1, Cost: 10, tables: 0b10, ordered: -1}
	scanInner := mkLeaf(10000, 10000, 0b10)

	popt = &Plan{
		Op: OpNLJN, IndexJoin: true, LookupCol: 0,
		Children: []*Plan{outer, probeInner},
		Cols:     []int{0, 1}, Card: outerCard, tables: 0b11, ordered: -1,
	}
	m.finishCosting(popt)
	palt = &Plan{
		Op:       OpHSJN,
		Children: []*Plan{outer, scanInner},
		EquiLeft: []int{0}, EquiRight: []int{1},
		Cols: []int{0, 1}, Card: outerCard, tables: 0b11, ordered: -1,
	}
	m.finishCosting(palt)
	return popt, palt, m
}

func TestUpperCrossoverFindsInversion(t *testing.T) {
	popt, palt, m := nljnVsHsjn(100)
	if popt.Cost >= palt.Cost {
		t.Fatalf("fixture broken: NLJN (%v) should win at the estimate vs HSJN (%v)", popt.Cost, palt.Cost)
	}
	ub := m.upperCrossover(popt, 0, palt, 0)
	if math.IsInf(ub, 1) {
		t.Fatal("crossover must exist: NLJN cost grows ~10x faster per outer row")
	}
	if ub <= 100 {
		t.Fatalf("upper bound %v must exceed the estimate", ub)
	}
	// The bound is conservative: at ub the alternative is truly no more
	// expensive — re-optimizing there provably changes the plan.
	costOpt := m.CostWithEdgeCard(popt, 0, ub)
	costAlt := m.CostWithEdgeCard(palt, 0, ub)
	if costAlt > costOpt {
		t.Errorf("at the bound the alternative must win: opt=%v alt=%v", costOpt, costAlt)
	}
}

func TestLowerCrossoverOnDominatedAxis(t *testing.T) {
	// Give HSJN the win at the estimate and check the reverse direction:
	// below some outer cardinality the NLJN is cheaper again. The estimate
	// must be within reach of the capped 3-iteration search — a crossover
	// much further away is legitimately left unbounded (stopping early is
	// always conservative, paper §2.2).
	popt, palt, m := nljnVsHsjn(8000)
	// Now the hash join should be cheaper — swap roles.
	if palt.Cost >= popt.Cost {
		t.Skipf("fixture: HSJN %v vs NLJN %v", palt.Cost, popt.Cost)
	}
	lb := m.lowerCrossover(palt, 0, popt, 0)
	if lb <= 0 {
		t.Fatal("a lower crossover must exist: tiny outers favor the index NLJN")
	}
	if lb >= 8000 {
		t.Fatalf("lower bound %v must be below the estimate", lb)
	}
	costOpt := m.CostWithEdgeCard(palt, 0, lb)
	costAlt := m.CostWithEdgeCard(popt, 0, lb)
	if costAlt > costOpt {
		t.Errorf("at the bound the alternative must win: opt=%v alt=%v", costOpt, costAlt)
	}
}

func TestNarrowValidityMatchesEdgesBySubset(t *testing.T) {
	popt, palt, m := nljnVsHsjn(100)
	m.narrowValidity(popt, palt)
	v := popt.EdgeValidity(0)
	if math.IsInf(v.Hi, 1) {
		t.Fatal("outer edge should be bounded above after pruning the hash join")
	}
	// The index-probe inner edge must stay unbounded (partial read).
	if popt.EdgeValidity(1).Bounded() {
		t.Error("index-probe edge must not be narrowed")
	}
}

func TestNarrowValiditySkipsMismatchedChildren(t *testing.T) {
	m := &CostModel{Params: DefaultCostParams()}
	a := mkLeaf(100, 100, 0b001)
	b := mkLeaf(200, 200, 0b010)
	c := mkLeaf(300, 300, 0b100)
	// popt joins {a,b}; palt joins {a,c}: no common edges → no narrowing.
	popt := &Plan{Op: OpHSJN, Children: []*Plan{a, b}, EquiLeft: []int{0}, EquiRight: []int{1},
		Cols: []int{0, 1}, Card: 100, tables: 0b011, ordered: -1}
	m.finishCosting(popt)
	palt := &Plan{Op: OpHSJN, Children: []*Plan{a, c}, EquiLeft: []int{0}, EquiRight: []int{1},
		Cols: []int{0, 1}, Card: 100, tables: 0b101, ordered: -1}
	m.finishCosting(palt)
	m.narrowValidity(popt, palt)
	if popt.EdgeValidity(0).Bounded() || popt.EdgeValidity(1).Bounded() {
		t.Error("plans over different subsets must not narrow each other")
	}
}

func TestNarrowValidityHandlesSwappedChildren(t *testing.T) {
	// HSJN(build=inner) vs HSJN(build=outer): children swapped; edges must
	// still be matched by their table sets.
	m := &CostModel{Params: DefaultCostParams()}
	small := mkLeaf(50, 50, 0b01)
	big := mkLeaf(5000, 5000, 0b10)
	popt := &Plan{Op: OpHSJN, Children: []*Plan{big, small}, EquiLeft: []int{1}, EquiRight: []int{0},
		Cols: []int{1, 0}, Card: 5000, tables: 0b11, ordered: -1}
	m.finishCosting(popt)
	palt := &Plan{Op: OpHSJN, Children: []*Plan{small, big}, EquiLeft: []int{0}, EquiRight: []int{1},
		Cols: []int{0, 1}, Card: 5000, tables: 0b11, ordered: -1}
	m.finishCosting(palt)
	if popt.Cost >= palt.Cost {
		t.Fatalf("build-on-small should win: %v vs %v", popt.Cost, palt.Cost)
	}
	m.narrowValidity(popt, palt)
	// The build edge ({small}) has a crossover: if the build side turns out
	// huge, building on the other side wins.
	if !popt.EdgeValidity(1).Bounded() {
		t.Error("build edge should be bounded: an oversized build flips the build direction")
	}
}

// Property: for random scenario parameters, upperCrossover either returns
// +Inf or a point at which the alternative has truly caught up — i.e. no
// false suboptimality bounds (the paper's conservativeness guarantee).
func TestCrossoverConservativeProperty(t *testing.T) {
	f := func(cardSeed, costSeed uint16) bool {
		outerCard := 10 + float64(cardSeed%5000)
		innerCost := 2 + float64(costSeed%200)
		m := &CostModel{Params: DefaultCostParams()}
		outer := mkLeaf(outerCard, 1000, 0b01)
		probe := &Plan{Op: OpIndexScan, Cols: []int{1}, Card: 1, Cost: innerCost, tables: 0b10, ordered: -1}
		scan := mkLeaf(10000, 10000, 0b10)
		nljn := &Plan{Op: OpNLJN, IndexJoin: true, Children: []*Plan{outer, probe},
			Cols: []int{0, 1}, Card: outerCard, tables: 0b11, ordered: -1}
		m.finishCosting(nljn)
		hsjn := &Plan{Op: OpHSJN, Children: []*Plan{outer, scan}, EquiLeft: []int{0}, EquiRight: []int{1},
			Cols: []int{0, 1}, Card: outerCard, tables: 0b11, ordered: -1}
		m.finishCosting(hsjn)
		popt, palt := nljn, hsjn
		if hsjn.Cost < nljn.Cost {
			popt, palt = hsjn, nljn
		}
		ub := m.upperCrossover(popt, 0, palt, 0)
		if math.IsInf(ub, 1) {
			return true // no bound claimed: always safe
		}
		return m.CostWithEdgeCard(palt, 0, ub) <= m.CostWithEdgeCard(popt, 0, ub)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestValidityAcrossSpillCliff checks the Newton-Raphson search survives the
// hash-join memory discontinuity the paper warns about ("cost functions are
// not smooth, not even always continuous").
func TestValidityAcrossSpillCliff(t *testing.T) {
	m := &CostModel{Params: DefaultCostParams()}
	m.Params.MemoryBytes = 2000 // tiny budget: the cliff is nearby
	outer := mkLeaf(100, 1000, 0b01)
	probe := &Plan{Op: OpIndexScan, Cols: []int{1}, Card: 1, Cost: 12, tables: 0b10, ordered: -1}
	scan := mkLeaf(3000, 3000, 0b10)
	nljn := &Plan{Op: OpNLJN, IndexJoin: true, Children: []*Plan{outer, probe},
		Cols: []int{0, 1}, Card: 100, tables: 0b11, ordered: -1}
	m.finishCosting(nljn)
	hsjn := &Plan{Op: OpHSJN, Children: []*Plan{outer, scan}, EquiLeft: []int{0}, EquiRight: []int{1},
		Cols: []int{0, 1}, Card: 100, tables: 0b11, ordered: -1}
	m.finishCosting(hsjn)
	if nljn.Cost >= hsjn.Cost {
		t.Skip("fixture: NLJN should win at the estimate")
	}
	ub := m.upperCrossover(nljn, 0, hsjn, 0)
	if !math.IsInf(ub, 1) {
		if m.CostWithEdgeCard(hsjn, 0, ub) > m.CostWithEdgeCard(nljn, 0, ub)+1e-6 {
			t.Error("bound across the spill cliff is not conservative")
		}
	}
}

func TestEdgeCheckable(t *testing.T) {
	outer := mkLeaf(10, 10, 0b01)
	inner := mkLeaf(10, 10, 0b10)
	naive := &Plan{Op: OpNLJN, Children: []*Plan{outer, inner}}
	if !edgeCheckable(naive, 0) || edgeCheckable(naive, 1) {
		t.Error("naive NLJN: outer checkable, rescanned inner not")
	}
	idx := &Plan{Op: OpNLJN, IndexJoin: true, Children: []*Plan{outer, inner}}
	if !edgeCheckable(idx, 0) || edgeCheckable(idx, 1) {
		t.Error("index NLJN: outer checkable, probe not")
	}
	hsjn := &Plan{Op: OpHSJN, Children: []*Plan{outer, inner}}
	if !edgeCheckable(hsjn, 0) || !edgeCheckable(hsjn, 1) {
		t.Error("hash join: both edges checkable")
	}
}

// TestCostingDoesNotAllocate pins the stack-resident cost evaluation: the
// validity-range search and candidate costing run for every candidate the
// enumeration builds, so a heap allocation here (an escaping evaluator
// closure, a per-call child snapshot slice) costs about a million
// allocations per DMV statement.
func TestCostingDoesNotAllocate(t *testing.T) {
	popt, palt, m := nljnVsHsjn(100)
	if n := testing.AllocsPerRun(100, func() { m.finishCosting(palt) }); n != 0 {
		t.Errorf("finishCosting on a 2-child join: %v allocs, want 0", n)
	}
	// The first narrowing allocates popt's validity slice; later ones reuse
	// it.
	m.narrowValidity(popt, palt)
	if n := testing.AllocsPerRun(100, func() { m.narrowValidity(popt, palt) }); n != 0 {
		t.Errorf("narrowValidity between two 2-child joins: %v allocs, want 0", n)
	}
}
