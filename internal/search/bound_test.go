package search

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"switchsynth/internal/topo"
)

// branch is one child of a search node: flow order[pos] takes candidate
// c in set.
type branch struct {
	c   *topo.Cand
	set int
}

// branches lists the children dfs would try at pos, in its order.
func branches(s *solver, pos int) []branch {
	f := s.order[pos]
	ms := s.srcs[f]
	cands, flt := s.candTable(pos)
	var out []branch
	for i := range cands {
		c := &cands[i]
		if !flt.admits(c) {
			continue
		}
		boundIn, boundOut, ok := s.bindCand(f, c)
		if !ok {
			continue
		}
		for set := range s.setChoices() {
			if s.setFits(set, ms, c.Path) {
				out = append(out, branch{c, set})
			}
		}
		s.unbindCand(f, c, boundIn, boundOut)
	}
	return out
}

// descend applies one branch and returns its undo.
func descend(s *solver, pos int, b branch) func() {
	f := s.order[pos]
	ms := s.srcs[f]
	boundIn, boundOut, _ := s.bindCand(f, b.c)
	s.place(f, ms, b.set, b.c.Path)
	return func() {
		s.unplace(f, b.set)
		s.unbindCand(f, b.c, boundIn, boundOut)
	}
}

// leastLeaf exhausts the subtree at pos with no incumbent and no bound and
// returns its cheapest leaf cost (+inf when it has no leaf); ok is false
// when the subtree has more than *budget nodes.
func leastLeaf(s *solver, pos int, budget *int) (float64, bool) {
	if pos == len(s.order) {
		return s.cost(), true
	}
	if *budget--; *budget < 0 {
		return 0, false
	}
	least := math.Inf(1)
	for _, b := range branches(s, pos) {
		undo := descend(s, pos, b)
		c, ok := leastLeaf(s, pos+1, budget)
		undo()
		if !ok {
			return 0, false
		}
		least = min(least, c)
	}
	return least, true
}

// exactBound evaluates the node bound at pos in full, with none of its
// early exits: +inf when some unplaced flow has no admissible candidate.
func exactBound(s *solver, pos int) float64 {
	lb := s.cost() + s.remainingLB(pos)
	minus := s.usedEdges.Or(s.pt.Cands.StubEdges)
	worst := junctionCover(s, pos)
	for k := pos; k < len(s.order); k++ {
		least, ok := s.leastFresh(s.order[k], &minus, -1, false)
		if !ok {
			return math.Inf(1)
		}
		worst = max(worst, least)
	}
	return lb + s.beta*worst
}

// junctionCover recomputes the junction cover from the switch graph
// itself, junction by junction (see solver.cover): u counts the
// untouched junctions some unplaced flow's bound module must leave by an
// interior edge, plus the fewest untouched junctions the unbound modules
// of the unplaced flows can land on; the fresh edges number at least
// ⌈u/2⌉ and at least V − I − E.
func junctionCover(s *solver, pos int) float64 {
	sw := s.sw
	stub := map[int]bool{}
	junction := make([]int, s.numPins) // pin order -> junction vertex
	for p := range s.numPins {
		e := sw.PinStubEdge(p)
		stub[e] = true
		junction[p] = sw.Edges[e].Other(sw.PinVertex(p))
	}
	minInterior := math.Inf(1)
	usedInterior := 0
	touchedVerts := map[int]bool{}
	for _, e := range sw.Edges {
		if stub[e.ID] {
			continue
		}
		minInterior = min(minInterior, e.Length)
		if s.usedEdges.Has(e.ID) {
			usedInterior++
			touchedVerts[e.U], touchedVerts[e.V] = true, true
		}
	}
	pinsAt := func(v int) (pins []int) {
		for p, j := range junction {
			if j == v {
				pins = append(pins, p)
			}
		}
		return pins
	}
	need := map[int]bool{}
	unbound := map[int]bool{}
	inlets := map[int]bool{}
	for _, m := range s.srcs {
		inlets[m] = true
	}
	for k := pos; k < len(s.order); k++ {
		f := s.order[k]
		ends := [2]int{s.srcs[f], s.dsts[f]}
		for i, m := range ends {
			p := s.pinOf[m]
			if p < 0 {
				unbound[m] = true
				continue
			}
			v := junction[p]
			if touchedVerts[v] {
				continue
			}
			stubToStub := false
			other := ends[1-i]
			for _, q := range pinsAt(v) {
				if q != p && (s.pinOf[other] == q || s.pinOf[other] < 0 && s.freePins.Has(q)) {
					stubToStub = true
				}
			}
			if !stubToStub {
				need[v] = true
			}
		}
	}
	// Free pins by what a module landing there may cost: nothing (a
	// touched junction, or a shared one with a bound module or more than
	// two pins), a junction per one or two modules (an untouched two-pin
	// junction with both pins free; nothing when one flow takes both),
	// or a junction.
	free, twinJunctions := 0, map[int]bool{}
	for p := range s.numPins {
		if !s.freePins.Has(p) {
			continue
		}
		at := pinsAt(junction[p])
		switch {
		case touchedVerts[junction[p]]:
			free++
		case len(at) == 1:
		case len(at) == 2 && s.freePins.Has(at[0]) && s.freePins.Has(at[1]):
			twinJunctions[junction[p]] = true
		default:
			free++
		}
	}
	pairs := map[int]bool{} // unbound inlets with a flow to an unbound outlet
	for k := pos; k < len(s.order); k++ {
		if f := s.order[k]; s.pinOf[s.srcs[f]] < 0 && s.pinOf[s.dsts[f]] < 0 {
			pairs[s.srcs[f]] = true
		}
	}
	left := len(unbound) - free
	twins := len(twinJunctions)
	q := min(len(pairs), twins)
	left -= 2 * q
	twins -= q
	landed := 0
	switch {
	case left <= 0:
	case left <= 2*twins:
		landed = (left + 1) / 2
	default:
		landed = twins + left - 2*twins
	}
	u := len(need) + landed
	edges := max((u+1)/2, len(touchedVerts)+u-len(inlets)-usedInterior)
	if edges == 0 {
		return 0
	}
	return float64(edges) * minInterior
}

// TestBoundAdmissible drives the search to random reachable partial states
// of every golden instance — crossbar and FPVA, under every binding
// policy — and exhausts the subtree below each one. The node bound must
// not exceed the subtree's cheapest leaf, must be +inf only when the
// subtree has no leaf, must equal the full bound when evaluated with no
// cut, and the bound with its early exits must decide exactly as the
// full bound does against an incumbent at, just above and far above
// that leaf.
func TestBoundAdmissible(t *testing.T) {
	const statesPerInstance = 6
	specs := goldenSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(26))
	var checked, leafless, tight int
	for _, name := range names {
		sp := specs[name]
		sw, pt, err := sp.SharedTopology()
		if err != nil {
			t.Fatal(err)
		}
		for range statesPerInstance {
			s := newSolver(sp, sw, pt, Options{})
			s.bindFixed()
			var undos []func()
			pos, depth := 0, rng.Intn(len(s.order))
			for ; pos < depth; pos++ {
				bs := branches(s, pos)
				if len(bs) == 0 {
					break
				}
				undos = append(undos, descend(s, pos, bs[rng.Intn(len(bs))]))
			}
			budget := 3000
			leaf, ok := leastLeaf(s, pos, &budget)
			if ok {
				checked++
				bound := exactBound(s, pos)
				switch {
				case math.IsInf(leaf, 1):
					leafless++
				case math.IsInf(bound, 1):
					t.Errorf("%s at depth %d: bound is +inf, subtree has a leaf of cost %v", name, pos, leaf)
				case bound > leaf+eps:
					t.Errorf("%s at depth %d: bound %v exceeds the cheapest leaf %v", name, pos, bound, leaf)
				case bound > leaf-eps:
					tight++
				}
				s.bestCost = inf
				if got := s.bound(pos, math.Inf(1)); got != bound {
					t.Errorf("%s at depth %d: bound with no cut is %v, full bound %v", name, pos, got, bound)
				}
				for _, incumbent := range []float64{leaf, leaf + s.beta*0.05, inf} {
					s.bestCost = incumbent
					if got, want := s.bound(pos, s.pruneBound()) >= s.pruneBound(), bound >= s.pruneBound(); got != want {
						t.Errorf("%s at depth %d: cut = %v against incumbent %v, full bound %v says %v",
							name, pos, got, incumbent, bound, want)
					}
				}
			}
			for i := len(undos) - 1; i >= 0; i-- {
				undos[i]()
			}
			s.release()
		}
	}
	if checked < len(names)*statesPerInstance/2 || leafless == 0 || tight == 0 {
		t.Fatalf("checked %d states (%d without a leaf, %d with a tight bound); the sample is too thin",
			checked, leafless, tight)
	}
	// The states are drawn from the unbounded tree, so they do not move
	// with the bound; the forward-checking bound alone was tight on 127
	// of them, and a stronger bound may only add to that.
	if tight < 127 {
		t.Errorf("the bound is tight on %d states, fewer than the 127 of the forward-checking bound alone", tight)
	}
	t.Logf("checked %d states: %d without a leaf, %d with a tight bound", checked, leafless, tight)
}

// TestDegradedLowerBoundIsRootBound: a degraded plan reports as its
// LowerBound the full node bound at the root plus one set, capped at its
// objective — not the stub-only part of the bound. The first-fit search
// stops at its first leaf, so every feasible golden instance yields a
// degraded plan deterministically.
func TestDegradedLowerBoundIsRootBound(t *testing.T) {
	specs := goldenSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	var degraded, tighter int
	for _, name := range names {
		sp := specs[name]
		sw, pt, err := sp.SharedTopology()
		if err != nil {
			t.Fatal(err)
		}
		res, err := GreedyFirstFitOn(sp, sw, pt, Options{})
		if err != nil {
			continue // infeasible under its binding policy
		}
		s := newSolver(sp, sw, pt, Options{})
		s.bindFixed()
		root := s.alpha + exactBound(s, 0)
		stubs := s.alpha + s.remainingLB(0)
		s.release()
		want := min(res.Objective, root)
		if !res.Degraded || res.LowerBound != want {
			t.Errorf("%s: degraded=%v LowerBound = %v, want min(objective %v, root bound %v)",
				name, res.Degraded, res.LowerBound, res.Objective, root)
		}
		if gap := (res.Objective - want) / res.Objective; res.Gap != gap {
			t.Errorf("%s: Gap = %v, want %v", name, res.Gap, gap)
		}
		degraded++
		if want > stubs+eps {
			tighter++
		}
	}
	if degraded == 0 || tighter == 0 {
		t.Fatalf("%d degraded plans, %d with a bound above the stub bound; the sample is too thin", degraded, tighter)
	}
	t.Logf("%d degraded plans, %d with a bound above the stub bound", degraded, tighter)
}
