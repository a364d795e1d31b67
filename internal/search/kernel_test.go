package search

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// kernelTopologies are the substrates the kernel tests sweep: the 8-,
// 12- and 16-pin crossbars and FPVA grids of 8 to 16 ports.
func kernelTopologies(t *testing.T) []*topo.PathTable {
	t.Helper()
	var out []*topo.PathTable
	for _, pins := range []int{8, 12, 16} {
		_, pt, err := topo.SharedGrid(pins)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pt)
	}
	for _, rc := range [][2]int{{2, 2}, {2, 3}, {3, 3}, {2, 4}, {4, 4}} {
		_, pt, err := topo.SharedFPVA(rc[0], rc[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pt)
	}
	return out
}

func topoName(sw *topo.Switch) string {
	if sw.Kind == "fpva" {
		return fmt.Sprintf("fpva-%dx%d", sw.Rows, sw.Cols)
	}
	return fmt.Sprintf("grid-%d", sw.NumPins)
}

// clockwiseFeasibleFull is the from-scratch clockwise check the solver
// used before clockwiseAdmits: it rescans the whole binding and accepts
// iff the bound pins appear in module order around the switch (exactly
// one cyclic descent) and every arc between consecutive bound modules
// has at least as many free pins as there are unbound modules between
// them. It is the oracle clockwiseAdmits must agree with.
func clockwiseFeasibleFull(pinOf, modOf []int, numPins int) bool {
	type bound struct{ idx, pin int }
	var bs []bound
	for mi, p := range pinOf {
		if p >= 0 {
			bs = append(bs, bound{mi, p})
		}
	}
	if len(bs) <= 1 {
		return true
	}
	descents := 0
	for i := range bs {
		if bs[(i+1)%len(bs)].pin < bs[i].pin {
			descents++
		}
	}
	if descents != 1 {
		return false
	}
	nMod := len(pinOf)
	for i := range bs {
		next := bs[(i+1)%len(bs)]
		unboundBetween := 0
		for j := (bs[i].idx + 1) % nMod; j != next.idx; j = (j + 1) % nMod {
			if pinOf[j] == -1 {
				unboundBetween++
			}
		}
		freeInArc := 0
		for p := (bs[i].pin + 1) % numPins; p != next.pin; p = (p + 1) % numPins {
			if modOf[p] == -1 {
				freeInArc++
			}
		}
		if freeInArc < unboundBetween {
			return false
		}
	}
	return true
}

// bindingState is a bare solver carrying only a module→pin binding, which
// is all clockwiseAdmits reads.
func bindingState(nMod, numPins int) *solver {
	s := &solver{
		pinOf:   make([]int, nMod),
		modOf:   make([]int, numPins),
		numPins: numPins,
	}
	for i := range s.pinOf {
		s.pinOf[i] = -1
	}
	for i := range s.modOf {
		s.modOf[i] = -1
	}
	return s
}

// pickUnbound returns a random unbound module and free pin; ok is false
// when either is exhausted.
func pickUnbound(rng *rand.Rand, s *solver) (m, p int, ok bool) {
	var mods, pins []int
	for i, q := range s.pinOf {
		if q < 0 {
			mods = append(mods, i)
		}
	}
	for i, q := range s.modOf {
		if q < 0 {
			pins = append(pins, i)
		}
	}
	if len(mods) == 0 || len(pins) == 0 {
		return 0, 0, false
	}
	return mods[rng.Intn(len(mods))], pins[rng.Intn(len(pins))], true
}

// TestClockwiseAdmitsMatchesFullCheck is the differential test of the
// incremental clockwise check: on random completable partial bindings,
// binding one more module — or two, as a candidate that newly binds both
// its inlet and its outlet does, checking after each — must be accepted
// exactly when the full rescan accepts the extended binding.
func TestClockwiseAdmitsMatchesFullCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, pt := range kernelTopologies(t) {
		n := pt.Switch.NumPins
		var accepted, rejected [3]int // by number of new binds (index 1, 2)
		for trial := 0; trial < 3000; trial++ {
			s := bindingState(2+rng.Intn(n-1), n)
			// Grow a random completable binding, as the search would.
			for k := rng.Intn(len(s.pinOf)); k > 0; k-- {
				m, p, ok := pickUnbound(rng, s)
				if !ok {
					break
				}
				s.bindIfNeeded(m, p)
				if !clockwiseFeasibleFull(s.pinOf, s.modOf, n) {
					s.unbind(m, p, bindDone)
				}
			}
			newBinds := 1 + rng.Intn(2)
			got := true
			for b := 0; b < newBinds; b++ {
				m, p, ok := pickUnbound(rng, s)
				if !ok {
					break
				}
				s.bindIfNeeded(m, p)
				got = got && s.clockwiseAdmits(m)
			}
			want := clockwiseFeasibleFull(s.pinOf, s.modOf, n)
			if got != want {
				t.Fatalf("%s: binding %v (%d new): incremental check %v, full check %v",
					topoName(pt.Switch), s.pinOf, newBinds, got, want)
			}
			if want {
				accepted[newBinds]++
			} else {
				rejected[newBinds]++
			}
		}
		for b := 1; b <= 2; b++ {
			if accepted[b] == 0 || rejected[b] == 0 {
				t.Errorf("%s: %d new binds: %d accepted, %d rejected — both outcomes must be exercised",
					topoName(pt.Switch), b, accepted[b], rejected[b])
			}
		}
	}
}

// compareCandsSorted is the canonical (length, pIn, pOut, pathIdx) order
// the solver once sorted every node's candidates by.
func compareCandsSorted(a, b topo.Cand) int {
	switch {
	case a.Path.Length < b.Path.Length:
		return -1
	case a.Path.Length > b.Path.Length:
		return 1
	case a.In != b.In:
		return a.In - b.In
	case a.Out != b.Out:
		return a.Out - b.Out
	default:
		return a.PathIdx - b.PathIdx
	}
}

// sortedCands is the sort-per-node enumeration the presorted tables
// replace: every (free or bound inlet pin, free or bound outlet pin,
// path) triple, with the inlet restricted to the first RotStep pins while
// nothing is bound, sorted by compareCandsSorted.
func sortedCands(s *solver, pos int) []topo.Cand {
	f := s.order[pos]
	pins := func(module int, allowCut bool) []int {
		if p := s.pinOf[module]; p >= 0 {
			return []int{p}
		}
		limit := s.numPins
		if allowCut && !s.opts.DisableSymmetryBreaking && s.boundCount == 0 && s.rotStep > 0 {
			limit = s.rotStep
		}
		var out []int
		for p := 0; p < limit; p++ {
			if s.modOf[p] == -1 {
				out = append(out, p)
			}
		}
		return out
	}
	var cands []topo.Cand
	for _, pIn := range pins(s.srcs[f], true) {
		for _, pOut := range pins(s.dsts[f], false) {
			if pIn == pOut {
				continue
			}
			paths := s.pt.PathsBetween(pIn, pOut)
			for pi := range paths {
				cands = append(cands, topo.Cand{In: pIn, Out: pOut, PathIdx: pi, Path: &paths[pi]})
			}
		}
	}
	slices.SortFunc(cands, compareCandsSorted)
	return cands
}

// TestCandTableOrder checks that, for every pin-mask shape a node can
// present, filtering the presorted candidate table yields exactly the
// sorted enumeration: both endpoints bound, inlet bound, outlet bound,
// neither bound, and nothing bound at all with and without the
// rotational-symmetry cut.
func TestCandTableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := []struct {
		name              string
		inBound, outBound bool
		others            bool // bind unrelated modules to random pins
		noCut             bool
	}{
		{"both-bound", true, true, true, false},
		{"inlet-bound", true, false, true, false},
		{"outlet-bound", false, true, true, false},
		{"neither-bound", false, false, true, false},
		{"symmetry-cut", false, false, false, false},
		{"no-cut", false, false, false, true},
	}
	for _, pt := range kernelTopologies(t) {
		sw := pt.Switch
		n := sw.NumPins
		mods := []string{"in", "out"}
		for k := 0; k < n-2; k++ {
			mods = append(mods, fmt.Sprintf("m%d", k))
		}
		sp := &spec.Spec{
			Name:       "cand-order",
			SwitchPins: n,
			Modules:    mods,
			Flows:      []spec.Flow{{From: "in", To: "out"}},
			Binding:    spec.Unfixed,
		}
		for _, sh := range shapes {
			for trial := 0; trial < 20; trial++ {
				s := newSolver(sp, sw, pt, Options{DisableSymmetryBreaking: sh.noCut})
				perm := rng.Perm(n)
				if sh.inBound {
					s.bindIfNeeded(0, perm[0])
				}
				if sh.outBound {
					s.bindIfNeeded(1, perm[1])
				}
				if sh.others {
					for k := 2 + rng.Intn(n-2); k < n; k++ {
						s.bindIfNeeded(k, perm[k])
					}
				}
				want := sortedCands(s, 0)
				cands, flt := s.candTable(0)
				var got []topo.Cand
				for i := range cands {
					if flt.admits(s.modOf, &cands[i]) {
						got = append(got, cands[i])
					}
				}
				s.release()
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d filtered candidates, sorted enumeration has %d",
						topoName(sw), sh.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: candidate %d = %+v, sorted enumeration has %+v",
							topoName(sw), sh.name, i, got[i], want[i])
					}
				}
				if len(want) == 0 && !sh.others {
					t.Fatalf("%s/%s: empty enumeration exercises nothing", topoName(sw), sh.name)
				}
			}
		}
	}
}
