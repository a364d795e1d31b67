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
// 12- and 16-pin crossbars, FPVA grids of 8 to 16 ports, and the widest
// valid FPVA, 2×50 with 104 ports — past the 64 pins one machine word
// holds, so every pin mask must span several words.
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
	for _, rc := range [][2]int{{2, 2}, {2, 3}, {3, 3}, {2, 4}, {4, 4}, {2, spec.MaxGridCells / 2}} {
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

// takenPins marks the pins a module→pin binding occupies. The oracles
// below read the binding only through pinOf, never through the solver's
// free-pin mask.
func takenPins(pinOf []int, numPins int) []bool {
	taken := make([]bool, numPins)
	for _, p := range pinOf {
		if p >= 0 {
			taken[p] = true
		}
	}
	return taken
}

// clockwiseFeasibleFull is the from-scratch clockwise check the solver
// used before clockwiseAdmits: it rescans the whole binding and accepts
// iff the bound pins appear in module order around the switch (exactly
// one cyclic descent) and every arc between consecutive bound modules
// has at least as many free pins as there are unbound modules between
// them. It is the oracle clockwiseAdmits and clockwiseArc must agree with.
func clockwiseFeasibleFull(pinOf []int, numPins int) bool {
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
	taken := takenPins(pinOf, numPins)
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
			if !taken[p] {
				freeInArc++
			}
		}
		if freeInArc < unboundBetween {
			return false
		}
	}
	return true
}

// bindingState is a bare solver carrying only a module→pin binding and
// its free-pin mask, which is all clockwiseAdmits and clockwiseArc read.
func bindingState(nMod, numPins int) *solver {
	s := &solver{
		pinOf:    make([]int, nMod),
		numPins:  numPins,
		allPins:  topo.BitsRange(0, numPins),
		freePins: topo.BitsRange(0, numPins),
	}
	for i := range s.pinOf {
		s.pinOf[i] = -1
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
	for i, taken := range takenPins(s.pinOf, s.numPins) {
		if !taken {
			pins = append(pins, i)
		}
	}
	if len(mods) == 0 || len(pins) == 0 {
		return 0, 0, false
	}
	return mods[rng.Intn(len(mods))], pins[rng.Intn(len(pins))], true
}

// growCompletable makes up to k random binds, keeping each only if the
// binding stays clockwise-completable, as the search would.
func growCompletable(rng *rand.Rand, s *solver, k int) {
	for ; k > 0; k-- {
		m, p, ok := pickUnbound(rng, s)
		if !ok {
			return
		}
		s.bindIfNeeded(m, p)
		if !clockwiseFeasibleFull(s.pinOf, s.numPins) {
			s.unbind(m, p, bindDone)
		}
	}
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
			growCompletable(rng, s, rng.Intn(len(s.pinOf)))
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
			want := clockwiseFeasibleFull(s.pinOf, n)
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

// TestClockwiseArcMatchesFullCheck is the oracle of the per-node winding
// arc candFilter admits clockwise endpoints by: on random completable
// partial bindings, clockwiseArc(m) of an unbound module m must hold
// exactly the free pins p for which binding m to p passes the full
// rescan.
func TestClockwiseArcMatchesFullCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, pt := range kernelTopologies(t) {
		n := pt.Switch.NumPins
		var whole, partial int // arcs holding every free pin, or only some
		for trial := 0; trial < 1000; trial++ {
			s := bindingState(2+rng.Intn(n-1), n)
			growCompletable(rng, s, rng.Intn(len(s.pinOf)))
			m, _, ok := pickUnbound(rng, s)
			if !ok {
				continue
			}
			var want, free topo.Bits
			for p, taken := range takenPins(s.pinOf, n) {
				if taken {
					continue
				}
				free.Set(p)
				s.pinOf[m] = p
				if clockwiseFeasibleFull(s.pinOf, n) {
					want.Set(p)
				}
				s.pinOf[m] = -1
			}
			if got := s.clockwiseArc(m); got != want {
				t.Fatalf("%s: binding %v, module %d: arc %v, full check admits %v",
					topoName(pt.Switch), s.pinOf, m, got.Indices(), want.Indices())
			}
			if want == free {
				whole++
			} else {
				partial++
			}
		}
		if whole == 0 || partial == 0 {
			t.Errorf("%s: %d whole and %d partial arcs — both must be exercised",
				topoName(pt.Switch), whole, partial)
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
// nothing is bound, sorted by compareCandsSorted. Under clockwise binding
// it keeps only the triples whose pins leave the binding completable by
// the full rescan.
func sortedCands(s *solver, pos int) []topo.Cand {
	f := s.order[pos]
	taken := takenPins(s.pinOf, s.numPins)
	nothingBound := !slices.Contains(taken, true)
	pins := func(module int, allowCut bool) []int {
		if p := s.pinOf[module]; p >= 0 {
			return []int{p}
		}
		limit := s.numPins
		if allowCut && !s.opts.DisableSymmetryBreaking && nothingBound && s.rotStep > 0 {
			limit = s.rotStep
		}
		var out []int
		for p := 0; p < limit; p++ {
			if !taken[p] {
				out = append(out, p)
			}
		}
		return out
	}
	ms, md := s.srcs[f], s.dsts[f]
	winding := func(pIn, pOut int) bool {
		if s.sp.Binding != spec.Clockwise {
			return true
		}
		pinOf := slices.Clone(s.pinOf)
		pinOf[ms], pinOf[md] = pIn, pOut
		return clockwiseFeasibleFull(pinOf, s.numPins)
	}
	var cands []topo.Cand
	for _, pIn := range pins(ms, true) {
		for _, pOut := range pins(md, false) {
			if pIn == pOut || !winding(pIn, pOut) {
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

// kernelCands is what the kernel enumerates at flow position pos: the
// presorted table's candidates that pass the node's candFilter and then
// bindCand, which carries the part of the winding rule the filter's
// per-node arcs cannot.
func kernelCands(s *solver, pos int) []topo.Cand {
	f := s.order[pos]
	cands, flt := s.candTable(pos)
	var got []topo.Cand
	for i := range cands {
		c := &cands[i]
		if !flt.admits(c) {
			continue
		}
		if boundIn, boundOut, ok := s.bindCand(f, c); ok {
			got = append(got, *c)
			s.unbindCand(f, c, boundIn, boundOut)
		}
	}
	return got
}

// bindRandom binds module m to a random free pin, under clockwise binding
// one that keeps the binding completable; ok is false when none does.
func bindRandom(rng *rand.Rand, s *solver, m int) bool {
	var pins []int
	for p, taken := range takenPins(s.pinOf, s.numPins) {
		if taken {
			continue
		}
		s.pinOf[m] = p
		if s.sp.Binding != spec.Clockwise || clockwiseFeasibleFull(s.pinOf, s.numPins) {
			pins = append(pins, p)
		}
		s.pinOf[m] = -1
	}
	if len(pins) == 0 {
		return false
	}
	s.bindIfNeeded(m, pins[rng.Intn(len(pins))])
	return true
}

// TestCandTableOrder checks that, for every pin-mask shape a node can
// present and under unfixed and clockwise binding, the kernel's candidate
// enumeration — the presorted table filtered by the node's pin masks and
// bindCand — is exactly the sorted enumeration: both endpoints bound,
// inlet bound, outlet bound, neither bound, and nothing bound at all with
// and without the rotational-symmetry cut.
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
		trials := 20
		if len(pt.Cands.All) > 10000 {
			trials = 3 // the 2×50 grid's 104k candidates sort slowly under -race
		}
		for _, binding := range []spec.BindingPolicy{spec.Unfixed, spec.Clockwise} {
			for _, sh := range shapes {
				nonEmpty := 0
				for trial := 0; trial < trials; trial++ {
					// "in" and "out" sit at random places in the module
					// order, so the clockwise arcs of both ends vary.
					nMod := 2 + rng.Intn(n-1)
					mods := make([]string, nMod)
					for k := range mods {
						mods[k] = fmt.Sprintf("m%d", k)
					}
					perm := rng.Perm(nMod)
					in, out := perm[0], perm[1]
					sp := &spec.Spec{
						Name:       "cand-order",
						SwitchPins: n,
						Modules:    mods,
						Flows:      []spec.Flow{{From: mods[in], To: mods[out]}},
						Binding:    binding,
					}
					s := newSolver(sp, sw, pt, Options{DisableSymmetryBreaking: sh.noCut})
					if sh.inBound {
						bindRandom(rng, s, in)
					}
					if sh.outBound {
						bindRandom(rng, s, out)
					}
					if sh.others {
						for _, m := range perm[2 : 2+rng.Intn(nMod-1)] {
							bindRandom(rng, s, m)
						}
					}
					want := sortedCands(s, 0)
					got := kernelCands(s, 0)
					s.release()
					if len(got) != len(want) {
						t.Fatalf("%s/%s/%s: %d kernel candidates, sorted enumeration has %d",
							topoName(sw), binding, sh.name, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%s/%s: candidate %d = %+v, sorted enumeration has %+v",
								topoName(sw), binding, sh.name, i, got[i], want[i])
						}
					}
					if len(want) > 0 {
						nonEmpty++
					}
				}
				if nonEmpty == 0 {
					t.Errorf("%s/%s/%s: every enumeration was empty — nothing exercised",
						topoName(sw), binding, sh.name)
				}
			}
		}
	}
}

// TestSetOwnershipMatchesOwnerScan is the oracle of the bitset set
// ownership: over random LIFO sequences of place and unplace, setFits
// must agree with a scan of the live placements' interior vertices — the
// per-vertex owner matrix the bitsets replaced — and unwinding every
// placement must leave no vertex owned.
func TestSetOwnershipMatchesOwnerScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, pt := range kernelTopologies(t) {
		sw := pt.Switch
		// Three inlets fanning out to one outlet per flow.
		mods := make([]string, min(sw.NumPins, 12))
		for k := range mods {
			mods[k] = fmt.Sprintf("m%d", k)
		}
		var flows []spec.Flow
		for k := 3; k < len(mods); k++ {
			flows = append(flows, spec.Flow{From: mods[k%3], To: mods[k]})
		}
		sp := &spec.Spec{Name: "ownership", SwitchPins: sw.NumPins, Modules: mods, Flows: flows, MaxSets: 3}
		s := newSolver(sp, sw, pt, Options{})

		type placement struct {
			f, set int
			path   *topo.Path
		}
		var live []placement
		inner := func(p *topo.Path) []int { return p.Verts[1 : len(p.Verts)-1] }
		scanFits := func(set, inlet int, path *topo.Path) bool {
			for _, l := range live {
				if l.set != set || s.srcs[l.f] == inlet {
					continue
				}
				for _, v := range inner(path) {
					if slices.Contains(inner(l.path), v) {
						return false
					}
				}
			}
			return true
		}
		randomPlacement := func() (f, set int, path *topo.Path) {
			return rng.Intn(len(flows)), rng.Intn(sp.MaxSets), pt.Cands.All[rng.Intn(len(pt.Cands.All))].Path
		}
		var fit, clash int
		for step := 0; step < 2000; step++ {
			for q := 0; q < 4; q++ {
				f, set, path := randomPlacement()
				got, want := s.setFits(set, s.srcs[f], path), scanFits(set, s.srcs[f], path)
				if got != want {
					t.Fatalf("%s: step %d: setFits(set %d, inlet %d) = %v, owner scan says %v",
						topoName(sw), step, set, s.srcs[f], got, want)
				}
				if want {
					fit++
				} else {
					clash++
				}
			}
			if len(live) > 0 && (len(live) == len(flows) || rng.Intn(3) == 0) {
				top := live[len(live)-1]
				s.unplace(top.f, top.set)
				live = live[:len(live)-1]
				continue
			}
			f, set, path := randomPlacement()
			if s.pathOf[f] != nil || !scanFits(set, s.srcs[f], path) {
				continue
			}
			s.place(f, s.srcs[f], set, path)
			live = append(live, placement{f, set, path})
		}
		for k := len(live) - 1; k >= 0; k-- {
			s.unplace(live[k].f, live[k].set)
		}
		for set := range s.owned {
			if !s.owned[set].IsZero() {
				t.Errorf("%s: set %d still owns %v after unwinding", topoName(sw), set, s.owned[set].Indices())
			}
		}
		for i := range s.ownedBy {
			if !s.ownedBy[i].IsZero() {
				t.Errorf("%s: owned-by mask %d still holds %v after unwinding", topoName(sw), i, s.ownedBy[i].Indices())
			}
		}
		s.release()
		if fit == 0 || clash == 0 {
			t.Errorf("%s: %d fitting and %d clashing queries — both outcomes must be exercised", topoName(sw), fit, clash)
		}
	}
}
