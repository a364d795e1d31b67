package search

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"switchsynth/internal/contam"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// parallelSpecs are the determinism corpus: every binding policy, with
// and without conflicts, trivial and branchy instances.
func parallelSpecs() []*spec.Spec {
	return []*spec.Spec{
		{
			Name:       "par-single",
			SwitchPins: 8,
			Modules:    []string{"in", "out"},
			Flows:      []spec.Flow{{From: "in", To: "out"}},
			Binding:    spec.Unfixed,
		},
		{
			Name:       "par-conflict",
			SwitchPins: 8,
			Modules:    []string{"a", "b", "x", "y"},
			Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
			Conflicts:  [][2]int{{0, 1}},
			Binding:    spec.Unfixed,
		},
		{
			Name:       "par-fixed",
			SwitchPins: 8,
			Modules:    []string{"in", "mid", "out"},
			Flows:      []spec.Flow{{From: "in", To: "mid"}, {From: "in", To: "out"}},
			Binding:    spec.Fixed,
			FixedPins:  map[string]int{"in": 0, "mid": 3, "out": 5},
		},
		{
			Name:       "par-clockwise",
			SwitchPins: 8,
			Modules:    []string{"a", "x", "b", "y"},
			Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
			Binding:    spec.Clockwise,
		},
		{
			Name:       "par-branchy",
			SwitchPins: 12,
			Modules:    []string{"a", "b", "o1", "o2", "o3", "o4"},
			Flows: []spec.Flow{
				{From: "a", To: "o1"}, {From: "a", To: "o2"},
				{From: "b", To: "o3"}, {From: "b", To: "o4"},
			},
			Conflicts: [][2]int{{0, 2}, {1, 3}},
			Binding:   spec.Unfixed,
		},
	}
}

// samePlan asserts bit-identical solver output: every field that the
// campaign report or a cache key could observe must match exactly —
// including float costs, which the determinism contract promises to the
// last bit.
func samePlan(t *testing.T, name string, want, got *spec.Result) {
	t.Helper()
	if want.Objective != got.Objective || want.Length != got.Length {
		t.Errorf("%s: objective/length diverged: (%v, %v) vs (%v, %v)",
			name, want.Objective, want.Length, got.Objective, got.Length)
	}
	if want.NumSets != got.NumSets || want.Proven != got.Proven || want.Engine != got.Engine {
		t.Errorf("%s: sets/proven/engine diverged: (%d,%v,%q) vs (%d,%v,%q)",
			name, want.NumSets, want.Proven, want.Engine, got.NumSets, got.Proven, got.Engine)
	}
	if want.UsedEdgeMask != got.UsedEdgeMask {
		t.Errorf("%s: used-edge masks diverged", name)
	}
	if len(want.PinOf) != len(got.PinOf) {
		t.Fatalf("%s: PinOf sizes diverged: %v vs %v", name, want.PinOf, got.PinOf)
	}
	for m, p := range want.PinOf {
		if got.PinOf[m] != p {
			t.Errorf("%s: module %q pin %d vs %d", name, m, p, got.PinOf[m])
		}
	}
	if len(want.Routes) != len(got.Routes) {
		t.Fatalf("%s: route counts diverged", name)
	}
	for i := range want.Routes {
		w, g := want.Routes[i], got.Routes[i]
		if w.Flow != g.Flow || w.Set != g.Set || !slices.Equal(w.Path.Verts, g.Path.Verts) {
			t.Errorf("%s: route %d diverged: %+v vs %+v", name, i, w, g)
		}
	}
}

// TestParallelMatchesSequential is the bit-determinism gate: for every
// corpus spec, every worker count must reproduce the sequential plan
// exactly — same pins, same routes, same sets, same floats.
func TestParallelMatchesSequential(t *testing.T) {
	for _, sp := range parallelSpecs() {
		seq, err := Solve(sp, Options{})
		if err != nil {
			t.Fatalf("%s sequential: %v", sp.Name, err)
		}
		if verr := contam.Verify(seq); verr != nil {
			t.Fatalf("%s sequential verify: %v", sp.Name, verr)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			par, err := Solve(sp, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sp.Name, workers, err)
			}
			if verr := contam.Verify(par); verr != nil {
				t.Fatalf("%s workers=%d verify: %v", sp.Name, workers, verr)
			}
			samePlan(t, sp.Name, seq, par)
		}
	}
}

// TestParallelTieBreakCanonical hammers a tie-rich instance (a single
// flow on a symmetric switch has many equal-cost optima) repeatedly: the
// (cost, unit) tie-break must always pick the sequential DFS's first
// optimal leaf no matter how the workers interleave.
func TestParallelTieBreakCanonical(t *testing.T) {
	sp := &spec.Spec{
		Name:       "par-ties",
		SwitchPins: 12,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    spec.Unfixed,
	}
	seq, err := Solve(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		par, err := Solve(sp, Options{Workers: 4})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		samePlan(t, sp.Name, seq, par)
	}
}

// TestParallelAnytimeDegraded checks that the PR-2 anytime contract
// survives the parallel driver: a too-small deadline yields either a
// proven plan or a verified degraded one with sane bound metadata —
// never a bare error.
func TestParallelAnytimeDegraded(t *testing.T) {
	res, err := Solve(anytimeSpec(), Options{TimeLimit: 2 * time.Millisecond, Workers: 4})
	if err != nil {
		t.Fatalf("anytime contract violated under parallel driver: %v", err)
	}
	if res.Proven {
		return
	}
	if !res.Degraded {
		t.Error("unproven plan not tagged Degraded")
	}
	if verr := contam.Verify(res); verr != nil {
		t.Errorf("degraded plan failed verification: %v", verr)
	}
	if res.LowerBound <= 0 || res.LowerBound > res.Objective+1e-9 {
		t.Errorf("LowerBound = %v, want in (0, %v]", res.LowerBound, res.Objective)
	}
	if res.Gap < 0 || res.Gap > 1 {
		t.Errorf("Gap = %v, want in [0, 1]", res.Gap)
	}
}

// TestParallelCancelledContext: explicit cancellation must stop the
// whole pool. Like the sequential driver, the anytime contract allows a
// degraded incumbent if one was found before the workers noticed the
// cancel; otherwise the error must be ErrTimeout wrapping
// context.Canceled with no greedy fallback.
func TestParallelCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(hardSpec(), Options{Ctx: ctx, Workers: 4})
	if err == nil {
		if !res.Proven && !res.Degraded {
			t.Error("unproven incumbent not tagged Degraded")
		}
		return
	}
	if !errors.Is(err, &ErrTimeout{}) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want *ErrTimeout wrapping context.Canceled", err)
	}
	var te *ErrTimeout
	if errors.As(err, &te) && te.SpecName != "ctx-hard" {
		t.Errorf("SpecName = %q", te.SpecName)
	}
}

// TestGreedyIgnoresWorkers: the first-fit mode is documented sequential;
// a worker budget must not change its plan.
func TestGreedyIgnoresWorkers(t *testing.T) {
	base, err := GreedyFirstFit(anytimeSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	withWorkers, err := GreedyFirstFit(anytimeSpec(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "greedy", base, withWorkers)
}

// TestClaimOrderPermutation: the bit-reversal claim order must be a
// permutation of 0..n-1 for any frontier size, pow2 or not.
func TestClaimOrderPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 64, 65, 100, 127, 128} {
		order := claimOrder(n)
		if len(order) != n {
			t.Fatalf("n=%d: len = %d", n, len(order))
		}
		seen := make([]bool, n)
		for _, v := range order {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: bad or duplicate index %d in %v", n, v, order)
			}
			seen[v] = true
		}
	}
	// Diversification property: for pow2 sizes the second claim lands in
	// the far half of the frontier, not adjacent to the first.
	if order := claimOrder(64); order[0] != 0 || order[1] != 32 {
		t.Errorf("claimOrder(64) starts %v, want bit-reversal [0 32 ...]", order[:2])
	}
}

// TestCountersAdvance: solving must advance the package node telemetry
// (the /metrics gauges are fed from it).
func TestCountersAdvance(t *testing.T) {
	nodes0 := Counters()
	if _, err := Solve(parallelSpecs()[4], Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	nodes1 := Counters()
	if nodes1 <= nodes0 {
		t.Errorf("solver_nodes_total did not advance: %d -> %d", nodes0, nodes1)
	}
}

// A spec with fewer flows than the frontier depth is carved entirely into
// complete-assignment units, so the workers' DFS only accepts leaves; the
// node count must still advance, via the frontier expansion itself.
func TestCountersAdvanceShallowFrontier(t *testing.T) {
	sp := &spec.Spec{
		Name:       "shallow",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows: []spec.Flow{
			{From: "a", To: "x"},
			{From: "b", To: "y"},
		},
		Conflicts: [][2]int{{0, 1}},
		Binding:   spec.Unfixed,
	}
	nodes0 := Counters()
	if _, err := Solve(sp, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	nodes1 := Counters()
	if nodes1 <= nodes0 {
		t.Errorf("solver_nodes_total did not advance on a shallow frontier: %d -> %d", nodes0, nodes1)
	}
}

// TestCountersFrontierSingleCount pins the node-accounting contract of
// the iterative-deepening frontier: however many deepening rounds
// expandFrontier runs, each interior node above the final frontier depth
// is counted exactly once — the same accounting the sequential DFS gives
// those nodes. A frontier that re-counted the shallow rounds would
// inflate solver_nodes_total whenever a request both expands and replays.
func TestCountersFrontierSingleCount(t *testing.T) {
	deepened := false
	for _, sp := range parallelSpecs() {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		sw, pt, err := topo.SharedGrid(sp.SwitchPins)
		if err != nil {
			t.Fatal(err)
		}

		a := newSolver(sp, sw, pt, Options{Workers: 2})
		a.bindFixed()
		units := a.expandFrontier()
		got := a.nodes
		a.release()
		if len(units) == 0 {
			t.Fatalf("%s: empty frontier", sp.Name)
		}
		depth := len(units[0].steps)
		if depth > 1 {
			deepened = true
		}

		// Reference: one expansion pass straight at the final depth.
		b := newSolver(sp, sw, pt, Options{Workers: 2})
		b.bindFixed()
		var ref []workUnit
		b.expand(0, depth, make([]unitStep, 0, depth), &ref)
		want := b.nodes
		b.release()

		if len(ref) != len(units) {
			t.Errorf("%s: deepened frontier has %d units, single depth-%d pass %d",
				sp.Name, len(units), depth, len(ref))
		}
		if got != want {
			t.Errorf("%s: expandFrontier counted %d nodes, single depth-%d pass counts %d (iterative deepening double-counts interior nodes)",
				sp.Name, got, depth, want)
		}
	}
	if !deepened {
		t.Fatal("no corpus spec deepened past depth 1; the single-count assertion exercised nothing")
	}
}
