package wash

import (
	"testing"
	"time"

	"switchsynth/internal/cases"
	"switchsynth/internal/sim"
	"switchsynth/internal/spec"
	"switchsynth/internal/valve"
)

func TestWashRecoversInfeasibleFixedCase(t *testing.T) {
	// The nucleic-acid case is provably unsolvable under fixed binding
	// (Table 4.1); wash scheduling recovers it with at least one wash.
	c := cases.NucleicAcid()
	sp := c.WithBinding(spec.Fixed)
	plan, err := Schedule(sp, Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(plan.SharedPairs) == 0 {
		t.Fatal("the fixed binding forces sharing; SharedPairs should not be empty")
	}
	if plan.NumWashes == 0 {
		t.Error("sharing conflicts require at least one wash")
	}
	if plan.NumWashes >= plan.Result.NumSets {
		t.Errorf("washes = %d should be below sets = %d", plan.NumWashes, plan.Result.NumSets)
	}
}

func TestWashNotNeededWhenDisjoint(t *testing.T) {
	// A case whose optimum already separates the conflicting flows needs no
	// washes.
	sp := &spec.Spec{
		Name:       "no-wash",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"a": 0, "x": 1, "b": 4, "y": 5},
	}
	plan, err := Schedule(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if plan.NumWashes != 0 || len(plan.SharedPairs) != 0 {
		t.Errorf("expected wash-free plan, got %d washes, %d shared pairs",
			plan.NumWashes, len(plan.SharedPairs))
	}
}

func TestWashCrossingCase(t *testing.T) {
	// Conflicting flows forced through the centre: exactly one wash between
	// the two sets suffices.
	sp := &spec.Spec{
		Name:       "wash-crossing",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"a": 1, "x": 5, "b": 7, "y": 3},
	}
	plan, err := Schedule(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if plan.NumWashes != 1 {
		t.Errorf("washes = %d, want 1", plan.NumWashes)
	}
	if plan.Result.NumSets != 2 {
		t.Errorf("sets = %d, want 2", plan.Result.NumSets)
	}
}

func TestWashOrderingMinimizesWashes(t *testing.T) {
	// Three inlets a, b, c crossing the centre column pairwise: conflicts
	// (a,b) and (b,c) but not (a,c). Executing b between washes of a and c
	// as [a, b, c] needs 2 washes; the order [b, a, c] or [a, c, b] needs...
	// each shared pair needs separation: (a,b) and (b,c). Order [a, c, b]
	// gives intervals (a..b) = slots 0..2 and (c..b) = 1..2 → one wash at
	// slot 1 covers both? (a..b) spans 0-2 and includes slot 1 ✓. So the
	// optimal is 1 wash; the scheduler must find an order achieving it.
	sp := &spec.Spec{
		Name:       "wash-three",
		SwitchPins: 12,
		Modules:    []string{"a", "b", "c", "x", "y", "z"},
		Flows: []spec.Flow{
			{From: "a", To: "x"},
			{From: "b", To: "y"},
			{From: "c", To: "z"},
		},
		Conflicts: [][2]int{{0, 1}, {1, 2}},
		Binding:   spec.Fixed,
		// All three flows run top→bottom through the same column.
		FixedPins: map[string]int{"a": 1, "x": 7, "b": 10, "y": 4, "c": 0, "z": 2},
	}
	plan, err := Schedule(sp, Options{TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if plan.NumWashes > 2 {
		t.Errorf("washes = %d, want ≤ 2", plan.NumWashes)
	}
}

func TestWashInvalidSpec(t *testing.T) {
	if _, err := Schedule(&spec.Spec{SwitchPins: 7}, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestWashDeterministic(t *testing.T) {
	c := cases.NucleicAcid()
	sp := c.WithBinding(spec.Fixed)
	p1, err := Schedule(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Schedule(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.NumWashes != p2.NumWashes || len(p1.SharedPairs) != len(p2.SharedPairs) {
		t.Error("wash scheduling not deterministic")
	}
	for i := range p1.SetOrder {
		if p1.SetOrder[i] != p2.SetOrder[i] {
			t.Fatal("set order differs")
		}
	}
}

// TestWashPlansSimulateClean: the scheduler and the fluidic simulator
// agree. Each paper case without a contamination-free plan under the
// fixed or clockwise binding simulates clean in its scheduled order with
// its washes, and contaminates without them.
func TestWashPlansSimulateClean(t *testing.T) {
	for _, c := range []cases.Case{cases.NucleicAcid(), cases.MRNAIsolation()} {
		for _, b := range []spec.BindingPolicy{spec.Fixed, spec.Clockwise} {
			sp := c.WithBinding(b)
			plan, err := Schedule(sp, Options{TimeLimit: 30 * time.Second})
			if err != nil {
				t.Fatalf("%s/%v: %v", sp.Name, b, err)
			}
			va, err := valve.Analyze(plan.Result)
			if err != nil {
				t.Fatal(err)
			}
			washed, err := sim.Run(plan.Result, sim.Options{Valves: va, SetOrder: plan.SetOrder, WashAfter: plan.WashAfter})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range washed.Events {
				t.Errorf("%s/%v with washes: %v", sp.Name, b, e)
			}
			dirty, err := sim.Run(plan.Result, sim.Options{Valves: va, SetOrder: plan.SetOrder})
			if err != nil {
				t.Fatal(err)
			}
			if dirty.Count(sim.Contamination) == 0 {
				t.Errorf("%s/%v: the plan contaminates nothing without its %d washes", sp.Name, b, plan.NumWashes)
			}
			t.Logf("%s/%v: %d washes; %d contamination events without them", sp.Name, b, plan.NumWashes, dirty.Count(sim.Contamination))
		}
	}
}
