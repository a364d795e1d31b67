package model

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/contam"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// crossCheckLimit bounds each IQP solve in crossCheck. It is generous on
// purpose: a spec that stops proving inside it fails the cross-check
// loudly instead of passing without a comparison.
const crossCheckLimit = 2 * time.Minute

// crossCheck solves sp with both the faithful IQP encoding and the dedicated
// search engine and requires equal optima (the plans themselves may differ —
// optima are often degenerate).
func crossCheck(t *testing.T, sp *spec.Spec) {
	t.Helper()
	iqp, errM := Solve(sp, Options{TimeLimit: crossCheckLimit})
	se, errS := search.Solve(sp, search.Options{})

	var noSolM, noSolS *spec.ErrNoSolution
	mInfeas := errors.As(errM, &noSolM)
	sInfeas := errors.As(errS, &noSolS)
	if mInfeas != sInfeas {
		t.Fatalf("engines disagree on feasibility: iqp err=%v, search err=%v", errM, errS)
	}
	if mInfeas {
		return
	}
	if errM != nil {
		t.Fatalf("iqp: %v", errM)
	}
	if errS != nil {
		t.Fatalf("search: %v", errS)
	}
	if err := contam.Verify(iqp); err != nil {
		t.Fatalf("iqp plan invalid: %v", err)
	}
	if err := contam.Verify(se); err != nil {
		t.Fatalf("search plan invalid: %v", err)
	}
	if !iqp.Proven {
		t.Fatalf("iqp hit its %s limit; cannot compare optima", crossCheckLimit)
	}
	if !approx(iqp.Objective, se.Objective) {
		t.Fatalf("optima differ: iqp %v (sets=%d len=%v), search %v (sets=%d len=%v)",
			iqp.Objective, iqp.NumSets, iqp.Length, se.Objective, se.NumSets, se.Length)
	}
}

func TestCrossCheckFixedSimple(t *testing.T) {
	crossCheck(t, &spec.Spec{
		Name:       "xc-fixed",
		SwitchPins: 8,
		Modules:    []string{"in", "out"},
		Flows:      []spec.Flow{{From: "in", To: "out"}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"in": 0, "out": 4},
	})
}

func TestCrossCheckFixedScheduling(t *testing.T) {
	// Crossing flows on fixed pins: both engines must schedule 2 sets.
	crossCheck(t, &spec.Spec{
		Name:       "xc-sched",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"a": 1, "x": 5, "b": 7, "y": 3},
	})
}

func TestCrossCheckFixedConflictInfeasible(t *testing.T) {
	crossCheck(t, &spec.Spec{
		Name:       "xc-nosol",
		SwitchPins: 8,
		Modules:    []string{"in1", "in2", "out1", "out2"},
		Flows:      []spec.Flow{{From: "in1", To: "out1"}, {From: "in2", To: "out2"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"in1": 0, "out1": 2, "in2": 1, "out2": 3},
	})
}

func TestCrossCheckFixedConflictFeasible(t *testing.T) {
	// Conflicting flows on opposite sides: disjoint shortest paths exist.
	crossCheck(t, &spec.Spec{
		Name:       "xc-conflict",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"a": 0, "x": 1, "b": 4, "y": 5},
	})
}

func TestCrossCheckFixedFanOut(t *testing.T) {
	crossCheck(t, &spec.Spec{
		Name:       "xc-fan",
		SwitchPins: 8,
		Modules:    []string{"in", "o1", "o2"},
		Flows:      []spec.Flow{{From: "in", To: "o1"}, {From: "in", To: "o2"}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"in": 0, "o1": 3, "o2": 6},
	})
}

func TestIQPPlanStructure(t *testing.T) {
	sp := &spec.Spec{
		Name:       "iqp-basic",
		SwitchPins: 8,
		Modules:    []string{"in", "out"},
		Flows:      []spec.Flow{{From: "in", To: "out"}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"in": 0, "out": 1},
	}
	res, err := Solve(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "iqp" {
		t.Errorf("engine = %q", res.Engine)
	}
	if !res.Proven {
		t.Error("tiny model should be proven optimal")
	}
	if err := contam.Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.NumSets != 1 || len(res.Routes) != 1 {
		t.Errorf("sets=%d routes=%d", res.NumSets, len(res.Routes))
	}
}

// TestIQPSynthesize is the path cmd/switchsynth and cmd/experiments take
// for -engine iqp: an IQP plan goes through switchsynth.Analyze like a
// branch-and-bound one.
func TestIQPSynthesize(t *testing.T) {
	sp := &spec.Spec{
		Name:       "iqp-engine",
		SwitchPins: 8,
		Modules:    []string{"in", "out"},
		Flows:      []spec.Flow{{From: "in", To: "out"}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"in": 0, "out": 1},
	}
	res, err := Solve(sp, Options{TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := switchsynth.Analyze(res, switchsynth.Options{PressureSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Engine != "iqp" {
		t.Errorf("engine = %q", syn.Engine)
	}
}

// TestIQPContextCancelled: a cancelled or expired context surfaces as
// the branch and bound's timeout type, with the spec name carried.
func TestIQPContextCancelled(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithTimeout(context.Background(), -time.Second)
	defer cancel2()
	sp := &spec.Spec{
		Name:       "demo",
		SwitchPins: 8,
		Modules:    []string{"sample", "buffer", "mix1", "mix2"},
		Flows:      []spec.Flow{{From: "sample", To: "mix1"}, {From: "buffer", To: "mix2"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Unfixed,
	}
	for _, tc := range []struct {
		ctx   context.Context
		cause error
	}{{cancelled, context.Canceled}, {expired, context.DeadlineExceeded}} {
		_, err := Solve(sp, Options{Ctx: tc.ctx})
		if !errors.Is(err, &switchsynth.ErrTimeout{}) || !errors.Is(err, tc.cause) {
			t.Errorf("err = %v, want *switchsynth.ErrTimeout wrapping %v", err, tc.cause)
		}
		var te *switchsynth.ErrTimeout
		if !errors.As(err, &te) || te.SpecName != "demo" {
			t.Errorf("spec name not carried: %+v", te)
		}
	}
}

func TestIQPInvalidSpec(t *testing.T) {
	if _, err := Solve(&spec.Spec{SwitchPins: 7}, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestCrossCheckUnfixedSingle(t *testing.T) {
	crossCheck(t, &spec.Spec{
		Name:       "xc-unfixed",
		SwitchPins: 8,
		Modules:    []string{"in", "out"},
		Flows:      []spec.Flow{{From: "in", To: "out"}},
		Binding:    spec.Unfixed,
	})
}

func TestCrossCheckUnfixedConflict(t *testing.T) {
	if os.Getenv("SWITCHSYNTH_SLOW_TESTS") == "" {
		t.Skip("set SWITCHSYNTH_SLOW_TESTS=1 to run the multi-minute IQP cross-checks")
	}
	crossCheck(t, &spec.Spec{
		Name:       "xc-unfixed-conf",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Unfixed,
	})
}

func TestCrossCheckClockwiseTwoFlows(t *testing.T) {
	if os.Getenv("SWITCHSYNTH_SLOW_TESTS") == "" {
		t.Skip("set SWITCHSYNTH_SLOW_TESTS=1 to run the multi-minute IQP cross-checks")
	}
	crossCheck(t, &spec.Spec{
		Name:       "xc-cw2",
		SwitchPins: 8,
		Modules:    []string{"a", "x", "b", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    spec.Clockwise,
	})
}

func TestCrossCheckClockwiseSingle(t *testing.T) {
	crossCheck(t, &spec.Spec{
		Name:       "xc-cw1",
		SwitchPins: 8,
		Modules:    []string{"in", "out"},
		Flows:      []spec.Flow{{From: "in", To: "out"}},
		Binding:    spec.Clockwise,
	})
}

func TestCrossCheckRandomFixedSpecs(t *testing.T) {
	// Property test: on random small fixed-binding specs the faithful IQP
	// encoding and the dedicated search agree on feasibility and optimum.
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 8; trial++ {
		nFlows := 1 + rng.Intn(3)
		nInlets := 1 + rng.Intn(2)
		if nInlets > nFlows {
			nInlets = nFlows
		}
		mods := make([]string, 0, nInlets+nFlows)
		for i := 0; i < nInlets; i++ {
			mods = append(mods, fmt.Sprintf("in%d", i))
		}
		flows := make([]spec.Flow, nFlows)
		for f := 0; f < nFlows; f++ {
			in := f % nInlets
			out := fmt.Sprintf("out%d", f)
			mods = append(mods, out)
			flows[f] = spec.Flow{From: fmt.Sprintf("in%d", in), To: out}
		}
		perm := rng.Perm(8)
		pins := make(map[string]int, len(mods))
		for i, m := range mods {
			pins[m] = perm[i]
		}
		var conflicts [][2]int
		for a := 0; a < nFlows; a++ {
			for b := a + 1; b < nFlows; b++ {
				if flows[a].From != flows[b].From && rng.Intn(3) == 0 {
					conflicts = append(conflicts, [2]int{a, b})
				}
			}
		}
		sp := &spec.Spec{
			Name:       fmt.Sprintf("xc-rand-%d", trial),
			SwitchPins: 8,
			Modules:    mods,
			Flows:      flows,
			Conflicts:  conflicts,
			Binding:    spec.Fixed,
			FixedPins:  pins,
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid spec: %v", trial, err)
		}
		crossCheck(t, sp)
	}
}
