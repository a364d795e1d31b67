package search

import (
	"context"
	"errors"
	"testing"
	"time"

	"switchsynth/internal/cases"
	"switchsynth/internal/contam"
	"switchsynth/internal/spec"
)

// anytimeSpec is a 16-pin instance big enough that a millisecond budget
// cannot prove optimality but small enough that greedy first-fit is
// instant.
func anytimeSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "anytime",
		SwitchPins: 16,
		Modules:    []string{"a", "b", "c", "o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9"},
		Flows: []spec.Flow{
			{From: "a", To: "o1"}, {From: "a", To: "o2"}, {From: "a", To: "o3"},
			{From: "b", To: "o4"}, {From: "b", To: "o5"}, {From: "b", To: "o6"},
			{From: "c", To: "o7"}, {From: "c", To: "o8"}, {From: "c", To: "o9"},
		},
		Binding: spec.Unfixed,
	}
}

func TestAnytimeDegradedUnderTinyLimit(t *testing.T) {
	res, err := Solve(anytimeSpec(), Options{TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatalf("anytime contract violated: err = %v, want a degraded plan", err)
	}
	if res.Proven {
		return // genuinely proved inside 1ms; nothing degraded to check
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

func TestAnytimeProvenPlanHasZeroGap(t *testing.T) {
	sp := &spec.Spec{
		Name:       "anytime-proven",
		SwitchPins: 8,
		Modules:    []string{"in", "o1", "o2"},
		Flows:      []spec.Flow{{From: "in", To: "o1"}, {From: "in", To: "o2"}},
		Binding:    spec.Unfixed,
	}
	res, err := Solve(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || res.Degraded {
		t.Fatalf("Proven = %v, Degraded = %v, want proven", res.Proven, res.Degraded)
	}
	if res.LowerBound != res.Objective || res.Gap != 0 {
		t.Errorf("proven plan: LowerBound = %v (objective %v), Gap = %v", res.LowerBound, res.Objective, res.Gap)
	}
}

func TestCancelledContextSkipsGreedyFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	res, err := Solve(hardSpec(), Options{Ctx: ctx})
	if err == nil {
		if res.Proven {
			return // solved before the cancel landed
		}
		if !res.Degraded {
			t.Error("unproven incumbent not tagged Degraded")
		}
		return
	}
	// No incumbent: cancellation must surface as ErrTimeout without a
	// greedy plan (the caller no longer wants any result).
	if !errors.Is(err, &ErrTimeout{}) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want *ErrTimeout wrapping context.Canceled", err)
	}
}

func TestGreedyFirstFitFeasible(t *testing.T) {
	res, err := GreedyFirstFit(anytimeSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven || !res.Degraded {
		t.Errorf("Proven = %v, Degraded = %v, want unproven degraded", res.Proven, res.Degraded)
	}
	if res.Engine != GreedyEngine {
		t.Errorf("Engine = %q, want %q", res.Engine, GreedyEngine)
	}
	if verr := contam.Verify(res); verr != nil {
		t.Errorf("greedy plan failed verification: %v", verr)
	}
	if res.Gap < 0 || res.Gap > 1 {
		t.Errorf("Gap = %v, want in [0, 1]", res.Gap)
	}
}

func TestGreedyFirstFitProvesInfeasibility(t *testing.T) {
	sp := &spec.Spec{
		Name:       "greedy-nosol",
		SwitchPins: 8,
		Modules:    []string{"in1", "in2", "out1", "out2"},
		Flows:      []spec.Flow{{From: "in1", To: "out1"}, {From: "in2", To: "out2"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"in1": 0, "out1": 2, "in2": 1, "out2": 3},
	}
	_, err := GreedyFirstFit(sp, Options{})
	var nosol *spec.ErrNoSolution
	if !errors.As(err, &nosol) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestGreedyFallbackOnExpiredDeadline(t *testing.T) {
	// A deadline that expires immediately leaves no time to find an
	// incumbent; the greedy fallback must still produce a verified plan.
	res, err := Solve(anytimeSpec(), Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatalf("err = %v, want a greedy fallback plan", err)
	}
	if !res.Degraded {
		t.Error("fallback plan not tagged Degraded")
	}
	if verr := contam.Verify(res); verr != nil {
		t.Errorf("fallback plan failed verification: %v", verr)
	}
}

func TestGreedyFallbackDisabled(t *testing.T) {
	_, err := Solve(anytimeSpec(), Options{TimeLimit: time.Nanosecond, GreedyBudget: -1})
	if err == nil {
		// An incumbent can still sneak in before the first deadline check.
		return
	}
	if !errors.Is(err, &ErrTimeout{}) {
		t.Fatalf("err = %v, want *ErrTimeout with fallback disabled", err)
	}
}

// TestNoTimeoutAtTinyLimit: at a 1 ns limit, every campaign instance —
// the 16-pin stress cases, the crossbar and FPVA campaigns and Table 4.3,
// under the clockwise and unfixed bindings and, where the spec carries
// pins, the fixed one — ends in a plan or an infeasibility proof, never
// *ErrTimeout: the greedy fallback answers whatever the search did not
// reach. The service keeps no per-key protection against keys that burn
// a worker without producing a plan because, with the fallback, no such
// key occurs among these instances; a change that removes the fallback
// fails here and must show that the protection is still unnecessary.
func TestNoTimeoutAtTinyLimit(t *testing.T) {
	var all []cases.Case
	all = append(all, cases.ArtificialSized(12, 7, []int{16})...)
	all = append(all, cases.Artificial(90, 1)...)
	all = append(all, cases.ArtificialFPVA(200, 11)...)
	all = append(all, cases.Table43()...)
	var runs, plans, proofs int
	for _, c := range all {
		bindings := []spec.BindingPolicy{spec.Clockwise, spec.Unfixed}
		if len(c.Spec.FixedPins) > 0 {
			bindings = append(bindings, spec.Fixed)
		}
		for _, b := range bindings {
			runs++
			_, err := Solve(c.WithBinding(b), Options{TimeLimit: time.Nanosecond})
			var nosol *spec.ErrNoSolution
			switch {
			case err == nil:
				plans++
			case errors.As(err, &nosol):
				proofs++
			default:
				t.Errorf("%s (%s): err = %v, want a plan or *spec.ErrNoSolution", c.Spec.Name, b, err)
			}
		}
	}
	t.Logf("%d runs at a 1 ns limit: %d plans, %d infeasibility proofs", runs, plans, proofs)
}
