package search

import (
	"context"
	"errors"
	"testing"
	"time"

	"switchsynth/internal/spec"
)

func TestGreedyBudgetResolution(t *testing.T) {
	tests := []struct {
		name string
		in   time.Duration
		want time.Duration
	}{
		{"zero means default", 0, DefaultGreedyBudget},
		{"negative disables", -1, 0},
		{"very negative disables", -5 * time.Second, 0},
		{"positive passes through", 42 * time.Millisecond, 42 * time.Millisecond},
		{"sub-millisecond passes through", 10 * time.Microsecond, 10 * time.Microsecond},
	}
	for _, tc := range tests {
		if got := (Options{GreedyBudget: tc.in}).greedyBudget(); got != tc.want {
			t.Errorf("%s: greedyBudget(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

// fallbackSpec is a saturated 16-pin instance (a module on every pin)
// whose first feasible leaf sits thousands of nodes deep: an immediately
// expired deadline is guaranteed to fire before any incumbent exists,
// forcing the greedy-fallback decision.
func fallbackSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "fallback-sat16",
		SwitchPins: 16,
		Modules: []string{
			"a", "b", "c", "d",
			"o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9", "o10", "o11", "o12",
		},
		Flows: []spec.Flow{
			{From: "a", To: "o1"}, {From: "a", To: "o2"}, {From: "a", To: "o3"},
			{From: "b", To: "o4"}, {From: "b", To: "o5"}, {From: "b", To: "o6"},
			{From: "c", To: "o7"}, {From: "c", To: "o8"}, {From: "c", To: "o9"},
			{From: "d", To: "o10"}, {From: "d", To: "o11"}, {From: "d", To: "o12"},
		},
		Conflicts: [][2]int{
			{0, 3}, {1, 4}, {2, 5}, {3, 6}, {4, 7}, {5, 8}, {6, 9}, {7, 10}, {8, 11},
			{0, 9}, {1, 10}, {2, 11}, {0, 6}, {3, 9}, {1, 7}, {4, 10},
		},
		Binding: spec.Unfixed,
	}
}

// TestExpiredDeadlineFallbackDisabled: a deadline that expires before
// any incumbent, with the fallback disabled, must surface ErrTimeout
// wrapping context.DeadlineExceeded.
func TestExpiredDeadlineFallbackDisabled(t *testing.T) {
	_, err := Solve(fallbackSpec(), Options{TimeLimit: time.Nanosecond, GreedyBudget: -1})
	var te *ErrTimeout
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause %v, want context.DeadlineExceeded", te.Cause)
	}
}

// TestExpiredDeadlineGreedyFallback: same expired deadline, fallback
// enabled: the anytime contract degrades to a greedy first-fit plan.
func TestExpiredDeadlineGreedyFallback(t *testing.T) {
	res, err := Solve(fallbackSpec(), Options{TimeLimit: time.Nanosecond, GreedyBudget: 5 * time.Second})
	if err != nil {
		t.Fatalf("fallback did not rescue the expired deadline: %v", err)
	}
	if res.Engine != GreedyEngine {
		t.Errorf("Engine = %q, want %q", res.Engine, GreedyEngine)
	}
	if res.Proven || !res.Degraded {
		t.Errorf("Proven = %v, Degraded = %v, want unproven degraded", res.Proven, res.Degraded)
	}
}
