package search

import (
	"context"
	"errors"
	"testing"
	"time"

	"switchsynth/internal/spec"
)

// hardSpec is large enough that the solver cannot finish before noticing
// a cancelled context or a short deadline: the saturated 16-pin
// clockwise ring without its flow m0→m14, with its flows in canonical
// order — the search tier's ring16-drop9 row, about two seconds to
// prove. The order matters: the same flows in the ring's own order
// prove in ~0.1 s.
func hardSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "ctx-hard",
		SwitchPins: 16,
		Modules: []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7",
			"m8", "m9", "m10", "m11", "m12", "m13", "m15"},
		Flows: []spec.Flow{
			{From: "m0", To: "m7"}, {From: "m12", To: "m13"}, {From: "m12", To: "m5"},
			{From: "m3", To: "m1"}, {From: "m3", To: "m15"}, {From: "m3", To: "m8"},
			{From: "m6", To: "m10"}, {From: "m6", To: "m2"}, {From: "m9", To: "m11"},
			{From: "m9", To: "m4"},
		},
		Binding: spec.Clockwise,
	}
}

func TestSolveContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead on entry
	_, err := Solve(hardSpec(), Options{Ctx: ctx})
	var te *ErrTimeout
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *ErrTimeout", err)
	}
	if te.SpecName != "ctx-hard" {
		t.Errorf("SpecName = %q", te.SpecName)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause %v does not unwrap to context.Canceled", te.Cause)
	}
}

// TestSolveContextDeadline requires the deadline to cut the solve: the
// answer is either *ErrTimeout or an unproven anytime incumbent. A
// proven plan means hardSpec proves inside the deadline and no longer
// exercises the cut, so the test fails rather than pass vacuously.
func TestSolveContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(hardSpec(), Options{Ctx: ctx})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("solver ignored context deadline (%v)", elapsed)
	}
	switch {
	case err != nil:
		if !errors.Is(err, &ErrTimeout{}) {
			t.Fatalf("err = %v, want *ErrTimeout", err)
		}
	case res == nil:
		t.Fatal("nil result without an error")
	case res.Proven:
		t.Fatalf("hardSpec proved in %v, inside the deadline: the deadline never fired", res.Runtime)
	}
}

func TestErrTimeoutErgonomics(t *testing.T) {
	base := &ErrTimeout{SpecName: "x", Cause: context.DeadlineExceeded}

	// Is matches any *ErrTimeout, regardless of field values.
	if !errors.Is(base, &ErrTimeout{}) {
		t.Error("Is does not match the zero *ErrTimeout sentinel")
	}
	wrapped := errorsJoinLike(base)
	if !errors.Is(wrapped, &ErrTimeout{}) {
		t.Error("Is fails through wrapping")
	}

	// As extracts the typed error through wrapping.
	var te *ErrTimeout
	if !errors.As(wrapped, &te) || te.SpecName != "x" {
		t.Errorf("As extracted %+v", te)
	}

	// Unwrap surfaces the cause; a nil cause defaults to deadline-exceeded
	// so errors.Is(err, context.DeadlineExceeded) always works.
	if !errors.Is(base, context.DeadlineExceeded) {
		t.Error("cause not reachable via Is")
	}
	bare := &ErrTimeout{SpecName: "y"}
	if !errors.Is(bare, context.DeadlineExceeded) {
		t.Error("nil cause does not default to context.DeadlineExceeded")
	}
	cancelled := &ErrTimeout{SpecName: "z", Cause: context.Canceled}
	if !errors.Is(cancelled, context.Canceled) || errors.Is(cancelled, context.DeadlineExceeded) {
		t.Error("explicit cause not honored")
	}

	// ErrTimeout is not mistaken for other error types.
	if errors.Is(errors.New("plain"), &ErrTimeout{}) {
		t.Error("plain error matched *ErrTimeout")
	}
}

// errorsJoinLike wraps err one level the way callers typically do.
func errorsJoinLike(err error) error {
	return &wrapErr{err}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }
