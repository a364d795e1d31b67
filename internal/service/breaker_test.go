package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/lru"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

func TestBreakerOpensShedsAndRecovers(t *testing.T) {
	base := solveOnce(t, serviceSpec("breaker"))
	var healthy atomic.Bool
	e := newTestEngine(t, Config{
		Workers:          1,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		if healthy.Load() {
			return base, nil
		}
		return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
	}
	sp := func() *spec.Spec { return serviceSpec("breaker") }

	// Two consecutive timeouts trip the threshold-2 breaker.
	for i := 0; i < 2; i++ {
		if _, err := e.Do(context.Background(), sp(), switchsynth.Options{}); !errors.Is(err, &search.ErrTimeout{}) {
			t.Fatalf("request %d: err = %v, want timeout", i, err)
		}
	}
	_, err := e.Do(context.Background(), sp(), switchsynth.Options{})
	var over *ErrOverloaded
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want *ErrOverloaded after %d timeouts", err, 2)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", over.RetryAfter)
	}
	if e.Snapshot().JobsShed == 0 {
		t.Error("shed request not counted")
	}
	if e.Snapshot().BreakersOpen != 1 {
		t.Errorf("BreakersOpen = %d, want 1", e.Snapshot().BreakersOpen)
	}

	// After the cooldown a half-open probe is admitted; it still fails,
	// so the breaker re-opens immediately (no threshold accumulation).
	time.Sleep(60 * time.Millisecond)
	if _, err := e.Do(context.Background(), sp(), switchsynth.Options{}); !errors.Is(err, &search.ErrTimeout{}) {
		t.Fatalf("probe err = %v, want timeout", err)
	}
	if _, err := e.Do(context.Background(), sp(), switchsynth.Options{}); !errors.Is(err, &ErrOverloaded{}) {
		t.Fatalf("err after failed probe = %v, want *ErrOverloaded", err)
	}

	// A successful probe closes the breaker for good.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		resp, err := e.Do(context.Background(), sp(), switchsynth.Options{})
		if err != nil {
			t.Fatalf("recovered request %d: %v", i, err)
		}
		if resp.Synthesis == nil {
			t.Fatalf("recovered request %d has no synthesis", i)
		}
	}
	if got := e.Snapshot().BreakersOpen; got != 0 {
		t.Errorf("BreakersOpen = %d after recovery, want 0", got)
	}
}

func TestBreakerDisabledByNegativeThreshold(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, BreakerThreshold: -1})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Do(context.Background(), serviceSpec("nobreaker"), switchsynth.Options{}); !errors.Is(err, &search.ErrTimeout{}) {
			t.Fatalf("request %d: err = %v, want timeout (breaker disabled)", i, err)
		}
	}
	if shed := e.Snapshot().JobsShed; shed != 0 {
		t.Errorf("JobsShed = %d with breaker disabled", shed)
	}
}

func TestNegativeCacheReplaysInfeasibilityProofs(t *testing.T) {
	var solves atomic.Int64
	e := newTestEngine(t, Config{Workers: 1})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		return nil, &spec.ErrNoSolution{SpecName: sp.Name, Policy: sp.Binding}
	}
	var nosol *spec.ErrNoSolution
	for i := 0; i < 3; i++ {
		if _, err := e.Do(context.Background(), serviceSpec("infeasible"), switchsynth.Options{}); !errors.As(err, &nosol) {
			t.Fatalf("request %d: err = %v, want ErrNoSolution", i, err)
		}
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("solves = %d, want 1 (proof should replay from the negative cache)", got)
	}
	snap := e.Snapshot()
	if snap.NegCacheHits != 2 {
		t.Errorf("NegCacheHits = %d, want 2", snap.NegCacheHits)
	}
	if snap.JobsInfeasible != 3 {
		t.Errorf("JobsInfeasible = %d, want 3", snap.JobsInfeasible)
	}
}

func TestCacheCorruptionHeals(t *testing.T) {
	base := solveOnce(t, serviceSpec("heal"))
	var solves atomic.Int64
	inj := faultinject.New(1).
		Set(faultinject.CacheCorrupt, faultinject.Rule{Probability: 1})
	e := newTestEngine(t, Config{Workers: 1, FaultInjector: inj})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		return base, nil
	}

	// First request: miss, solve, corrupted entry stored — but the
	// response is assembled from the flight's pristine copy.
	first, err := e.Do(context.Background(), serviceSpec("heal"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if verr := switchsynth.Verify(first.Synthesis.Result); verr != nil {
		t.Fatalf("first plan failed verification: %v", verr)
	}

	// Second request hits the corrupted entry, heals it, re-solves, and
	// still serves a verified plan.
	second, err := e.Do(context.Background(), serviceSpec("heal"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if verr := switchsynth.Verify(second.Synthesis.Result); verr != nil {
		t.Fatalf("healed plan failed verification: %v", verr)
	}
	snap := e.Snapshot()
	if snap.CacheHealed == 0 {
		t.Error("corrupted entry was never healed")
	}
	if solves.Load() < 2 {
		t.Errorf("solves = %d, want >= 2 (heal re-solves)", solves.Load())
	}
}

// TestBreakerStateBoundedOverDistinctFailingKeys floods the breaker
// with more distinct first-seen keys than it keeps state for, each
// failing once and never solved again: the state stays within the bound
// (1024 keys, internal/admission), and an open breaker inside it still
// sheds with *ErrOverloaded.
func TestBreakerStateBoundedOverDistinctFailingKeys(t *testing.T) {
	const bound, keys = 1024, 1100
	e := newTestEngine(t, Config{Workers: 2, BreakerThreshold: 1, BreakerCooldown: time.Minute})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
	}
	hard := func(i int) *spec.Spec {
		sp := serviceSpec("hard")
		sp.Alpha = float64(i + 1) // one canonical key per i
		return sp
	}
	for i := 0; i < keys; i++ {
		if _, err := e.Do(context.Background(), hard(i), switchsynth.Options{}); !errors.Is(err, &search.ErrTimeout{}) {
			t.Fatalf("key %d: err = %v, want timeout", i, err)
		}
	}
	if open := e.Snapshot().BreakersOpen; open > bound {
		t.Errorf("BreakersOpen = %d after %d distinct failing keys, want <= %d", open, keys, bound)
	}
	_, err := e.Do(context.Background(), hard(keys-1), switchsynth.Options{})
	var over *ErrOverloaded
	if !errors.As(err, &over) || over.RetryAfter <= 0 {
		t.Errorf("err = %v, want *ErrOverloaded with a RetryAfter from the open breaker", err)
	}
}

func TestNegCacheBounded(t *testing.T) {
	c := lru.New[string, *spec.ErrNoSolution](2, nil)
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, &spec.ErrNoSolution{SpecName: k})
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("newest entry missing")
	}
}
