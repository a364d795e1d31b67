package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

func serviceSpec(name string) *spec.Spec {
	return &spec.Spec{
		Name:       name,
		SwitchPins: 8,
		Modules:    []string{"sample", "buffer", "mix1", "mix2"},
		Flows: []spec.Flow{
			{From: "sample", To: "mix1"},
			{From: "buffer", To: "mix2"},
		},
		Conflicts: [][2]int{{0, 1}},
		Binding:   spec.Unfixed,
	}
}

// permutedServiceSpec is serviceSpec with modules, flows, and conflict
// orientation shuffled — semantically the same problem.
func permutedServiceSpec(name string) *spec.Spec {
	return &spec.Spec{
		Name:       name,
		SwitchPins: 8,
		Modules:    []string{"mix2", "sample", "mix1", "buffer"},
		Flows: []spec.Flow{
			{From: "buffer", To: "mix2"},
			{From: "sample", To: "mix1"},
		},
		Conflicts: [][2]int{{1, 0}},
		Binding:   spec.Unfixed,
	}
}

// solveOnce solves sp for real so fake solvers can serve a valid plan.
func solveOnce(t *testing.T, sp *spec.Spec) *spec.Result {
	t.Helper()
	res, err := switchsynth.SolvePlan(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatalf("SolvePlan(%s): %v", sp.Name, err)
	}
	return res
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.CloseNow)
	return e
}

func TestEngineMissThenHitThenIsomorphicHit(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})

	cold, err := e.Do(context.Background(), serviceSpec("a"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Coalesced {
		t.Errorf("first request hit=%v coalesced=%v, want cold", cold.CacheHit, cold.Coalesced)
	}
	if err := switchsynth.Verify(cold.Synthesis.Result); err != nil {
		t.Fatalf("cold plan verify: %v", err)
	}

	warm, err := e.Do(context.Background(), serviceSpec("a"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("identical resubmission missed the cache")
	}

	iso, err := e.Do(context.Background(), permutedServiceSpec("rotated"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !iso.CacheHit {
		t.Error("isomorphic spec missed the cache")
	}
	if iso.Key != warm.Key {
		t.Errorf("isomorphic keys differ: %s vs %s", iso.Key, warm.Key)
	}
	// The adapted plan must verify against the *requester's* spec.
	if iso.Synthesis.Result.Spec.Name != "rotated" {
		t.Errorf("adapted plan kept the cached spec %q", iso.Synthesis.Result.Spec.Name)
	}
	if err := switchsynth.Verify(iso.Synthesis.Result); err != nil {
		t.Fatalf("adapted plan verify: %v", err)
	}

	snap := e.Snapshot()
	if snap.CacheMisses != 1 || snap.CacheHits != 2 {
		t.Errorf("misses=%d hits=%d, want 1/2", snap.CacheMisses, snap.CacheHits)
	}
}

func TestEngineDedupCoalescesConcurrentSolves(t *testing.T) {
	base := solveOnce(t, serviceSpec("dedup"))
	var solves atomic.Int64
	release := make(chan struct{})

	e := newTestEngine(t, Config{Workers: 4})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		<-release
		return base, nil
	}

	const waiters = 16
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := e.Do(context.Background(), serviceSpec("dedup"), switchsynth.Options{})
			if err != nil {
				errs <- err
				return
			}
			if resp.Coalesced {
				coalesced.Add(1)
			}
		}()
	}
	// Let the requests pile onto the in-flight solve, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := solves.Load(); got != 1 {
		t.Errorf("%d solves for %d identical concurrent requests, want 1", got, waiters)
	}
	if coalesced.Load() == 0 {
		t.Error("no request reported coalescing onto the in-flight solve")
	}
	snap := e.Snapshot()
	if snap.JobsCompleted != waiters {
		t.Errorf("completed=%d, want %d", snap.JobsCompleted, waiters)
	}
	if snap.DedupCoalesced+snap.CacheHits+snap.CacheMisses != waiters {
		t.Errorf("hit/miss/coalesce don't partition the requests: %+v", snap)
	}
}

// TestEngineConcurrentMixedLoad hammers the engine from N goroutines
// with a mix of cacheable specs, isomorphic variants, and specs whose
// solve times out, and checks the books balance afterwards.
func TestEngineConcurrentMixedLoad(t *testing.T) {
	base := solveOnce(t, serviceSpec("mixed"))
	var solves atomic.Int64
	e := newTestEngine(t, Config{Workers: 4, CacheSize: 8})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		time.Sleep(time.Millisecond)
		// Solves run on the nameless canonical spec: the timeout specs
		// are the ones without conflicts.
		if len(sp.Conflicts) == 0 {
			return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
		}
		return base, nil
	}

	const (
		goroutines = 8
		perG       = 25
	)
	var ok, timedOut, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var sp *spec.Spec
				switch i % 3 {
				case 0:
					sp = serviceSpec("mixed")
				case 1:
					sp = permutedServiceSpec("mixed-iso")
				default:
					// Timeout specs carry distinct conflicts so each is a
					// distinct canonical key — but identical across
					// goroutines, so dedup still applies.
					sp = serviceSpec(fmt.Sprintf("timeout-%d", i))
					sp.Conflicts = nil
					sp.Alpha = float64(i + 1)
				}
				resp, err := e.Do(context.Background(), sp, switchsynth.Options{})
				switch {
				case err == nil && resp.Synthesis != nil:
					ok.Add(1)
				case errors.Is(err, &search.ErrTimeout{}):
					timedOut.Add(1)
				default:
					failed.Add(1)
					t.Errorf("goroutine %d job %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if ok.Load()+timedOut.Load() != total {
		t.Errorf("ok=%d timedOut=%d failed=%d, want sum %d", ok.Load(), timedOut.Load(), failed.Load(), total)
	}
	if timedOut.Load() == 0 {
		t.Error("no timeouts observed in mixed load")
	}
	snap := e.Snapshot()
	if snap.JobsSubmitted != total {
		t.Errorf("submitted=%d, want %d", snap.JobsSubmitted, total)
	}
	if snap.JobsCompleted != ok.Load() {
		t.Errorf("completed=%d, want %d", snap.JobsCompleted, ok.Load())
	}
	if snap.JobsTimedOut != timedOut.Load() {
		t.Errorf("timedOut=%d, want %d", snap.JobsTimedOut, timedOut.Load())
	}
	// Timeouts are never cached, so every distinct timeout key solves at
	// least once per round; the cacheable pair solves exactly once.
	if solves.Load() >= total {
		t.Errorf("solves=%d — cache/dedup never kicked in", solves.Load())
	}
	if snap.SolveCount != solves.Load() {
		t.Errorf("latency observations %d != solves %d", snap.SolveCount, solves.Load())
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	base := solveOnce(t, serviceSpec("fine"))
	e := newTestEngine(t, Config{Workers: 1})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		if len(sp.Conflicts) == 0 { // the "boom" spec; solves see no names
			panic("synthetic optimizer crash")
		}
		return base, nil
	}

	crash := serviceSpec("boom")
	crash.Conflicts = nil // distinct canonical key from "fine"
	_, err := e.Do(context.Background(), crash, switchsynth.Options{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic failure", err)
	}

	// The single worker survived the panic and still serves.
	resp, err := e.Do(context.Background(), serviceSpec("fine"), switchsynth.Options{})
	if err != nil {
		t.Fatalf("engine dead after panic: %v", err)
	}
	if resp.Synthesis == nil {
		t.Fatal("no synthesis after panic recovery")
	}
	if e.Snapshot().JobsFailed == 0 {
		t.Error("panic not counted as a failed job")
	}
}

func TestEngineCloseDrainsAndRejects(t *testing.T) {
	e := New(Config{Workers: 2})
	if _, err := e.Do(context.Background(), serviceSpec("drain"), switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent

	// Cached entries are gone from the request path: the queue is closed.
	sp := serviceSpec("post-close")
	sp.Conflicts = nil
	_, err := e.Do(context.Background(), sp, switchsynth.Options{})
	if !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("err = %v, want ErrEngineClosed", err)
	}
}

func TestEngineCallerContextCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	e := newTestEngine(t, Config{Workers: 1})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		<-release
		return nil, errors.New("never reached in this test")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, serviceSpec("stuck"), switchsynth.Options{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not observe caller cancellation")
	}
}

func TestEngineInvalidSpecFailsFast(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	bad := serviceSpec("bad")
	bad.SwitchPins = 9
	_, err := e.Do(context.Background(), bad, switchsynth.Options{})
	var ve *spec.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *spec.ValidationError", err)
	}
	if got := e.Snapshot().JobsFailed; got != 1 {
		t.Errorf("failed=%d, want 1", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.workers() < 1 || c.queueDepth() != 4*c.workers() || c.cacheSize() != 1024 {
		t.Errorf("zero-value defaults wrong: w=%d q=%d c=%d", c.workers(), c.queueDepth(), c.cacheSize())
	}
	if c.defaultTimeLimit() != 30*time.Second {
		t.Errorf("default time limit = %v", c.defaultTimeLimit())
	}
	c = Config{CacheSize: -1, DefaultTimeLimit: -1}
	if c.cacheSize() != 0 || c.defaultTimeLimit() != 0 {
		t.Errorf("negative overrides wrong: c=%d t=%v", c.cacheSize(), c.defaultTimeLimit())
	}
}
