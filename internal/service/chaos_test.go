package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/benchrec"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// chaosSeeds is how many deterministic fault schedules the suite replays.
const chaosSeeds = 25

// chaosSpec returns one of three distinct canonical keys so the runs mix
// cache hits, coalescing and fresh solves.
func chaosSpec(i int) *spec.Spec {
	sp := serviceSpec(fmt.Sprintf("chaos-%d", i%3))
	sp.Alpha = float64(i%3 + 1)
	return sp
}

// TestChaosEngineUnderInjectedFaults drives the engine through solver
// panics, slow solves, queue stalls and cache corruption — all from a
// seeded injector — and asserts the resilience invariants: every request
// returns (no deadlock), every error is one of the typed resilience
// errors, every served plan passes verification, every request ends in
// exactly one /metrics bucket, and shutting down leaks no goroutines.
// Run under -race.
func TestChaosEngineUnderInjectedFaults(t *testing.T) {
	base := solveOnce(t, chaosSpec(0))
	seeds := chaosSeeds
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkLeaks := checkGoroutineLeaks(t)
			inj := faultinject.New(int64(seed)).
				Set(faultinject.SolvePanic, faultinject.Rule{Probability: 0.15}).
				Set(faultinject.SolveSlow, faultinject.Rule{Probability: 0.3, Delay: 2 * time.Millisecond}).
				Set(faultinject.QueueStall, faultinject.Rule{Probability: 0.2, Delay: time.Millisecond}).
				Set(faultinject.CacheCorrupt, faultinject.Rule{Probability: 0.25})
			e := New(Config{
				Workers:         4,
				CacheSize:       4,
				BreakerCooldown: 20 * time.Millisecond,
				FaultInjector:   inj,
			})
			e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				// The canonicalized chaos specs all adapt from the same
				// base plan; injected faults supply the failures.
				return base, nil
			}

			const (
				goroutines = 4
				perG       = 15
			)
			var wg sync.WaitGroup
			var served, failed atomic.Int64
			fatal := make(chan string, goroutines*perG)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						resp, err := e.Do(context.Background(), chaosSpec(g*perG+i), switchsynth.Options{})
						if err != nil {
							failed.Add(1)
							if !errors.Is(err, &ErrSolvePanic{}) &&
								!errors.Is(err, &admission.ErrOverloaded{}) &&
								!errors.Is(err, &search.ErrTimeout{}) &&
								!errors.Is(err, ErrEngineClosed) {
								fatal <- fmt.Sprintf("untyped chaos error: %v", err)
							}
							continue
						}
						served.Add(1)
						// The core invariant: a served plan is NEVER
						// unverified, no matter what faults fired.
						if verr := switchsynth.Verify(resp.Synthesis.Result); verr != nil {
							fatal <- fmt.Sprintf("served an unverified plan: %v", verr)
						}
					}
				}(g)
			}

			waited := make(chan struct{})
			go func() { wg.Wait(); close(waited) }()
			select {
			case <-waited:
			case <-time.After(60 * time.Second):
				t.Fatal("chaos run deadlocked: requests still blocked after 60s")
			}
			close(fatal)
			for msg := range fatal {
				t.Error(msg)
			}

			snap := e.Snapshot()
			total := int64(goroutines * perG)
			if snap.JobsSubmitted != total {
				t.Errorf("submitted = %d, want %d", snap.JobsSubmitted, total)
			}
			if served.Load()+failed.Load() != total {
				t.Errorf("served %d + failed %d != %d", served.Load(), failed.Load(), total)
			}
			// At quiescence every submitted request ended in exactly one
			// terminal bucket.
			if sum := snap.JobsCompleted + snap.JobsFailed + snap.JobsTimedOut + snap.JobsShed +
				snap.JobsShedQueue + snap.JobsDrainRejected; sum != snap.JobsSubmitted {
				t.Errorf("completed %d + failed %d + timedOut %d + shed %d + shedQueue %d + drainRejected %d = %d, want submitted %d",
					snap.JobsCompleted, snap.JobsFailed, snap.JobsTimedOut, snap.JobsShed,
					snap.JobsShedQueue, snap.JobsDrainRejected, sum, snap.JobsSubmitted)
			}
			if snap.JobsCompleted != served.Load() {
				t.Errorf("completed = %d, want the %d served", snap.JobsCompleted, served.Load())
			}
			if served.Load() == 0 {
				t.Error("chaos starved every request; expected some plans to be served")
			}

			e.CloseNow()
			checkLeaks()
		})
	}
}

// hardSpec16 is the streaming fixture (stream16) under a distinct
// canonical key per alpha: its optimality proof takes roughly two
// seconds, far longer than the throughput test's 5ms limit, so it
// exercises the anytime degraded path for real.
func hardSpec16(i int) *spec.Spec {
	sp := stream16(fmt.Sprintf("tp-hard-%d", i))
	sp.Alpha = float64(i%4 + 1) // distinct canonical keys defeat the cache
	return sp
}

// TestChaosDegradedThroughput measures the degraded path under a 30%
// slow-solve fault schedule: real solves with a time limit far below the
// injected latency must still serve verified (possibly degraded) plans.
// Every fourth request is a hard 16-pin case that cannot be proven in
// 5ms, so the anytime incumbent path is genuinely on the clock. When
// BENCH_HISTORY is set, the served/error throughput summary is appended
// there as the resilience record (internal/benchrec); only a run without
// the race detector should set it, or the rate prices the detector.
func TestChaosDegradedThroughput(t *testing.T) {
	inj := faultinject.New(42).
		Set(faultinject.SolveSlow, faultinject.Rule{Probability: 0.3, Delay: 20 * time.Millisecond})
	e := New(Config{Workers: 4, FaultInjector: inj})
	defer e.CloseNow()

	const requests = 40
	var served, degraded, failedCount int64
	start := time.Now()
	for i := 0; i < requests; i++ {
		sp := chaosSpec(i)
		sp.Name = fmt.Sprintf("tp-%d", i)
		if i%4 == 0 {
			sp = hardSpec16(i)
		}
		resp, err := e.Do(context.Background(), sp, switchsynth.Options{TimeLimit: 5 * time.Millisecond})
		if err != nil {
			failedCount++
			continue
		}
		served++
		if resp.Synthesis.Degraded {
			degraded++
		}
		if verr := switchsynth.Verify(resp.Synthesis.Result); verr != nil {
			t.Fatalf("request %d: served unverified plan: %v", i, verr)
		}
	}
	elapsed := time.Since(start)
	if served == 0 {
		t.Fatal("no requests served under slow-solve faults")
	}
	if failedCount > 0 {
		t.Errorf("%d requests failed; the anytime path should degrade, not fail", failedCount)
	}
	if degraded == 0 {
		t.Error("no degraded plans: the hard cases were all proven in 5ms?")
	}

	benchrec.Emit(t, "resilience", map[string]any{
		"slowFaultPercent":  30,
		"requests":          requests,
		"served":            served,
		"degraded":          degraded,
		"errors":            failedCount,
		"elapsedSeconds":    elapsed.Seconds(),
		"requestsPerSecond": float64(requests) / elapsed.Seconds(),
	})
}
