package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/spec"
)

// TestCloseNowWithInFlightAndQueuedWaiters races CloseNow against a full
// pipeline: one solve blocked in the worker, more jobs queued behind it,
// and waiters attached to each. Every waiter must return promptly (no
// deadlock), and the pool must not leak goroutines.
func TestCloseNowWithInFlightAndQueuedWaiters(t *testing.T) {
	checkLeaks := checkGoroutineLeaks(t)
	e := New(Config{Workers: 1, QueueDepth: 2})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		// Block until CloseNow cancels the engine context, like a long
		// optimizer run would.
		<-ctx.Done()
		return nil, ctx.Err()
	}

	const waiters = 6
	var wg sync.WaitGroup
	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := serviceSpec(fmt.Sprintf("shutdown-%d", i))
			sp.Alpha = float64(i + 1) // distinct canonical keys fill the queue
			_, err := e.Do(context.Background(), sp, switchsynth.Options{})
			results <- err
		}(i)
	}
	// Let the first job occupy the worker and the rest pile up.
	time.Sleep(50 * time.Millisecond)
	e.CloseNow()

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters still blocked 10s after CloseNow")
	}
	close(results)
	for err := range results {
		if err == nil {
			t.Error("a waiter got a plan from a solve that only returns ctx.Err()")
		}
	}
	checkLeaks()
}

// TestDoAfterCloseReturnsTypedError checks the typed rejection on both
// shutdown paths.
func TestDoAfterCloseReturnsTypedError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(e *Engine)
	}{
		{"Close", func(e *Engine) { e.Close() }},
		{"CloseNow", func(e *Engine) { e.CloseNow() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := checkGoroutineLeaks(t)
			e := New(Config{Workers: 2})
			tc.close(e)
			_, err := e.Do(context.Background(), serviceSpec("late"), switchsynth.Options{})
			if !errors.Is(err, ErrEngineClosed) {
				t.Fatalf("err = %v, want ErrEngineClosed", err)
			}
			checkLeaks()
		})
	}
}

// TestCloseRacesConcurrentSubmitters hammers Do from many goroutines
// while Close lands in the middle: every call must either complete or
// fail with a typed error, and nothing may hang or leak.
func TestCloseRacesConcurrentSubmitters(t *testing.T) {
	base := solveOnce(t, serviceSpec("race"))
	checkLeaks := checkGoroutineLeaks(t)
	e := New(Config{Workers: 2})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		time.Sleep(time.Millisecond)
		return base, nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sp := serviceSpec(fmt.Sprintf("race-%d", i))
				sp.Alpha = float64(i + 1)
				_, err := e.Do(context.Background(), sp, switchsynth.Options{})
				if err != nil && !errors.Is(err, ErrEngineClosed) &&
					!errors.Is(err, context.Canceled) {
					t.Errorf("goroutine %d: unexpected error %v", g, err)
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	e.CloseNow()

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("submitters still blocked 10s after CloseNow")
	}
	checkLeaks()
}
