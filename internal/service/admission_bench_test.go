// Admission-tier benchmark report: batch dedup speedup over sequential
// cold solves, per-class queue latency under a mixed load, and streamed
// time-to-first-plan vs time-to-proof. Runs only when BENCH_HISTORY names
// the history file to append to (internal/benchrec); plain test runs skip
// it.
package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/benchrec"
	"switchsynth/internal/faultinject"
)

// batchSolveFloor is the fixed cost every solve of the batch-dedup
// comparison pays (a SolveSlow fault that always fires). It dominates
// the solver's own few-millisecond run, so the speedup measures solves
// saved by dedup, not how fast the host or the solver happens to be.
const batchSolveFloor = 20 * time.Millisecond

func TestAdmissionBenchReport(t *testing.T) {
	if !benchrec.Enabled() {
		t.Skip("set " + benchrec.Env + " to append the admission benchmark record")
	}

	// Batch dedup: 100 specs over 7 canonical keys, solved as one batch
	// vs one by one. Both engines run with the memory cache disabled so
	// the comparison isolates the batch-level dedup (not the cache tier),
	// and every solve pays the same fixed floor.
	const batchN, batchKeys = 100, 7
	items := make([]BatchSpec, batchN)
	for i := range items {
		items[i] = BatchSpec{Spec: batchSpecVariant(i, batchKeys)}
	}
	floor := func() *faultinject.Injector {
		return faultinject.New(1).Set(faultinject.SolveSlow, faultinject.Rule{Probability: 1, Delay: batchSolveFloor})
	}
	eSeq := newTestEngine(t, Config{Workers: 4, CacheSize: -1, FaultInjector: floor()})
	seqStart := time.Now()
	for i := range items {
		if _, err := eSeq.Do(context.Background(), items[i].Spec, items[i].Opts); err != nil {
			t.Fatalf("sequential solve %d: %v", i, err)
		}
	}
	seqElapsed := time.Since(seqStart)
	seqSolves := eSeq.Snapshot().SolveCount

	eBatch := newTestEngine(t, Config{Workers: 4, CacheSize: -1, FaultInjector: floor()})
	batchStart := time.Now()
	outcomes := eBatch.DoBatch(context.Background(), items)
	batchElapsed := time.Since(batchStart)
	for i, oc := range outcomes {
		if oc.Err != nil {
			t.Fatalf("batch item %d: %v", i, oc.Err)
		}
	}
	batchSolves := eBatch.Snapshot().SolveCount
	if seqSolves != batchN {
		t.Errorf("sequential engine ran %d solves, want %d (one per spec)", seqSolves, batchN)
	}
	if batchSolves != batchKeys {
		t.Errorf("batch engine ran %d solves, want %d (one per distinct key)", batchSolves, batchKeys)
	}
	speedup := seqElapsed.Seconds() / batchElapsed.Seconds()
	if speedup < 5 {
		t.Errorf("batch dedup speedup %.1fx, want >= 5x (sequential %s, batch %s)", speedup, seqElapsed, batchElapsed)
	}

	// Per-class queue latency: one worker, a background flood and
	// interleaved interactive probes; the queue's EWMA wait estimators
	// are the reported per-class latency.
	eQ := newTestEngine(t, Config{Workers: 1, CacheSize: -1, QueueDepth: 64})
	bgCtx := admission.WithCaller(context.Background(), admission.Caller{Tenant: "bench-bg", Class: admission.Background})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := serviceSpec(fmt.Sprintf("bench-bg-%d", i))
			sp.Alpha = float64(i + 2)
			_, _ = eQ.Do(bgCtx, sp, switchsynth.Options{})
		}(i)
	}
	iaCtx := admission.WithCaller(context.Background(), admission.Caller{Tenant: "bench-ia", Class: admission.Interactive})
	for i := 0; i < 8; i++ {
		sp := serviceSpec(fmt.Sprintf("bench-ia-%d", i))
		sp.Beta = float64(i + 101)
		if _, err := eQ.Do(iaCtx, sp, switchsynth.Options{}); err != nil {
			t.Fatalf("interactive probe %d: %v", i, err)
		}
	}
	wg.Wait()
	queueStats := eQ.Snapshot().Admission

	// Streaming: time to the first usable (degraded) plan vs time to the
	// optimality proof on the saturated 16-pin case.
	eS := newTestEngine(t, Config{Workers: 1})
	streamStart := time.Now()
	var firstPlan time.Duration
	res, err := eS.DoStream(context.Background(), stream16("bench-stream"), switchsynth.Options{TimeLimit: 2 * time.Minute},
		func(*Response, bool) error {
			if firstPlan == 0 {
				firstPlan = time.Since(streamStart)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	proof := time.Since(streamStart)
	if !res.Synthesis.Proven || firstPlan == 0 {
		t.Fatalf("streaming bench degenerate: proven=%v firstPlan=%s", res.Synthesis.Proven, firstPlan)
	}

	waitByClass := map[string]float64{}
	submittedByClass := map[string]int64{}
	shedByClass := map[string]int64{}
	for c := 0; c < admission.NumClasses; c++ {
		name := admission.Class(c).String()
		waitByClass[name] = queueStats.WaitSecondsByClass[c]
		submittedByClass[name] = queueStats.Submitted[c]
		shedByClass[name] = queueStats.Shed[c]
	}
	benchrec.Emit(t, "admission", map[string]any{
		"batchSpecs":              batchN,
		"batchDistinctKeys":       batchKeys,
		"batchSolves":             batchSolves,
		"sequentialSolves":        seqSolves,
		"solveFloorSeconds":       batchSolveFloor.Seconds(),
		"sequentialSeconds":       seqElapsed.Seconds(),
		"batchSeconds":            batchElapsed.Seconds(),
		"batchDedupSpeedup":       speedup,
		"queueWaitSecondsByClass": waitByClass,
		"queueSubmittedByClass":   submittedByClass,
		"queueShedByClass":        shedByClass,
		"timeToFirstPlanSeconds":  firstPlan.Seconds(),
		"timeToProofSeconds":      proof.Seconds(),
		"streamFirstPlanSpeedup":  proof.Seconds() / firstPlan.Seconds(),
	})
}
