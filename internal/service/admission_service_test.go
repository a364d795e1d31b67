// Admission-tier behavior through the engine and HTTP surface: measured
// Retry-After on queue sheds, priority/tenant header plumbing, and
// two-tenant fairness under saturation.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// TestRetryAfterQueueShedPath completes the shed-path Retry-After table
// (drain 503 and closed 503 are pinned in
// TestErrorKindStatusTable): a background-class request arriving with
// the queue over its depth watermark is a 429 "overloaded" whose
// Retry-After is a whole second count in [1, 30].
func TestRetryAfterQueueShedPath(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	e := New(Config{Workers: 1, QueueDepth: 4})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		<-release
		return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		unblock()
		srv.Close()
		e.CloseNow()
	})

	// One request occupies the single worker; the queue (capacity 4)
	// fills until the background depth watermark (total >= 2) sheds.
	// Distinct keys keep the requests from coalescing.
	const n = 5
	type result struct {
		status int
		retry  string
		kind   string
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := serviceSpec(fmt.Sprintf("shed-%d", i))
			sp.Alpha = float64(i + 1)
			body, _ := json.Marshal(SynthesizeRequest{Spec: sp})
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/synthesize", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(PriorityHeader, "background")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var env errorResponse
			_ = json.NewDecoder(resp.Body).Decode(&env)
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After"), env.Kind}
		}(i)
	}

	// The shed requests return immediately; the admitted ones stay
	// blocked in the stuck solve until unblock(). Wait for the first
	// 429, validate it, then release the worker so the rest drain.
	shed := 0
	timeout := time.After(10 * time.Second)
	for shed == 0 {
		select {
		case r := <-results:
			if r.status != http.StatusTooManyRequests {
				continue
			}
			shed++
			if r.kind != "overloaded" {
				t.Errorf("queue shed kind = %q, want overloaded", r.kind)
			}
			secs, err := strconv.Atoi(r.retry)
			if err != nil || secs < 1 || secs > 30 {
				t.Errorf("queue shed Retry-After = %q, want an integer in [1, 30]", r.retry)
			}
		case <-timeout:
			t.Fatal("no background request was shed with the queue saturated")
		}
	}
	unblock()
	wg.Wait()
	close(results)
	for r := range results {
		if r.status == http.StatusTooManyRequests {
			shed++
		}
	}
	if got := e.Snapshot().JobsShedQueue; int(got) != shed {
		t.Errorf("JobsShedQueue = %d, want %d (one per shed response)", got, shed)
	}
}

// TestInvalidPriorityHeaderRejected: an unknown class never silently
// degrades to a default — it is a 400 before the spec is even parsed.
func TestInvalidPriorityHeaderRejected(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{"/synthesize", "/synthesize/batch"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(PriorityHeader, "urgent")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with bogus priority: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestEngineTwoTenantFairness is the fairness acceptance check at the
// engine level: one tenant keeps a backlog of background work queued
// while another submits single interactive solves. The interactive
// tenant must never be shed, and each of its probes must start within
// one DRR rotation of its submission, not behind the flood's backlog.
// The check is an ordering read from the solve's own counter, not a
// wall-clock bound: flood solves park on a gate the test opens one
// solve at a time, so each probe is queued while the single worker is
// busy, and the test counts the solves that start between the probe's
// enqueue and its own start.
func TestEngineTwoTenantFairness(t *testing.T) {
	// DRR refills each backlogged class's credits (interactive 16, batch
	// 4, background 1) once per cursor rotation, and serves a class while
	// it has credits left. A newly queued probe is therefore served as
	// soon as the cursor reaches the interactive class, and until then at
	// most the credits the other backlogged classes hold in the current
	// rotation are spent. Only background is backlogged here, so at most
	// its weight, one solve, starts ahead of a probe.
	const (
		maxAhead   = 1
		floodJobs  = 24 // background jobs the flood tenant keeps outstanding
		minBacklog = 20 // queued flood jobs every probe is submitted behind
		probes     = 20
	)
	shared := solveOnce(t, serviceSpec("fair"))
	var (
		starts      atomic.Int64 // solves started, flood and probes
		floodStarts atomic.Int64
		released    int64 // flood solves the test let finish
	)
	gate := make(chan struct{})
	probeStarted := make(chan int64, 1)
	e := New(Config{Workers: 1, QueueDepth: 64, CacheSize: -1})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		n := starts.Add(1)
		if sp.Beta > 0 { // only the probes set Beta
			probeStarted <- n
			return shared, nil
		}
		floodStarts.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return shared, nil
	}

	floodCtx, stopFlood := context.WithCancel(context.Background())
	var flood sync.WaitGroup
	t.Cleanup(func() {
		stopFlood()
		close(gate)
		flood.Wait()
		e.CloseNow()
	})
	bg := admission.WithCaller(floodCtx, admission.Caller{Tenant: "flood", Class: admission.Background})
	var seq atomic.Int64
	for w := 0; w < floodJobs; w++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for floodCtx.Err() == nil {
				sp := serviceSpec("flood")
				sp.Alpha = float64(seq.Add(1) + 1) // distinct keys defeat coalescing
				_, _ = e.Do(bg, sp, switchsynth.Options{})
			}
		}()
	}

	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	userCtx := admission.WithCaller(context.Background(),
		admission.Caller{Tenant: "user", Class: admission.Interactive})
	worst := int64(0)
	for i := 0; i < probes; i++ {
		// The single worker is parked in a flood solve (one more has
		// started than the test released) with the backlog built.
		waitUntil("the worker to park behind a flood backlog", func() bool {
			return floodStarts.Load() == released+1 &&
				e.queue.Stats().DepthByClass[admission.Background] >= minBacklog
		})
		sp := serviceSpec(fmt.Sprintf("user-%d", i))
		sp.Beta = float64(i + 1) // distinct keys: every probe queues for real
		done := make(chan error, 1)
		go func() {
			_, err := e.Do(userCtx, sp, switchsynth.Options{})
			done <- err
		}()
		waitUntil("the probe to queue", func() bool {
			return e.queue.Stats().DepthByClass[admission.Interactive] == 1
		})
		before := starts.Load()
		var at int64
		for at == 0 {
			select {
			case at = <-probeStarted:
			case gate <- struct{}{}:
				released++
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("interactive probe %d failed: %v", i, err)
		}
		worst = max(worst, at-before-1)
	}
	if worst > maxAhead {
		t.Errorf("%d solves started ahead of an interactive probe queued behind %d+ background jobs, want <= %d",
			worst, minBacklog, maxAhead)
	}
}
