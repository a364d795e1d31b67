package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/cases"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// TestDegradedPlansServedUnderTinyLimit is the resilience acceptance
// check: 16-pin artificial cases under a 10ms limit must come back as
// HTTP 200 plans (degraded where the proof didn't finish) or a proven
// 422 — never a 504 — and every served plan must verify.
func TestDegradedPlansServedUnderTinyLimit(t *testing.T) {
	srv, _ := newTestServer(t)

	var served, degraded int
	for i, c := range cases.ArtificialSized(12, 7, []int{16}) {
		// Classify the case with a generous local solve first: the
		// degraded-serving guarantee covers feasible specs; an
		// infeasibility that cannot be proven inside the budget may
		// legitimately time out.
		_, cerr := switchsynth.SolvePlan(context.Background(), c.Spec,
			switchsynth.Options{TimeLimit: 5 * time.Second})
		feasible := cerr == nil

		body, err := json.Marshal(SynthesizeRequest{
			Spec:    c.Spec,
			Options: RequestOptions{TimeLimitMS: 10, PressureSharing: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postJSON(t, srv.URL+"/synthesize", string(body))
		if !feasible {
			var nosol *spec.ErrNoSolution
			if errors.As(cerr, &nosol) && resp.StatusCode == http.StatusOK {
				t.Errorf("case %d (%s): proven-infeasible spec served a plan", i, c.Spec.Name)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d (%s): status %d, want 200 for a feasible spec: %s",
				i, c.Spec.Name, resp.StatusCode, raw)
		}
		var out SynthesizeResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		served++
		if out.Degraded {
			degraded++
			if out.LowerBound <= 0 || out.LowerBound > out.Objective {
				t.Errorf("case %d: LowerBound %v outside (0, %v]", i, out.LowerBound, out.Objective)
			}
			if out.Gap < 0 || out.Gap > 1 {
				t.Errorf("case %d: Gap %v outside [0, 1]", i, out.Gap)
			}
		}
		plan, err := planio.Decode(out.Plan)
		if err != nil {
			t.Fatalf("case %d: decoding wire plan: %v", i, err)
		}
		if err := switchsynth.Verify(plan); err != nil {
			t.Errorf("case %d: served plan fails verification: %v", i, err)
		}
	}
	if served == 0 {
		t.Fatal("no feasible 16-pin case was served")
	}
	t.Logf("served %d plans, %d degraded", served, degraded)
}

// TestRepeatedFailuresOnOneKeyAreNeverShed sends one key six requests
// in a row whose solves time out, panic, time out, panic, time out and
// then find a plan. Each request runs its own solve and gets its own
// answer — 504 for a timeout, 500 for a panic, 200 for the plan — and
// none is refused with a 429 for the failures before it. Each ends in
// exactly one /metrics bucket.
func TestRepeatedFailuresOnOneKeyAreNeverShed(t *testing.T) {
	base := solveOnce(t, serviceSpec("verdicts"))
	var solves atomic.Int64
	e := newTestEngine(t, Config{Workers: 1})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		switch n := solves.Add(1); {
		case n == 6:
			return base, nil
		case n%2 == 0:
			panic("solver bug")
		default:
			return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
		}
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)

	body := surfaceBody(t, serviceSpec("verdicts"))
	for i, want := range []int{
		http.StatusGatewayTimeout, http.StatusInternalServerError,
		http.StatusGatewayTimeout, http.StatusInternalServerError,
		http.StatusGatewayTimeout, http.StatusOK,
	} {
		resp, raw := postJSON(t, srv.URL+"/synthesize", body)
		if resp.StatusCode != want {
			t.Fatalf("request %d: status %d, want %d: %s", i+1, resp.StatusCode, want, raw)
		}
	}
	if got := solves.Load(); got != 6 {
		t.Errorf("solves = %d, want 6 (one per request)", got)
	}
	snap := e.Snapshot()
	if snap.JobsTimedOut != 3 || snap.JobsPanicked != 2 || snap.JobsCompleted != 1 {
		t.Errorf("jobsTimedOut %d, jobsPanicked %d, jobsCompleted %d; want 3, 2, 1",
			snap.JobsTimedOut, snap.JobsPanicked, snap.JobsCompleted)
	}
	if sum := snap.JobsCompleted + snap.JobsFailed + snap.JobsTimedOut +
		snap.JobsShedQueue + snap.JobsDrainRejected; sum != snap.JobsSubmitted {
		t.Errorf("completed %d + failed %d + timedOut %d + shedQueue %d + drainRejected %d = %d, want submitted %d",
			snap.JobsCompleted, snap.JobsFailed, snap.JobsTimedOut,
			snap.JobsShedQueue, snap.JobsDrainRejected, sum, snap.JobsSubmitted)
	}
}
