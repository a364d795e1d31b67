// The HTTP error surface, pinned as a table: every error kind in the
// service taxonomy maps to exactly one status code, every error body is
// a JSON envelope (never a panic trace or a truncated decode), and the
// readiness endpoint distinguishes "alive" from "routable".
package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// TestErrorKindStatusTable drives each error kind through the real
// handler via a fake solver and asserts the status mapping end to end.
func TestErrorKindStatusTable(t *testing.T) {
	cases := []struct {
		kind    string
		status  int
		solve   func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error)
		prepare func(e *Engine) // optional extra setup (close, trip breaker)
	}{
		{
			kind: "no-solution", status: http.StatusUnprocessableEntity,
			solve: func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				return nil, &spec.ErrNoSolution{SpecName: sp.Name, Policy: sp.Binding}
			},
		},
		{
			kind: "timeout", status: http.StatusGatewayTimeout,
			solve: func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
			},
		},
		{
			kind: "internal", status: http.StatusInternalServerError,
			solve: func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				return nil, errors.New("disk on fire")
			},
		},
		{
			kind: "unavailable", status: http.StatusServiceUnavailable,
			prepare: func(e *Engine) { e.Close() },
		},
		{
			// A draining engine rejects new solves with the typed
			// *admission.ErrDraining before they reach the queue: same
			// kind and status as closed, but the process is still
			// finishing its backlog.
			kind: "unavailable", status: http.StatusServiceUnavailable,
			prepare: func(e *Engine) { e.StartDrain() },
		},
		{
			// Threshold-1 breaker: the prepare request times out and
			// opens it; the measured request is then shed.
			kind: "overloaded", status: http.StatusTooManyRequests,
			solve: func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
			},
			prepare: func(e *Engine) {
				_, _ = e.Do(context.Background(), serviceSpec("surface"), switchsynth.Options{})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			e := New(Config{Workers: 1, BreakerThreshold: 1})
			if tc.solve != nil {
				e.solve = tc.solve
			}
			srv := httptest.NewServer(NewHandler(e))
			t.Cleanup(func() {
				srv.Close()
				e.CloseNow()
			})
			if tc.prepare != nil {
				tc.prepare(e)
			}
			body, err := json.Marshal(SynthesizeRequest{Spec: serviceSpec("surface")})
			if err != nil {
				t.Fatal(err)
			}
			resp, raw := postJSON(t, srv.URL+"/synthesize", string(body))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var env errorResponse
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("error body not a JSON envelope: %s", raw)
			}
			if env.Kind != tc.kind || env.Error == "" {
				t.Errorf("envelope = %+v, want kind %q with a message", env, tc.kind)
			}
			// Every shed or unavailable response must tell the client
			// when to come back, as whole seconds in [1, 30].
			if tc.status == http.StatusTooManyRequests || tc.status == http.StatusServiceUnavailable {
				ra := resp.Header.Get("Retry-After")
				secs, err := strconv.Atoi(ra)
				if err != nil || secs < 1 || secs > 30 {
					t.Errorf("Retry-After = %q, want an integer in [1, 30]", ra)
				}
			}
		})
	}
	// The "invalid" kind needs no fake solver — validation runs before
	// the solve; TestSynthesizeErrorKinds covers its variants. Assert
	// the mapping itself here so the table names all six kinds.
	srv, _ := newTestServer(t)
	resp, raw := postJSON(t, srv.URL+"/synthesize", `{"spec": {"name": "x"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid: status %d, want 400: %s", resp.StatusCode, raw)
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Kind != "invalid" {
		t.Errorf("invalid envelope = %+v (err %v), want kind invalid", env, err)
	}

	// The branch and bound is the only engine, so an engine choice — on
	// one request or on one batch member — is an unknown field: refused
	// at decode, before the engine counts a job.
	spJSON, err := json.Marshal(serviceSpec("surface"))
	if err != nil {
		t.Fatal(err)
	}
	srv, e := newTestServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/synthesize", `{"spec": ` + string(spJSON) + `, "options": {"engine": "iqp"}}`},
		{"/synthesize/batch", `{"specs": [{"spec": ` + string(spJSON) + `}, {"spec": ` + string(spJSON) + `, "options": {"engine": "quantum"}}]}`},
	} {
		resp, raw := postJSON(t, srv.URL+tc.path, tc.body)
		var env errorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil || env.Kind != "invalid" {
			t.Errorf("%s with an engine: status %d, body %s; want 400 invalid", tc.path, resp.StatusCode, raw)
		}
	}
	if snap := e.Snapshot(); snap.JobsSubmitted != 0 || snap.JobsFailed != 0 {
		t.Errorf("engine field reached the engine: jobsSubmitted %d, jobsFailed %d", snap.JobsSubmitted, snap.JobsFailed)
	}
}

// TestOversizedRequestBodyCleanJSON: a body over MaxRequestBody must
// produce a clean 413 JSON envelope from the byte limiter, not a decode
// panic or a confusing unmarshal error.
func TestOversizedRequestBodyCleanJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	huge := `{"spec": {"name": "` + strings.Repeat("A", MaxRequestBody+1024) + `"}}`
	resp, raw := postJSON(t, srv.URL+"/synthesize", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", resp.StatusCode, raw)
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("413 body not a JSON envelope: %.200s", raw)
	}
	if env.Kind != "invalid" || !strings.Contains(env.Error, "exceeds") {
		t.Errorf("envelope = %+v, want kind invalid mentioning the limit", env)
	}
}

// TestReadyzPhases: /readyz must say 200 while serving, then 503 the
// moment draining begins (before the engine actually closes) and stay
// 503 on a closed engine; /healthz stays 200 throughout — liveness and
// readiness are different questions.
func TestReadyzPhases(t *testing.T) {
	srv, e := newTestServer(t)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("serving phase: /readyz = %d, want 200", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("serving phase: /healthz = %d, want 200", code)
	}

	e.StartDrain()
	code, ra := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining phase: /readyz = %d, want 503", code)
	}
	if ra == "" {
		t.Error("draining /readyz without Retry-After")
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("draining phase: /healthz = %d, want 200 (still alive)", code)
	}

	e.Close()
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("closed phase: /readyz = %d, want 503", code)
	}
}

// TestPlansEndpoints: the manifest and single-plan fetch the cluster
// tier is built on, exercised without a cluster — /plans is a plain
// read-only view of the local tiers.
func TestPlansEndpoints(t *testing.T) {
	srv, e := newTestServer(t)
	resp, err := e.Do(context.Background(), serviceSpec("plans"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(srv.URL + "/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var manifest struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Keys) != 1 || manifest.Keys[0] != resp.Key {
		t.Fatalf("manifest = %v, want exactly [%s]", manifest.Keys, resp.Key)
	}

	presp, err := http.Get(srv.URL + "/plans/" + resp.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/plans/{key} = %d, want 200", presp.StatusCode)
	}
	// The endpoint serves curl and verifyplan over HTTP: the JSON
	// transcode of the stored frame (peers fetch frames over the plan
	// stream).
	want, _ := e.PlanBytes(resp.Key)
	wantJSON, err := planio.ToJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantJSON) {
		t.Error("/plans/{key} bytes differ from the JSON transcode of PlanBytes")
	}

	nresp, err := http.Get(srv.URL + "/plans/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("/plans/missing = %d, want 404", nresp.StatusCode)
	}
	var env errorResponse
	if err := json.NewDecoder(nresp.Body).Decode(&env); err != nil || env.Kind != "not-found" {
		t.Errorf("404 envelope = %+v (err %v), want kind not-found", env, err)
	}
}

// TestSharedFailureNamesTheRequestersSpec: requests under one canonical
// key share one failure — a negative-cache proof, a coalesced flight's
// error, a batch representative's error — but each sees it on its own
// spec, so one tenant's spec name never reaches another.
func TestSharedFailureNamesTheRequestersSpec(t *testing.T) {
	infeasible := func(name string) *spec.Spec {
		sp := serviceSpec(name)
		sp.Binding = spec.Clockwise // this module order admits no conflict-free plan
		return sp
	}
	check := func(what string, err error, target any) {
		t.Helper()
		if !errors.As(err, target) {
			t.Fatalf("%s: err = %v, want %T", what, err, target)
		}
		if msg := err.Error(); !strings.Contains(msg, `"tenant-b"`) || strings.Contains(msg, "tenant-a-secret") {
			t.Errorf("%s: error %q does not name the requester's spec alone", what, msg)
		}
	}
	ctx := context.Background()

	// A negative-cache hit.
	e := newTestEngine(t, Config{Workers: 1})
	if _, err := e.Do(ctx, infeasible("tenant-a-secret"), switchsynth.Options{}); !errors.As(err, new(*spec.ErrNoSolution)) {
		t.Fatalf("first request: err = %v, want no solution", err)
	}
	_, err := e.Do(ctx, infeasible("tenant-b"), switchsynth.Options{})
	check("negative-cache hit", err, new(*spec.ErrNoSolution))
	if e.Snapshot().NegCacheHits != 1 {
		t.Fatalf("negCacheHits = %d, want 1", e.Snapshot().NegCacheHits)
	}

	// A batch member answered from its representative's failure.
	out := newTestEngine(t, Config{Workers: 1}).DoBatch(ctx, []BatchSpec{
		{Spec: infeasible("tenant-a-secret")}, {Spec: infeasible("tenant-b")},
	})
	if !out[1].Dedup {
		t.Fatal("second batch member was not deduplicated")
	}
	check("batch dedup member", out[1].Err, new(*spec.ErrNoSolution))

	// A waiter coalesced onto another request's solve.
	e = newTestEngine(t, Config{Workers: 1})
	started, release := make(chan struct{}), make(chan struct{})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		close(started)
		<-release
		return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, serviceSpec("tenant-a-secret"), switchsynth.Options{})
		leaderDone <- err
	}()
	<-started
	followerDone := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, permutedServiceSpec("tenant-b"), switchsynth.Options{})
		followerDone <- err
	}()
	for e.Snapshot().DedupCoalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leaderDone; !errors.Is(err, &search.ErrTimeout{}) {
		t.Fatalf("leader: err = %v, want timeout", err)
	}
	check("coalesced waiter", <-followerDone, new(*search.ErrTimeout))
}
