// The HTTP error surface, pinned as a table: every error kind in the
// service taxonomy maps to exactly one status code, every error body is
// a JSON envelope (never a panic trace or a truncated decode), and the
// readiness endpoint distinguishes "alive" from "routable".
package service

import (
	"bytes"
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
	"switchsynth/internal/admission"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// TestErrorKindStatusTable drives each error kind through the real
// handler via a fake solver and asserts the status mapping end to end,
// and that the requests a row makes end in its /metrics bucket and no
// other. A shed leader's coalesced follower and a batch dedup member of
// a shed representative share their leader's row: 429 overloaded,
// counted in jobsShedQueue.
func TestErrorKindStatusTable(t *testing.T) {
	cases := []struct {
		kind    string
		status  int
		bucket  string // the job counter of /metrics each request ends in
		solve   func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error)
		prepare func(e *Engine) // optional extra setup (close, drain)
		// send, when set, replaces the plain POST: it makes the row's
		// requests and returns the measured one's status and kind, its
		// response headers (nil for a batch item, which has none of its
		// own) and how many requests it made.
		send func(t *testing.T, e *Engine, url string) (status int, kind string, hdr http.Header, n int64)
	}{
		{
			kind: "no-solution", status: http.StatusUnprocessableEntity, bucket: "jobsInfeasible",
			solve: func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				return nil, &spec.ErrNoSolution{SpecName: sp.Name, Policy: sp.Binding}
			},
		},
		{
			kind: "timeout", status: http.StatusGatewayTimeout, bucket: "jobsTimedOut",
			solve: func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.DeadlineExceeded}
			},
		},
		{
			kind: "internal", status: http.StatusInternalServerError, bucket: "jobsFailed",
			solve: func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
				return nil, errors.New("disk on fire")
			},
		},
		{
			// A closed engine refuses like a draining one, and is
			// counted like one: a refusal is no failure.
			kind: "unavailable", status: http.StatusServiceUnavailable, bucket: "jobsDrainRejected",
			prepare: func(e *Engine) { e.Close() },
		},
		{
			// A draining engine rejects new solves with the typed
			// *admission.ErrDraining before they reach the queue: same
			// kind and status as closed, but the process is still
			// finishing its backlog.
			kind: "unavailable", status: http.StatusServiceUnavailable, bucket: "jobsDrainRejected",
			prepare: func(e *Engine) { e.StartDrain() },
		},
		{
			// A coalesced follower of a leader the admission queue sheds
			// returns the leader's *admission.ErrShed, and is counted as
			// one: leader and follower both in jobsShedQueue.
			kind: "overloaded", status: http.StatusTooManyRequests, bucket: "jobsShedQueue",
			send: func(t *testing.T, e *Engine, url string) (int, string, http.Header, int64) {
				saturate(t, e, 2) // backlog 2 of 4: the background depth watermark sheds
				gate := &gateCtx{
					Context: admission.WithCaller(context.Background(),
						admission.Caller{Tenant: "lab", Class: admission.Background}),
					reached: make(chan struct{}),
					release: make(chan struct{}),
				}
				leaderErr := make(chan error, 1)
				go func() {
					_, err := e.Do(gate, serviceSpec("surface"), switchsynth.Options{})
					leaderErr <- err
				}()
				within(t, gate.reached, "the leader to join its flight")
				type answer struct {
					resp *http.Response
					raw  []byte
				}
				follower := make(chan answer, 1)
				go func() {
					resp, raw := postJSON(t, url+"/synthesize", surfaceBody(t, permutedServiceSpec("surface-follower")))
					follower <- answer{resp, raw}
				}()
				for e.Snapshot().DedupCoalesced == 0 {
					time.Sleep(time.Millisecond)
				}
				close(gate.release)
				if err := errWithin(t, leaderErr, "leader"); !errors.Is(err, &admission.ErrShed{}) {
					t.Fatalf("leader: err = %v, want *admission.ErrShed", err)
				}
				a := <-follower
				return a.resp.StatusCode, envelopeKind(t, a.raw), a.resp.Header, 2
			},
		},
		{
			// A batch whose representative the admission queue sheds: its
			// dedup member carries the representative's failure, in its
			// item and in jobsShedQueue.
			kind: "overloaded", status: http.StatusTooManyRequests, bucket: "jobsShedQueue",
			send: func(t *testing.T, e *Engine, url string) (int, string, http.Header, int64) {
				saturate(t, e, 2)
				body, err := json.Marshal(BatchRequest{Specs: []BatchRequestItem{
					{Spec: serviceSpec("surface")}, {Spec: permutedServiceSpec("surface-member")},
				}})
				if err != nil {
					t.Fatal(err)
				}
				req, err := http.NewRequest(http.MethodPost, url+"/synthesize/batch", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set(PriorityHeader, "background")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var out BatchResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Items) != 2 {
					t.Fatalf("batch envelope: %+v (err %v)", out, err)
				}
				member := out.Items[1]
				if !member.Dedup || member.Error == "" {
					t.Fatalf("second member = %+v, want a dedup member with an error", member)
				}
				return member.Status, member.Kind, nil, 2
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			e := New(Config{Workers: 1})
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
			send := tc.send
			if send == nil {
				send = func(t *testing.T, e *Engine, url string) (int, string, http.Header, int64) {
					resp, raw := postJSON(t, url+"/synthesize", surfaceBody(t, serviceSpec("surface")))
					return resp.StatusCode, envelopeKind(t, raw), resp.Header, 1
				}
			}
			before := e.Snapshot()
			status, kind, hdr, n := send(t, e, srv.URL)
			if status != tc.status {
				t.Fatalf("status %d, want %d", status, tc.status)
			}
			if kind != tc.kind {
				t.Errorf("kind %q, want %q", kind, tc.kind)
			}
			// Every shed or unavailable response must tell the client
			// when to come back, as whole seconds in [1, 30].
			if hdr != nil && (tc.status == http.StatusTooManyRequests || tc.status == http.StatusServiceUnavailable) {
				ra := hdr.Get("Retry-After")
				secs, err := strconv.Atoi(ra)
				if err != nil || secs < 1 || secs > 30 {
					t.Errorf("Retry-After = %q, want an integer in [1, 30]", ra)
				}
			}
			checkBucket(t, before, e.Snapshot(), tc.bucket, n)
		})
	}
	// The "invalid" kind needs no fake solver — validation runs before
	// the solve; TestSynthesizeErrorKinds covers its variants. Assert
	// the mapping itself here so the table names all six kinds.
	srv, e := newTestServer(t)
	before := e.Snapshot()
	resp, raw := postJSON(t, srv.URL+"/synthesize", `{"spec": {"name": "x"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid: status %d, want 400: %s", resp.StatusCode, raw)
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Kind != "invalid" {
		t.Errorf("invalid envelope = %+v (err %v), want kind invalid", env, err)
	}
	checkBucket(t, before, e.Snapshot(), "jobsInvalid", 1)

	// The branch and bound is the only engine, so an engine choice — on
	// one request or on one batch member — is an unknown field: refused
	// at decode, before the engine counts a job.
	spJSON, err := json.Marshal(serviceSpec("surface"))
	if err != nil {
		t.Fatal(err)
	}
	srv, e = newTestServer(t)
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

// surfaceBody is the /synthesize request body for sp.
func surfaceBody(t *testing.T, sp *spec.Spec) string {
	t.Helper()
	body, err := json.Marshal(SynthesizeRequest{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// envelopeKind decodes an error body's JSON envelope and returns its
// kind, failing unless it is an envelope with a message.
func envelopeKind(t *testing.T, raw []byte) string {
	t.Helper()
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
		t.Fatalf("error body not a JSON envelope with a message: %s", raw)
	}
	return env.Kind
}

// checkBucket asserts that from before to after the terminal job
// counters of /metrics rose by n in bucket and nowhere else — and in
// jobsFailed too when bucket is one of its breakdowns.
func checkBucket(t *testing.T, before, after Snapshot, bucket string, n int64) {
	t.Helper()
	want := map[string]int64{bucket: n}
	switch bucket {
	case "jobsInfeasible", "jobsInvalid", "jobsPanicked":
		want["jobsFailed"] = n
	}
	b, a := jobBuckets(t, before), jobBuckets(t, after)
	if _, ok := a[bucket]; !ok {
		t.Fatalf("/metrics has no job counter %q", bucket)
	}
	for name := range a {
		if d := a[name] - b[name]; d != want[name] {
			t.Errorf("%s rose by %d, want %d", name, d, want[name])
		}
	}
}

// jobBuckets reads the terminal job counters of s — every "jobs…" field
// of /metrics but jobsSubmitted — by their JSON names.
func jobBuckets(t *testing.T, s Snapshot) map[string]int64 {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for name, v := range all {
		if strings.HasPrefix(name, "jobs") && name != "jobsSubmitted" {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				t.Fatalf("%s = %s: %v", name, v, err)
			}
			out[name] = n
		}
	}
	return out
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
