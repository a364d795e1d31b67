package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/cluster"
	"switchsynth/internal/service"
	"switchsynth/internal/spec"
)

func clientSpec(name string) *switchsynth.Spec {
	return &switchsynth.Spec{
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

func newTestClient(t *testing.T, url string, cfg Config) *Client {
	t.Helper()
	cfg.BaseURL = url
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSynthesizeAgainstRealDaemonHandler round-trips a spec through the
// actual service handler: the client must surface the plan metadata and
// the daemon's canonical job key.
func TestSynthesizeAgainstRealDaemonHandler(t *testing.T) {
	eng := service.New(service.Config{Workers: 2})
	defer eng.Close()
	srv := httptest.NewServer(service.NewHandler(eng))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{})

	sp := clientSpec("client-roundtrip")
	resp, err := c.Synthesize(context.Background(), sp, service.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumSets <= 0 {
		t.Errorf("degenerate plan: sets=%d", resp.NumSets)
	}
	wantKey, err := switchsynth.CanonicalKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's job key is the spec's canonical key plus an engine
	// discriminator.
	if !strings.HasPrefix(resp.Key, wantKey) {
		t.Errorf("response key = %q, want canonical-key prefix %q", resp.Key, wantKey)
	}

	if err := c.Healthz(context.Background()); err != nil {
		t.Errorf("Healthz: %v", err)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsSubmitted == 0 {
		t.Error("metrics snapshot shows no submitted jobs after a synthesis")
	}
}

// TestRetriesTransientStatusesThenSucceeds fails twice with retryable
// statuses before serving; the client must retry through both.
func TestRetriesTransientStatusesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	sp := clientSpec("client-retry")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
		case 2:
			w.WriteHeader(http.StatusBadGateway)
			json.NewEncoder(w).Encode(map[string]string{"error": "upstream unreachable"})
		default:
			json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: sp.Name, NumSets: 1})
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{MaxAttempts: 4})
	resp, err := c.Synthesize(context.Background(), sp, service.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != sp.Name {
		t.Errorf("resp.Name = %q, want %q", resp.Name, sp.Name)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

// TestSolveTimeoutIsNotRetried: a 504 timeout is a solve that spent its
// whole time limit, a verdict like 422: the client returns it after one
// attempt instead of spending the limit again.
func TestSolveTimeoutIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(map[string]string{"error": "solver timed out", "kind": service.KindTimeout})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{MaxAttempts: 4})
	_, err := c.Synthesize(context.Background(), clientSpec("client-timeout"), service.RequestOptions{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout || apiErr.Kind != service.KindTimeout || apiErr.Temporary() {
		t.Fatalf("err = %v, want a permanent 504 timeout", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1", got)
	}
}

// TestRetryLandsOnDaemonCache: the daemon solves and caches the first
// attempt, but the answer is lost to a 503 on the way back; the retry
// carries nothing but the spec and is served from the cache, because the
// daemon derives the canonical key itself.
func TestRetryLandsOnDaemonCache(t *testing.T) {
	eng := service.New(service.Config{Workers: 2})
	defer eng.Close()
	h := service.NewHandler(eng)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			h.ServeHTTP(httptest.NewRecorder(), r)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{MaxAttempts: 3})

	resp, err := c.Synthesize(context.Background(), clientSpec("client-retry-cache"), service.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2", got)
	}
	if !resp.CacheHit {
		t.Error("the retry was solved again instead of served from the cache")
	}
	if snap := eng.Snapshot(); snap.CacheHits != 1 {
		t.Errorf("engine cache hits = %d, want 1", snap.CacheHits)
	}
}

// TestHonorsRetryAfter asserts the 429 Retry-After header overrides the
// jitter backoff: with a 1s hint the second attempt cannot land sooner.
func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstAt, secondAt time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			firstAt = time.Now()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "breaker open", "kind": "overloaded"})
			return
		}
		secondAt = time.Now()
		json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: "ra", NumSets: 1})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{MaxAttempts: 2})
	if _, err := c.Synthesize(context.Background(), clientSpec("client-ra"), service.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if gap := secondAt.Sub(firstAt); gap < 900*time.Millisecond {
		t.Errorf("retried after %v, want >= ~1s from Retry-After header", gap)
	}
}

// TestPermanentErrorsFailFast: a 422 infeasibility proof must not be
// retried — re-solving an infeasible spec cannot help.
func TestPermanentErrorsFailFast(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]string{"error": "no feasible plan", "kind": "no-solution"})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{MaxAttempts: 5})
	_, err := c.Synthesize(context.Background(), clientSpec("client-nosol"), service.RequestOptions{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Kind != "no-solution" || apiErr.Status != http.StatusUnprocessableEntity {
		t.Errorf("got %d/%s, want 422/no-solution", apiErr.Status, apiErr.Kind)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on permanent error)", got)
	}
}

// TestRetriesExhaustedReturnsLastError keeps serving 503 and expects the
// final typed error after MaxAttempts tries.
func TestRetriesExhaustedReturnsLastError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{MaxAttempts: 3})
	_, err := c.Synthesize(context.Background(), clientSpec("client-exhaust"), service.RequestOptions{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 *APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want MaxAttempts=3", got)
	}
}

// TestContextCancelStopsRetryLoop cancels mid-backoff; the client must
// return promptly with the context error instead of sleeping it out.
func TestContextCancelStopsRetryLoop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "breaker open", "kind": "overloaded"})
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := newTestClient(t, srv.URL, Config{MaxAttempts: 5})
	start := time.Now()
	_, err := c.Synthesize(ctx, clientSpec("client-cancel"), service.RequestOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; the 30s Retry-After was not interrupted", elapsed)
	}
}

// TestInvalidSpecFailsLocally: canonicalization rejects garbage before
// any network round trip.
func TestInvalidSpecFailsLocally(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{})
	sp := clientSpec("client-invalid")
	sp.Flows = append(sp.Flows, spec.Flow{From: "ghost", To: "mix1"})
	if _, err := c.Synthesize(context.Background(), sp, service.RequestOptions{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if calls.Load() != 0 {
		t.Errorf("invalid spec reached the server (%d calls)", calls.Load())
	}
}

// TestHonorsRetryAfterOn503 asserts a 503 drain hint delays the retry
// exactly like a 429 breaker hint: the shed-load statuses share one
// backoff policy.
func TestHonorsRetryAfterOn503(t *testing.T) {
	var calls atomic.Int64
	var firstAt, secondAt time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			firstAt = time.Now()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
			return
		}
		secondAt = time.Now()
		json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: "ra503", NumSets: 1})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{MaxAttempts: 2})
	if _, err := c.Synthesize(context.Background(), clientSpec("client-ra503"), service.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if gap := secondAt.Sub(firstAt); gap < 900*time.Millisecond {
		t.Errorf("retried after %v, want >= ~1s from the 503 Retry-After header", gap)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2", got)
	}
}

// TestRetryAfterHTTPDateForm: proxies may rewrite delay-seconds into an
// HTTP-date; the client must parse both RFC 9110 forms.
func TestRetryAfterHTTPDateForm(t *testing.T) {
	var calls atomic.Int64
	var firstAt, secondAt time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			firstAt = time.Now()
			w.Header().Set("Retry-After", time.Now().Add(1200*time.Millisecond).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
			return
		}
		secondAt = time.Now()
		json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: "radate", NumSets: 1})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{MaxAttempts: 2})
	if _, err := c.Synthesize(context.Background(), clientSpec("client-radate"), service.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	// HTTP-date has 1s resolution, so the observable floor is well under
	// the nominal 1.2s — but a client that ignored the header entirely
	// would retry within the 1ms test backoff.
	if gap := secondAt.Sub(firstAt); gap < 150*time.Millisecond {
		t.Errorf("retried after %v; HTTP-date Retry-After ignored", gap)
	}
}

// TestFailoverSkipsBackoffOnTransportError: backoff paces a node that
// is up but overloaded; a node that cannot be reached at all is not
// overloaded. With more than one target, a transport failure must walk
// to the next-ranked node immediately instead of sleeping out a
// backoff the dead node will never benefit from.
func TestFailoverSkipsBackoffOnTransportError(t *testing.T) {
	sp := clientSpec("client-fast-failover")
	jobKey, err := service.JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	var survivorHits atomic.Int64
	survivor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		survivorHits.Add(1)
		json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: sp.Name, NumSets: 1})
	}))
	defer survivor.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	deadID, survivorID := "n0", "n1"
	if cluster.NewRing([]cluster.Node{{ID: "n0"}, {ID: "n1"}}).OwnerID(jobKey) == "n1" {
		deadID, survivorID = "n1", "n0"
	}
	peers := fmt.Sprintf("%s=%s,%s=%s", deadID, dead.URL, survivorID, survivor.URL)

	// A backoff long enough that sleeping even once would blow the
	// elapsed budget below.
	c, err := New(Config{Peers: peers, Seed: 1, BaseBackoff: time.Minute, MaxBackoff: time.Minute, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := c.Synthesize(context.Background(), sp, service.RequestOptions{})
	if err != nil {
		t.Fatalf("failover request failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("failover took %v; the transport error must skip the backoff sleep", elapsed)
	}
	if resp.Name != sp.Name || survivorHits.Load() != 1 {
		t.Errorf("resp=%q survivorHits=%d, want the immediate retry served by the survivor",
			resp.Name, survivorHits.Load())
	}
}

// TestOwnerFirstRouting: with Config.Peers the first attempt must land
// on the spec's owning node (per the shared rendezvous ring), not on
// whichever URL is listed first.
func TestOwnerFirstRouting(t *testing.T) {
	sp := clientSpec("client-owner")
	jobKey, err := service.JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	var hits [2]atomic.Int64
	servers := make([]*httptest.Server, 2)
	peers := make([]string, 2)
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: sp.Name, NumSets: 1})
		}))
		defer servers[i].Close()
		peers[i] = fmt.Sprintf("n%d=%s", i, servers[i].URL)
	}
	ring := cluster.NewRing([]cluster.Node{{ID: "n0", URL: servers[0].URL}, {ID: "n1", URL: servers[1].URL}})
	owner := 0
	if ring.OwnerID(jobKey) == "n1" {
		owner = 1
	}

	c, err := New(Config{Peers: strings.Join(peers, ","), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Synthesize(context.Background(), sp, service.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if hits[owner].Load() != 1 || hits[1-owner].Load() != 0 {
		t.Errorf("hits = [%d %d], want the single request on owner n%d",
			hits[0].Load(), hits[1].Load(), owner)
	}
}

// TestOwnerRoutingFailsOverOnRetry: a dead owner costs one attempt; the
// retry walks to the next-ranked node instead of hammering the corpse.
func TestOwnerRoutingFailsOverOnRetry(t *testing.T) {
	sp := clientSpec("client-failover")
	jobKey, err := service.JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	var survivorHits atomic.Int64
	survivor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		survivorHits.Add(1)
		json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: sp.Name, NumSets: 1})
	}))
	defer survivor.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on

	// Name the dead node so it owns the key: the first attempt must fail.
	deadID, survivorID := "n0", "n1"
	if cluster.NewRing([]cluster.Node{{ID: "n0"}, {ID: "n1"}}).OwnerID(jobKey) == "n1" {
		deadID, survivorID = "n1", "n0"
	}
	peers := fmt.Sprintf("%s=%s,%s=%s", deadID, dead.URL, survivorID, survivor.URL)

	c, err := New(Config{Peers: peers, Seed: 1, BaseBackoff: time.Millisecond, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Synthesize(context.Background(), sp, service.RequestOptions{})
	if err != nil {
		t.Fatalf("failover request failed: %v", err)
	}
	if resp.Name != sp.Name || survivorHits.Load() != 1 {
		t.Errorf("resp=%q survivorHits=%d, want the retry served by the survivor",
			resp.Name, survivorHits.Load())
	}
}
