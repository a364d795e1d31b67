// Client-side coverage of the admission tier: batch submission with
// per-item partial failure, the ?wait=proof stream, and the tenant /
// priority identity headers.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/service"
	"switchsynth/internal/spec"
)

// streamSpec16 is a 16-pin case hard enough that the solver publishes
// degraded incumbents for roughly two seconds before the optimality
// proof (the service layer's streaming fixture: the search tier's
// ring16-drop9 row).
func streamSpec16(name string) *switchsynth.Spec {
	return &switchsynth.Spec{
		Name:       name,
		SwitchPins: 16,
		Modules: []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7",
			"m8", "m9", "m10", "m11", "m12", "m13", "m15"},
		Flows: []spec.Flow{
			{From: "m3", To: "m1"}, {From: "m6", To: "m2"}, {From: "m9", To: "m4"},
			{From: "m12", To: "m5"}, {From: "m0", To: "m7"}, {From: "m3", To: "m8"},
			{From: "m6", To: "m10"}, {From: "m9", To: "m11"}, {From: "m12", To: "m13"},
			{From: "m3", To: "m15"},
		},
		Binding: spec.Clockwise,
	}
}

// TestBatchMixedOutcomesAgainstRealDaemon submits one batch holding a
// solvable spec, a duplicate of it, a deadline-starved 16-pin spec and a
// malformed spec: the client must return the proven plan, the deduped
// copy, the degraded anytime plan and a per-item *APIError — all from
// one call, with no member failing its neighbours.
func TestBatchMixedOutcomesAgainstRealDaemon(t *testing.T) {
	eng := service.New(service.Config{Workers: 2})
	defer eng.Close()
	srv := httptest.NewServer(service.NewHandler(eng))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{})

	bad := clientSpec("bad")
	bad.Flows = append(bad.Flows, spec.Flow{From: "sample", To: "nowhere"})
	envelope, items, err := c.Batch(context.Background(), []service.BatchRequestItem{
		{Spec: clientSpec("good")},
		{Spec: clientSpec("good-dup")},
		{Spec: streamSpec16("starved"), Options: &service.RequestOptions{TimeLimitMS: 50}},
		{Spec: bad},
	}, service.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if envelope.Specs != 4 || envelope.Failed != 1 {
		t.Errorf("envelope specs=%d failed=%d, want 4 specs with 1 failure", envelope.Specs, envelope.Failed)
	}

	if items[0].Err != nil || !items[0].Response.Proven {
		t.Errorf("item 0 = err %v proven %v, want a proven plan", items[0].Err, items[0].Response != nil && items[0].Response.Proven)
	}
	if items[1].Err != nil || !items[1].Dedup {
		t.Errorf("item 1 = err %v dedup %v, want deduped onto item 0's solve", items[1].Err, items[1].Dedup)
	}
	if items[0].Key != items[1].Key {
		t.Error("isomorphic members landed on different canonical keys")
	}
	if items[2].Err != nil {
		t.Fatalf("starved member failed: %v", items[2].Err)
	}
	if !items[2].Response.Degraded || items[2].Response.Proven || items[2].Response.Gap <= 0 {
		t.Errorf("starved member = degraded %v proven %v gap %v, want a degraded anytime plan",
			items[2].Response.Degraded, items[2].Response.Proven, items[2].Response.Gap)
	}
	var apiErr *APIError
	if !errors.As(items[3].Err, &apiErr) {
		t.Fatalf("malformed member error = %T (%v), want *APIError", items[3].Err, items[3].Err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Kind != "invalid" || apiErr.Temporary() {
		t.Errorf("malformed member = %+v, want permanent 400 invalid", apiErr)
	}
}

// TestBatchSurfacesShedMembers: a daemon under load sheds individual
// batch members with the overloaded kind; the client must surface them
// as retryable per-item *APIErrors while the served members still carry
// their plans.
func TestBatchSurfacesShedMembers(t *testing.T) {
	var envelopeCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if envelopeCalls.Add(1) == 1 {
			// First attempt: the whole envelope bounces off a drain; the
			// client must retry the POST (no Retry-After here, so the
			// millisecond test backoff applies).
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
			return
		}
		json.NewEncoder(w).Encode(service.BatchResponse{
			Specs: 2, DistinctKeys: 2, Solves: 1, Failed: 1,
			Items: []service.BatchItemResponse{
				{Index: 0, Key: "k0", Response: &service.SynthesizeResponse{Name: "ok", Proven: true}},
				{Index: 1, Key: "k1", Error: "queue over watermark", Kind: "overloaded", Status: http.StatusTooManyRequests},
			},
		})
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})

	_, items, err := c.Batch(context.Background(), []service.BatchRequestItem{
		{Spec: clientSpec("ok")}, {Spec: clientSpec("shed")},
	}, service.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if envelopeCalls.Load() != 2 {
		t.Errorf("envelope attempts = %d, want a retry after the 503", envelopeCalls.Load())
	}
	if items[0].Err != nil || items[0].Response == nil || !items[0].Response.Proven {
		t.Errorf("served member = %+v, want its plan intact next to the shed one", items[0])
	}
	var apiErr *APIError
	if !errors.As(items[1].Err, &apiErr) {
		t.Fatalf("shed member error = %T, want *APIError", items[1].Err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Kind != "overloaded" || !apiErr.Temporary() {
		t.Errorf("shed member = %+v, want retryable 429 overloaded", apiErr)
	}
}

// TestStreamFramesThenProvenFinal follows ?wait=proof end to end against
// the real daemon: at least one degraded incumbent frame arrives before
// the proven final, and the final plan is byte-identical to a plain
// Synthesize of the same spec.
func TestStreamFramesThenProvenFinal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 16-pin solve")
	}
	eng := service.New(service.Config{Workers: 1})
	defer eng.Close()
	srv := httptest.NewServer(service.NewHandler(eng))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{})

	sp := streamSpec16("client-stream")
	var frames []*service.SynthesizeResponse
	final, err := c.Stream(context.Background(), sp,
		service.RequestOptions{TimeLimitMS: (2 * time.Minute).Milliseconds()},
		func(f *service.SynthesizeResponse) error {
			frames = append(frames, f)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Proven || !final.Final {
		t.Fatalf("final frame = proven %v final %v, want the proven plan", final.Proven, final.Final)
	}
	if len(frames) == 0 {
		t.Fatal("no incumbent frames before the proof")
	}
	for i, f := range frames {
		if !f.Degraded || f.Gap <= 0 || f.Final {
			t.Errorf("frame %d = degraded %v gap %v final %v, want a degraded incumbent", i, f.Degraded, f.Gap, f.Final)
		}
		if f.Seq != int64(i+1) {
			t.Errorf("frame %d: seq %d, want %d", i, f.Seq, i+1)
		}
	}

	cold, err := c.Synthesize(context.Background(), sp, service.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Plan, cold.Plan) {
		t.Error("streamed final plan differs from a plain POST /synthesize")
	}
}

// TestStreamInBandError: an error after the 200 is committed arrives as
// the trailing ndjson line; the client must map it back onto the same
// *APIError taxonomy a pre-stream failure would have carried.
func TestStreamInBandError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(service.SynthesizeResponse{Name: "frame", Seq: 1, Degraded: true, Gap: 0.5})
		enc.Encode(map[string]string{"error": "solver timed out", "kind": "timeout"})
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL, Config{})

	var frames int
	_, err := c.Stream(context.Background(), clientSpec("inband"), service.RequestOptions{},
		func(*service.SynthesizeResponse) error { frames++; return nil })
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("in-band error surfaced as %T (%v), want *APIError", err, err)
	}
	if apiErr.Kind != "timeout" || apiErr.Status != http.StatusGatewayTimeout {
		t.Errorf("in-band error = %+v, want kind timeout / 504", apiErr)
	}
	if frames != 1 {
		t.Errorf("frames before the error = %d, want 1", frames)
	}
}

// TestIdentityHeadersAttached: a client configured with a tenant and
// priority stamps both headers on every synthesize-family request; an
// unconfigured client sends neither, deferring to the daemon defaults.
func TestIdentityHeadersAttached(t *testing.T) {
	type seen struct{ tenant, priority string }
	var last atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		last.Store(seen{r.Header.Get(service.TenantHeader), r.Header.Get(service.PriorityHeader)})
		json.NewEncoder(w).Encode(service.SynthesizeResponse{Name: "ok"})
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, Config{Tenant: "acme", Priority: "background"})
	if _, err := c.Synthesize(context.Background(), clientSpec("hdr"), service.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := last.Load().(seen); got != (seen{"acme", "background"}) {
		t.Errorf("Synthesize sent identity %+v, want acme/background", got)
	}
	if _, _, err := c.Batch(context.Background(), []service.BatchRequestItem{{Spec: clientSpec("hdr")}}, service.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := last.Load().(seen); got != (seen{"acme", "background"}) {
		t.Errorf("Batch sent identity %+v, want acme/background", got)
	}

	plain := newTestClient(t, srv.URL, Config{})
	if _, err := plain.Synthesize(context.Background(), clientSpec("hdr2"), service.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := last.Load().(seen); got != (seen{"", ""}) {
		t.Errorf("unconfigured client sent identity %+v, want none", got)
	}
}
