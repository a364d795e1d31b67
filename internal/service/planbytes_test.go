// The engine's plan bytes and the verified-bytes digest cache: every
// tier holds one binary frame per plan, GET /plans/{key} answers
// JSON to every caller, and the digest cache
// only ever skips re-verification for bytes this process has already
// fully verified.
package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"switchsynth"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// TestSharedStateCarriesNoRequesterName: two tenants submit equivalent
// specs under their own names. Each sees its own name, and nothing the
// engine keeps or hands out under the shared key — WatchKey's answer and
// frames, PlanBytes, the store record, the bytes pushed to replicas —
// carries either name.
func TestSharedStateCarriesNoRequesterName(t *testing.T) {
	names := []string{"tenant-a-secret", "tenant-b"}
	st := openStoreT(t, t.TempDir())
	var (
		mu     sync.Mutex
		pushed [][]byte
	)
	e := newTestEngine(t, Config{Workers: 2, Store: st, OnPlanStored: func(_ string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		pushed = append(pushed, data)
	}})
	var key string
	for _, sp := range []*spec.Spec{serviceSpec(names[0]), permutedServiceSpec(names[1])} {
		resp, err := e.Do(context.Background(), sp, switchsynth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Synthesis.Spec.Name; got != sp.Name {
			t.Errorf("requester %q was shown its plan as %q", sp.Name, got)
		}
		key = resp.Key
	}
	anonymous := func(what string, data []byte) {
		t.Helper()
		for _, name := range names {
			if bytes.Contains(data, []byte(name)) {
				t.Errorf("%s: requester name %q leaked", what, name)
			}
		}
	}

	watched, err := e.WatchKey(context.Background(), key, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := planio.EncodeWire(watched.Synthesis.Result)
	if err != nil {
		t.Fatal(err)
	}
	anonymous("WatchKey's plan", wire)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	hr, err := http.Get(srv.URL + "/synthesize/stream/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("GET /synthesize/stream/{key} = %d, %v", hr.StatusCode, err)
	}
	anonymous("the /synthesize/stream/{key} frames", frames)

	data, ok := e.PlanBytes(key)
	if !ok {
		t.Fatal("no plan bytes under the shared key")
	}
	anonymous("PlanBytes", data)
	rec, _, ok := st.Get(key)
	if !ok {
		t.Fatal("no store record under the shared key")
	}
	anonymous("the store record", rec)
	mu.Lock()
	defer mu.Unlock()
	if len(pushed) != 1 {
		t.Fatalf("pushed %d plans, want 1", len(pushed))
	}
	anonymous("the pushed bytes", pushed[0])
}

// TestOneFramePerKeyWhateverTheSpelling: specs that spell a default
// objective weight or set cap explicitly, or carry fixed pins under a
// binding that ignores them, share a key with the spec that leaves them
// out. Two engines fed the two spellings in opposite orders must hold
// the same frame: what is cached, stored and replicated under a key does
// not depend on which member was solved first.
func TestOneFramePerKeyWhateverTheSpelling(t *testing.T) {
	spellings := []struct {
		name string
		edit func(*spec.Spec)
	}{
		{"alpha", func(sp *spec.Spec) { sp.Alpha = spec.DefaultAlpha }},
		{"beta", func(sp *spec.Spec) { sp.Beta = spec.DefaultBeta }},
		{"max-sets", func(sp *spec.Spec) { sp.MaxSets = len(sp.Flows) }},
		{"unbound-fixed-pins", func(sp *spec.Spec) {
			sp.FixedPins = map[string]int{"sample": 0, "buffer": 1, "mix1": 2, "mix2": 3}
		}},
	}
	for _, sc := range spellings {
		t.Run(sc.name, func(t *testing.T) {
			plain, spelled := serviceSpec("plain"), serviceSpec("spelled")
			sc.edit(spelled)
			frame := func(order ...*spec.Spec) []byte {
				e := newTestEngine(t, Config{Workers: 1})
				var key string
				for _, sp := range order {
					resp, err := e.Do(context.Background(), sp, switchsynth.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if key != "" && resp.Key != key {
						t.Fatalf("spellings keyed apart: %s vs %s", resp.Key, key)
					}
					key = resp.Key
				}
				data, ok := e.PlanBytes(key)
				if !ok {
					t.Fatal("engine holds no plan bytes")
				}
				return data
			}
			if !bytes.Equal(frame(plain, spelled), frame(spelled, plain)) {
				t.Error("the frame under one key depends on which spelling was solved first")
			}
		})
	}
}

func TestPlanBytesAreBinaryByDefault(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	resp, err := e.Do(context.Background(), serviceSpec("wf-bin"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, ok := e.PlanBytes(resp.Key)
	if !ok {
		t.Fatal("no plan bytes after a proven solve")
	}
	if !planio.IsBinary(data) {
		t.Fatal("default wire format did not produce a binary frame")
	}
	res, err := planio.DecodeAny(data)
	if err != nil {
		t.Fatalf("binary frame does not decode: %v", err)
	}
	if err := switchsynth.Verify(res); err != nil {
		t.Fatalf("decoded binary plan fails verification: %v", err)
	}
	// The served frame is byte-identical to a fresh canonical encoding —
	// the engine encodes once and reuses the frame across tiers.
	want, err := planio.EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Error("served frame differs from the canonical encoding of its own plan")
	}
}

// TestPlanBytesFramelessEntryFallsThroughToStore: a memory entry with no
// frame (the cache-corruption fault stores one) vouches for no bytes, so
// PlanBytes serves the store's frame unchanged, or nothing without one.
func TestPlanBytesFramelessEntryFallsThroughToStore(t *testing.T) {
	corrupting := func() *faultinject.Injector {
		return faultinject.New(1).Set(faultinject.CacheCorrupt, faultinject.Rule{Probability: 1})
	}

	st := openStoreT(t, t.TempDir())
	e := newTestEngine(t, Config{Workers: 1, Store: st, FaultInjector: corrupting()})
	resp, err := e.Do(context.Background(), serviceSpec("frameless"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := st.Get(resp.Key)
	if !ok {
		t.Fatal("proven plan was not written through to the store")
	}
	got, ok := e.PlanBytes(resp.Key)
	if !ok || !bytes.Equal(got, want) {
		t.Errorf("PlanBytes = (%d bytes, %v), want the store's %d bytes unchanged", len(got), ok, len(want))
	}

	bare := newTestEngine(t, Config{Workers: 1, FaultInjector: corrupting()})
	resp, err = bare.Do(context.Background(), serviceSpec("frameless"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := bare.PlanBytes(resp.Key); ok {
		t.Errorf("PlanBytes served %d bytes for a frameless entry with no store", len(data))
	}
}

// TestPlanEndpointServesJSON: GET /plans/{key} is for curl, humans and
// verifyplan over HTTP, so every caller gets the JSON file format — a
// client naming the binary content type included (peers fetch frames
// over the plan stream) — and it decodes to the plan PlanBytes holds.
func TestPlanEndpointServesJSON(t *testing.T) {
	srv, e := newTestServer(t)
	resp, err := e.Do(context.Background(), serviceSpec("wf-json"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frame, ok := e.PlanBytes(resp.Key)
	if !ok {
		t.Fatal("engine holds no plan bytes")
	}
	want, err := planio.ToJSON(frame)
	if err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{"", "*/*", planio.ContentTypeBinary + ", application/json"} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/plans/"+url.PathEscape(resp.Key), nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: GET = %d, want 200", accept, r.StatusCode)
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Accept %q: Content-Type = %q, want application/json", accept, ct)
		}
		if string(body) != string(want) {
			t.Errorf("Accept %q: body is not the JSON transcode of the stored frame", accept)
		}
	}
}

// TestSolvedPlanPassesTheDoorBeforeAnyTier: a solve whose proven plan
// fails contamination verification (the paths of its first two routes
// swapped, so flow 0 does not start at its inlet pin) fails
// the request and reaches no tier. No frame is served, nothing is
// persisted or pushed, and the digest cache does not vouch for the plan,
// so the door still refuses its bytes.
func TestSolvedPlanPassesTheDoorBeforeAnyTier(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	var pushes atomic.Int64
	e := newTestEngine(t, Config{Workers: 1, Store: st, OnPlanStored: func(string, []byte) { pushes.Add(1) }})
	var bad *spec.Result
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		res, err := switchsynth.SolvePlan(ctx, sp, opts)
		if err != nil {
			return nil, err
		}
		swapped := *res
		swapped.Routes = slices.Clone(res.Routes)
		swapped.Routes[0].Path, swapped.Routes[1].Path = swapped.Routes[1].Path, swapped.Routes[0].Path
		bad = &swapped
		return bad, nil
	}
	sp := serviceSpec("swapped-routes")
	if resp, err := e.Do(context.Background(), sp, switchsynth.Options{}); err == nil {
		t.Fatalf("Do served a plan that fails verification: %+v", resp)
	}
	if !bad.Proven {
		t.Fatal("the tampered solve is not proven; the probe checks nothing")
	}
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.PlanBytes(key); ok {
		t.Error("PlanBytes serves the unverified plan")
	}
	if st.Has(key) {
		t.Error("the store holds the unverified plan")
	}
	if n := pushes.Load(); n != 0 {
		t.Errorf("OnPlanStored fired %d times for the unverified plan, want 0", n)
	}
	frame, err := planio.EncodeBinary(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.admitPlan(key, frame); err == nil {
		t.Error("the door admitted the unverified plan's frame: the digest cache vouched for it")
	}
}

// TestDigestCacheSkipsReverifyForSeenBytesOnly is the digest-cache
// soundness test: a byte-identical re-import of already-verified bytes
// skips the redundant re-verification (counted as a hit), while unseen
// bytes — even valid ones — always take the full verification path.
func TestDigestCacheSkipsReverifyForSeenBytesOnly(t *testing.T) {
	// Private digest caches, swapped in right after New: the process-wide
	// shared cache would leak counter state between tests. The memory
	// cache is disabled so repeated imports reach the digest path instead
	// of the already-present fast exit.
	e := newTestEngine(t, Config{Workers: 2, CacheSize: -1})
	e.verified = planio.NewVerifiedCache(64)

	donor := newTestEngine(t, Config{Workers: 2})
	donor.verified = planio.NewVerifiedCache(64)
	dresp, err := donor.Do(context.Background(), serviceSpec("wf-digest"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire, ok := donor.PlanBytes(dresp.Key)
	if !ok {
		t.Fatal("donor has no plan bytes")
	}

	// First import: unseen bytes, full verification, digest miss + add.
	if err := e.ImportPlan(dresp.Key, wire); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.DigestCacheHits != 0 || snap.DigestCacheMisses == 0 || snap.DigestCacheAdds == 0 {
		t.Fatalf("first import digest hits/misses/adds = %d/%d/%d, want 0/>0/>0",
			snap.DigestCacheHits, snap.DigestCacheMisses, snap.DigestCacheAdds)
	}

	// Second import of the identical bytes: digest hit, verification
	// skipped, still imported correctly.
	if err := e.ImportPlan(dresp.Key, wire); err != nil {
		t.Fatal(err)
	}
	snap = e.Snapshot()
	if snap.DigestCacheHits != 1 {
		t.Errorf("re-import digest hits = %d, want 1", snap.DigestCacheHits)
	}
	if snap.PeerImported != 2 {
		t.Errorf("peerImported = %d, want 2", snap.PeerImported)
	}

	// Same bytes under the wrong key must NOT hit: the digest vouches
	// for (bytes, key) pairs, and the full path then rejects the key
	// mismatch.
	if err := e.ImportPlan("not-that-key", wire); err == nil {
		t.Fatal("import under a wrong key succeeded")
	}

	// A flipped byte is unseen bytes: digest miss, full path rejects.
	bad := append([]byte(nil), wire...)
	bad[len(bad)/2] ^= 0x01
	if err := e.ImportPlan(dresp.Key, bad); err == nil {
		t.Fatal("corrupted bytes imported")
	}
	if snap := e.Snapshot(); snap.DigestCacheHits != 1 {
		t.Errorf("corrupt/wrong-key imports moved the hit counter: %d, want still 1", snap.DigestCacheHits)
	}
}
