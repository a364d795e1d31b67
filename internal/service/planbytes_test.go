// The engine's plan bytes and the verified-bytes digest cache: every
// tier holds one binary frame per plan, GET /plans/{key} answers
// JSON to callers that do not name the binary type, and the digest cache
// only ever skips re-verification for bytes this process has already
// fully verified.
package service

import (
	"context"
	"net/http"
	"net/url"
	"testing"

	"switchsynth"
	"switchsynth/internal/planio"
)

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

func TestPlanEndpointNegotiatesFormat(t *testing.T) {
	srv, e := newTestServer(t)
	resp, err := e.Do(context.Background(), serviceSpec("wf-nego"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(accept string) (*http.Response, []byte) {
		t.Helper()
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
		defer r.Body.Close()
		body := make([]byte, 0, 4096)
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		return r, body
	}

	// No Accept header: a plain client gets validated JSON, never frames.
	r, body := get("")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d, want 200", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}
	if planio.IsBinary(body) {
		t.Fatal("client without Accept received a binary frame")
	}
	jsonRes, err := planio.Decode(body)
	if err != nil {
		t.Fatalf("transcoded JSON does not decode: %v", err)
	}

	// A wildcard Accept is not an opt-in to the binary format either.
	if _, body := get("*/*"); planio.IsBinary(body) {
		t.Fatal("wildcard Accept received a binary frame")
	}

	// Naming the binary content type gets the stored frame verbatim.
	r, body = get(planio.ContentTypeBinary + ", application/json")
	if ct := r.Header.Get("Content-Type"); ct != planio.ContentTypeBinary {
		t.Errorf("binary Content-Type = %q, want %q", ct, planio.ContentTypeBinary)
	}
	if !planio.IsBinary(body) {
		t.Fatal("binary-accepting client did not receive a frame")
	}
	binRes, err := planio.DecodeAny(body)
	if err != nil {
		t.Fatalf("served frame does not decode: %v", err)
	}
	ja, err := jsonRes.Spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := binRes.Spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb || jsonRes.NumSets != binRes.NumSets || jsonRes.Length != binRes.Length {
		t.Error("JSON and binary views of the same plan disagree")
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
