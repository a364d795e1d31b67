// The engine-side halves of plan replication: the OnPlanStored hook
// (fires for fresh proven solves only, with wire-encodable bytes) and
// the PUT /plans/{key} push endpoint (verify-on-receipt before any
// tier is touched).
package service

import (
	"bytes"
	"context"
	"net/http"
	"net/url"
	"sync"
	"testing"

	"switchsynth"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// donorSpec is a second spec family whose canonical key is distinct
// from serviceSpec's.
func donorSpec(name string) *spec.Spec {
	return &spec.Spec{
		Name:       name,
		SwitchPins: 8,
		Modules:    []string{"sample", "mix1"},
		Flows:      []spec.Flow{{From: "sample", To: "mix1"}},
		Binding:    spec.Unfixed,
	}
}

func TestOnPlanStoredFiresForFreshSolvesOnly(t *testing.T) {
	var (
		mu    sync.Mutex
		calls []string
		wires = map[string][]byte{}
	)
	e := newTestEngine(t, Config{Workers: 2, OnPlanStored: func(key string, d []byte) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, key)
		wires[key] = d
	}})

	resp, err := e.Do(context.Background(), serviceSpec("hook-a"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(calls) != 1 || calls[0] != resp.Key {
		mu.Unlock()
		t.Fatalf("hook calls = %v, want exactly [%s]", calls, resp.Key)
	}
	wire := wires[resp.Key]
	mu.Unlock()

	// The hook's bytes are a decodable, proven, verifiable wire plan —
	// exactly what a replica's ImportPlan expects.
	plan, err := planio.DecodeAny(wire)
	if err != nil {
		t.Fatalf("hook bytes do not decode: %v", err)
	}
	if err := switchsynth.Verify(plan); err != nil {
		t.Fatalf("hook bytes fail verification: %v", err)
	}

	// A cache hit must not re-fire the hook.
	if _, err := e.Do(context.Background(), serviceSpec("hook-a"), switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(calls) != 1 {
		t.Errorf("cache hit re-fired the hook: %d calls", len(calls))
	}
	mu.Unlock()

	// A peer import must not fire the hook either — otherwise two
	// replicating nodes would push every plan back and forth forever.
	donor := newTestEngine(t, Config{Workers: 2})
	dresp, err := donor.Do(context.Background(), donorSpec("hook-b"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dwire, ok := donor.PlanBytes(dresp.Key)
	if !ok {
		t.Fatal("donor holds no plan bytes")
	}
	if err := e.ImportPlan(dresp.Key, dwire); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(calls) != 1 {
		t.Errorf("ImportPlan fired the hook: calls = %v (push amplification loop)", calls)
	}
	mu.Unlock()
}

func TestPlanPushEndpoint(t *testing.T) {
	srv, e := newTestServer(t)

	donor := newTestEngine(t, Config{Workers: 2})
	dresp, err := donor.Do(context.Background(), serviceSpec("push-me"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire, ok := donor.PlanBytes(dresp.Key)
	if !ok {
		t.Fatal("donor holds no plan bytes")
	}
	key := dresp.Key
	put := func(key string, body []byte) *http.Response {
		t.Helper()
		target := srv.URL + "/plans/" + url.PathEscape(key)
		if key == "" {
			target = srv.URL + "/plans/"
		}
		req, err := http.NewRequest(http.MethodPut, target, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// A corrupted push is rejected with 422 and stores nothing.
	bad := append([]byte(nil), wire...)
	bad[len(bad)/2] ^= 0x40
	if resp := put(key, bad); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt push status = %d, want 422", resp.StatusCode)
	}
	if _, ok := e.PlanBytes(key); ok {
		t.Fatal("corrupt push reached the store")
	}
	// A proven plan from another engine is refused even under the key
	// its spec derives: only branch-and-bound plans enter a tier.
	iqp := *dresp.Synthesis.Result
	iqp.Engine = "iqp"
	foreign, err := planio.EncodeBinary(&iqp)
	if err != nil {
		t.Fatal(err)
	}
	if resp := put(key, foreign); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("iqp plan push status = %d, want 422", resp.StatusCode)
	}
	if _, ok := e.PlanBytes(key); ok {
		t.Fatal("iqp plan push reached a tier")
	}
	if snap := e.Snapshot(); snap.PeerRejected != 2 {
		t.Errorf("peerRejected = %d, want 2", snap.PeerRejected)
	}

	// A valid push is verified, stored and then served.
	if resp := put(key, wire); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid push status = %d, want 204", resp.StatusCode)
	}
	if _, ok := e.PlanBytes(key); !ok {
		t.Fatal("valid push not stored")
	}
	if snap := e.Snapshot(); snap.PeerImported != 1 {
		t.Errorf("peerImported = %d, want 1", snap.PeerImported)
	}
	got, err := http.Get(srv.URL + "/plans/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Errorf("GET after push = %d, want 200", got.StatusCode)
	}

	// A push under the wrong key is a key-rederivation mismatch: 422.
	if resp := put("not-the-canonical-key", wire); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("wrong-key push status = %d, want 422", resp.StatusCode)
	}

	// A push with no key in the path is not a push at all.
	if resp := put("", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("keyless PUT status = %d, want 405", resp.StatusCode)
	}

	// An oversized body is refused, not imported.
	if resp := put(key, make([]byte, maxPlanBody+1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized push status = %d, want 413", resp.StatusCode)
	}
}
