package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// batchSpecVariant returns the i-th member of a batch drawn from
// distinct canonical equivalence classes: Alpha partitions the key
// space, and odd members are permuted presentations of the same problem
// (isomorphic under the canonical key).
func batchSpecVariant(i, distinct int) *spec.Spec {
	var sp *spec.Spec
	if i%2 == 1 {
		sp = permutedServiceSpec(fmt.Sprintf("batch-%d", i))
	} else {
		sp = serviceSpec(fmt.Sprintf("batch-%d", i))
	}
	sp.Alpha = float64(i%distinct + 1)
	return sp
}

// TestBatchHundredSpecsSevenKeys is the dedup acceptance check: a
// 100-spec batch spanning 7 canonical keys must perform exactly 7
// solves, answering the other 93 members by plan adaptation.
func TestBatchHundredSpecsSevenKeys(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4})
	items := make([]BatchSpec, 100)
	for i := range items {
		items[i] = BatchSpec{Spec: batchSpecVariant(i, 7)}
	}
	before := e.Snapshot()
	out := e.DoBatch(context.Background(), items)
	after := e.Snapshot()

	if solves := after.SolveCount - before.SolveCount; solves != 7 {
		t.Errorf("batch performed %d solves, want exactly 7", solves)
	}
	if after.BatchDeduped-before.BatchDeduped != 93 {
		t.Errorf("batchDeduped advanced by %d, want 93", after.BatchDeduped-before.BatchDeduped)
	}
	keys := map[string]float64{}
	for i, oc := range out {
		if oc.Err != nil {
			t.Fatalf("item %d failed: %v", i, oc.Err)
		}
		obj := oc.Resp.Synthesis.Objective
		if prev, ok := keys[oc.Key]; ok && prev != obj {
			t.Errorf("item %d: objective %v differs from its group's %v", i, obj, prev)
		}
		keys[oc.Key] = obj
		if err := switchsynth.Verify(oc.Resp.Synthesis.Result); err != nil {
			t.Errorf("item %d plan failed verification: %v", i, err)
		}
	}
	if len(keys) != 7 {
		t.Errorf("batch spanned %d distinct keys, want 7", len(keys))
	}
}

// TestBatchDegradedGroupCostsOneSolve pins DoBatch's per-key grouping,
// which in-flight coalescing alone does not give: a degraded plan is
// never cached, so a member reaching Do after its key's solve finished
// would start another. A batch of isomorphic specs must still cost
// exactly one solve.
func TestBatchDegradedGroupCostsOneSolve(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4})
	base := solveOnce(t, serviceSpec("degraded"))
	e.solve = func(context.Context, *spec.Spec, switchsynth.Options) (*spec.Result, error) {
		c := *base
		c.Proven, c.Degraded, c.Gap = false, true, 0.5
		return &c, nil
	}
	items := make([]BatchSpec, 64)
	for i := range items {
		items[i] = BatchSpec{Spec: batchSpecVariant(i, 1)}
	}
	before := e.Snapshot()
	out := e.DoBatch(context.Background(), items)
	if solves := e.Snapshot().SolveCount - before.SolveCount; solves != 1 {
		t.Errorf("batch of %d isomorphic specs performed %d solves, want exactly 1", len(items), solves)
	}
	for i, oc := range out {
		if oc.Err != nil {
			t.Fatalf("item %d failed: %v", i, oc.Err)
		}
		if !oc.Resp.Synthesis.Degraded {
			t.Errorf("item %d: plan not degraded", i)
		}
	}
}

// TestBatchMatchesSequentialByteForByte is the batch-determinism gate:
// one batch of N specs must produce, member for member, plans
// byte-identical to N sequential solves on a fresh engine.
func TestBatchMatchesSequentialByteForByte(t *testing.T) {
	const n = 12
	items := make([]BatchSpec, n)
	for i := range items {
		items[i] = BatchSpec{Spec: batchSpecVariant(i, 3)}
	}

	eBatch := newTestEngine(t, Config{Workers: 4})
	out := eBatch.DoBatch(context.Background(), items)

	eSeq := newTestEngine(t, Config{Workers: 1})
	for i := range items {
		if out[i].Err != nil {
			t.Fatalf("batch item %d failed: %v", i, out[i].Err)
		}
		seq, err := eSeq.Do(context.Background(), items[i].Spec, items[i].Opts)
		if err != nil {
			t.Fatalf("sequential solve %d failed: %v", i, err)
		}
		got, err := planio.EncodeWire(out[i].Resp.Synthesis.Result)
		if err != nil {
			t.Fatal(err)
		}
		want, err := planio.EncodeWire(seq.Synthesis.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("item %d: batch plan differs from sequential solve", i)
		}
	}
}

// TestBatchPartialFailure: a batch mixing solvable, degraded-anytime,
// invalid and absent specs reports each member's outcome independently —
// one bad member never fails its neighbours.
func TestBatchPartialFailure(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	bad := serviceSpec("bad")
	bad.Flows = append(bad.Flows, spec.Flow{From: "sample", To: "nowhere"})
	out := e.DoBatch(context.Background(), []BatchSpec{
		{Spec: serviceSpec("good")},
		{Spec: bad},
		{Spec: nil},
		{Spec: hardSpec16(0), Opts: switchsynth.Options{TimeLimit: 50 * time.Millisecond}},
	})

	if out[0].Err != nil {
		t.Errorf("valid member failed: %v", out[0].Err)
	}
	var verr *spec.ValidationError
	if !errors.As(out[1].Err, &verr) {
		t.Errorf("invalid member error = %v, want *spec.ValidationError", out[1].Err)
	}
	if out[2].Err == nil {
		t.Error("nil-spec member did not fail")
	}
	if status, kind := classifyHTTP(out[2].Err); status != http.StatusBadRequest || kind != "invalid" {
		t.Errorf("nil-spec member classified %d/%s, want 400/invalid", status, kind)
	}
	if out[3].Err != nil {
		t.Fatalf("anytime member failed: %v", out[3].Err)
	}
	if !out[3].Resp.Synthesis.Degraded || out[3].Resp.Synthesis.Proven {
		t.Errorf("50ms 16-pin member: Degraded=%v Proven=%v, want a degraded anytime plan",
			out[3].Resp.Synthesis.Degraded, out[3].Resp.Synthesis.Proven)
	}
	if got := e.Snapshot().JobsInvalid; got < 2 {
		t.Errorf("JobsInvalid = %d, want >= 2 (invalid and nil members)", got)
	}
}

// TestHTTPBatchEndpoint drives POST /synthesize/batch end to end: dedup
// flags, distinct-key and solve accounting, and per-item error envelopes
// in one mixed batch.
func TestHTTPBatchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	distinct := serviceSpec("b-alpha2")
	distinct.Alpha = 2
	req := BatchRequest{Specs: []BatchRequestItem{
		{Spec: serviceSpec("b0")},
		{Spec: serviceSpec("b0-dup")},
		{Spec: permutedServiceSpec("b0-perm")},
		{Spec: distinct},
		{Spec: &spec.Spec{Name: "malformed"}},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, srv.URL+"/synthesize/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200: %.300s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if out.Specs != 5 || out.DistinctKeys != 2 || out.Solves != 2 || out.Failed != 1 {
		t.Errorf("envelope = specs %d, distinct %d, solves %d, failed %d; want 5/2/2/1",
			out.Specs, out.DistinctKeys, out.Solves, out.Failed)
	}
	for _, i := range []int{1, 2} {
		if !out.Items[i].Dedup || out.Items[i].Response == nil {
			t.Errorf("item %d: dedup=%v response=%v, want deduped success", i, out.Items[i].Dedup, out.Items[i].Response != nil)
		}
	}
	if out.Items[0].Dedup || out.Items[3].Dedup {
		t.Error("group representatives flagged as dedup")
	}
	if out.Items[0].Response.Key != out.Items[2].Response.Key {
		t.Error("isomorphic members landed on different canonical keys")
	}
	fail := out.Items[4]
	if fail.Status != http.StatusBadRequest || fail.Kind != "invalid" || fail.Error == "" {
		t.Errorf("invalid member = %+v, want status 400 kind invalid with a message", fail)
	}
}

// TestHTTPBatchLimits pins the envelope-level rejections: an empty batch
// is a 400 and an over-long one a 413, both as JSON envelopes.
func TestHTTPBatchLimits(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, raw := postJSON(t, srv.URL+"/synthesize/batch", `{"specs": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400: %.200s", resp.StatusCode, raw)
	}

	over := BatchRequest{Specs: make([]BatchRequestItem, maxBatchSpecs+1)}
	for i := range over.Specs {
		over.Specs[i].Spec = serviceSpec("x")
	}
	body, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, srv.URL+"/synthesize/batch", string(body))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413: %.200s", resp.StatusCode, raw)
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Kind != "invalid" {
		t.Errorf("413 envelope = %+v (err %v), want kind invalid", env, err)
	}
}
