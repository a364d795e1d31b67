package service

import (
	"context"
	"net/http"
	"testing"

	"switchsynth"
	"switchsynth/internal/search"
)

func TestSnapshotSolverGauges(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, SolverWorkers: 3})
	if got := e.Snapshot().SolverWorkers; got != 3 {
		t.Errorf("SolverWorkers gauge = %d, want 3", got)
	}

	def := newTestEngine(t, Config{Workers: 1})
	if got := def.Snapshot().SolverWorkers; got != 1 {
		t.Errorf("default SolverWorkers gauge = %d, want 1 (sequential)", got)
	}

	// The node counter is process-wide, so assert on the delta across one
	// real solve.
	before := search.Counters()
	if _, err := def.Do(context.Background(), serviceSpec("gauge"), switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	after := def.Snapshot().SolverNodesTotal
	if after <= before {
		t.Errorf("solver_nodes_total did not advance: before=%d after=%d", before, after)
	}
}

// TestSolverWorkersNotInCacheKey pins the determinism contract's service
// consequence: the worker count must never partition the result cache,
// because plans are bit-identical at every value.
func TestSolverWorkersNotInCacheKey(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})

	seq, err := e.Do(context.Background(), serviceSpec("keyed"), switchsynth.Options{SolverWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Do(context.Background(), serviceSpec("keyed"), switchsynth.Options{SolverWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !par.CacheHit {
		t.Error("same spec at a different -solver-workers missed the cache")
	}
	if par.Key != seq.Key {
		t.Errorf("cache keys differ across worker counts: %q vs %q", seq.Key, par.Key)
	}
	if par.Synthesis.Objective != seq.Synthesis.Objective || par.Synthesis.Length != seq.Synthesis.Length {
		t.Errorf("plan values differ: %+v vs %+v", par.Synthesis, seq.Synthesis)
	}
}

// TestHTTPSolverWorkersOption exercises the wire form of the knob; with
// DisallowUnknownFields on the decoder, this also pins the field name.
func TestHTTPSolverWorkersOption(t *testing.T) {
	srv, _ := newTestServer(t)

	req := `{
		"spec": {
			"name": "http-parallel",
			"switchPins": 8,
			"modules": ["sample", "buffer", "mix1", "mix2"],
			"flows": [
				{"from": "sample", "to": "mix1"},
				{"from": "buffer", "to": "mix2"}
			],
			"conflicts": [[0, 1]],
			"binding": 2
		},
		"options": {"solverWorkers": 4}
	}`
	resp, body := postJSON(t, srv.URL+"/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}
