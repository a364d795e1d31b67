package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"switchsynth"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// neighborServiceSpec is serviceSpec plus one module and one flow — one
// similarity edit away, so a solve of serviceSpec warms it.
func neighborServiceSpec(name string) *spec.Spec {
	return &spec.Spec{
		Name:       name,
		SwitchPins: 8,
		Modules:    []string{"sample", "buffer", "mix1", "mix2", "mix3"},
		Flows: []spec.Flow{
			{From: "sample", To: "mix1"},
			{From: "buffer", To: "mix2"},
			{From: "buffer", To: "mix3"},
		},
		Conflicts: [][2]int{{0, 1}},
		Binding:   spec.Unfixed,
	}
}

func planBytes(t *testing.T, res *spec.Result) []byte {
	t.Helper()
	data, err := planio.Encode(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// TestWarmStartAcrossNeighborSolves solves a spec, then its one-edit
// neighbor, and expects the second solve to warm-start from the first —
// with the warm plan byte-identical to a cold engine's.
func TestWarmStartAcrossNeighborSolves(t *testing.T) {
	warm := newTestEngine(t, Config{Workers: 1})
	coldEng := newTestEngine(t, Config{Workers: 1, SimIndexSize: -1})

	if _, err := warm.Do(context.Background(), serviceSpec("base"), switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	hot, err := warm.Do(context.Background(), neighborServiceSpec("neighbor"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldEng.Do(context.Background(), neighborServiceSpec("neighbor"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planBytes(t, cold.Synthesis.Result), planBytes(t, hot.Synthesis.Result)) {
		t.Error("warm-started plan differs from cold solve")
	}

	snap := warm.Snapshot()
	if snap.SimIndexHits != 1 {
		t.Errorf("simindex hits = %d, want 1 (the neighbor solve)", snap.SimIndexHits)
	}
	if misses := snap.SimIndexLookups - snap.SimIndexHits; misses != 1 {
		t.Errorf("simindex misses = %d, want 1 (the cold base solve)", misses)
	}
	if snap.SimIndexEntries != 2 {
		t.Errorf("simindex entries = %d, want 2", snap.SimIndexEntries)
	}
	if snap.SeedsRejected != 0 && snap.SeedsAdopted == 0 {
		t.Errorf("seeds: adopted=%d rejected=%d — adapted neighbor seed should adopt", snap.SeedsAdopted, snap.SeedsRejected)
	}
	if cs := coldEng.Snapshot(); cs.SimIndexHits != 0 || cs.SimIndexLookups != 0 || cs.SimIndexCapacity != 0 {
		t.Errorf("disabled simindex still counting: hits=%d lookups=%d capacity=%d",
			cs.SimIndexHits, cs.SimIndexLookups, cs.SimIndexCapacity)
	}

	// The warm-start counters keep their /metrics names.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"portfolio_seed_tightened", "portfolio_seeds_adopted", "portfolio_seeds_rejected",
		"simindex_entries", "simindex_capacity", "simindex_lookups", "simindex_hits"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics snapshot missing %q", key)
		}
	}
}
