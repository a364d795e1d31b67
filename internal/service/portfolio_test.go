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
// with the warm plan byte-identical to a fresh engine's cold solve.
func TestWarmStartAcrossNeighborSolves(t *testing.T) {
	warm := newTestEngine(t, Config{Workers: 1})
	coldEng := newTestEngine(t, Config{Workers: 1})

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
	if hits := coldEng.Snapshot().SimIndexHits; hits != 0 {
		t.Errorf("fresh engine: simindex hits = %d, want 0 (a cold solve)", hits)
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

// TestWarmStartFromEveryTierFeed teaches the similarity index through
// each door a plan enters the memory tier by other than a local solve —
// an ImportPlan, a peer fill, and a disk read with the memory tier
// disabled — and expects the one-edit neighbor solved next to
// warm-start from it, byte-identical to a fresh engine's cold solve.
func TestWarmStartFromEveryTierFeed(t *testing.T) {
	ctx := context.Background()
	src := newTestEngine(t, Config{Workers: 1})
	resp, err := src.Do(ctx, serviceSpec("base"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := resp.Key
	data, ok := src.PlanBytes(key)
	if !ok {
		t.Fatal("source engine holds no plan bytes for the base key")
	}
	cold, err := newTestEngine(t, Config{Workers: 1}).Do(ctx, neighborServiceSpec("neighbor"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldBytes := planBytes(t, cold.Synthesis.Result)

	arms := []struct {
		name string
		// feed returns an engine that took the base plan in through its door.
		feed func(t *testing.T) *Engine
	}{
		{"import", func(t *testing.T) *Engine {
			e := newTestEngine(t, Config{Workers: 1})
			if err := e.ImportPlan(key, data); err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"peer-fill", func(t *testing.T) *Engine {
			e := newTestEngine(t, Config{Workers: 1, PeerFill: func(_ context.Context, k string) ([]byte, error) {
				if k == key {
					return data, nil
				}
				return nil, nil
			}})
			if r, err := e.Do(ctx, serviceSpec("base"), switchsynth.Options{}); err != nil || !r.PeerHit {
				t.Fatalf("base request: err=%v, want a peer hit", err)
			}
			return e
		}},
		{"disk-only", func(t *testing.T) *Engine {
			st := openStoreT(t, t.TempDir())
			if err := st.Put(key, searchEngine, data); err != nil {
				t.Fatal(err)
			}
			e := newTestEngine(t, Config{Workers: 1, CacheSize: -1, Store: st})
			if r, err := e.Do(ctx, serviceSpec("base"), switchsynth.Options{}); err != nil || !r.DiskHit {
				t.Fatalf("base request: err=%v, want a disk hit", err)
			}
			return e
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			e := arm.feed(t)
			if n := e.Snapshot().SimIndexEntries; n != 1 {
				t.Fatalf("simindex entries = %d after the feed, want 1", n)
			}
			warm, err := e.Do(ctx, neighborServiceSpec("neighbor"), switchsynth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if hits := e.Snapshot().SimIndexHits; hits != 1 {
				t.Errorf("simindex hits = %d, want 1 (the neighbor warm-starts)", hits)
			}
			if !bytes.Equal(planBytes(t, warm.Synthesis.Result), coldBytes) {
				t.Error("warm-started plan differs from the cold solve")
			}
		})
	}
}
