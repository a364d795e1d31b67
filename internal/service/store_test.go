// Tests of the durable tier behind the engine: warm boot from disk with
// zero solver invocations, the disk-only configuration (memory cache
// off, store on), write-through exclusion of degraded plans, and healing
// of persisted entries that no longer decode or verify.
package service

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/spec"
	"switchsynth/internal/store"
)

// openStoreT opens a synchronous-durability store in its own temp dir.
func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// countingEngine wraps the engine's solver with an invocation counter.
func countingEngine(t *testing.T, cfg Config) (*Engine, *atomic.Int64) {
	t.Helper()
	e := newTestEngine(t, cfg)
	var solves atomic.Int64
	inner := e.solve
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		return inner(ctx, sp, opts)
	}
	return e, &solves
}

func TestEngineWarmBootServesFromDiskWithZeroSolves(t *testing.T) {
	dir := t.TempDir()

	// First life: solve once, write through to disk.
	st1 := openStoreT(t, dir)
	e1, solves1 := countingEngine(t, Config{Workers: 2, Store: st1})
	resp, err := e1.Do(context.Background(), serviceSpec("a"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit || resp.DiskHit || solves1.Load() != 1 {
		t.Fatalf("first life: hit=%v disk=%v solves=%d, want one cold solve",
			resp.CacheHit, resp.DiskHit, solves1.Load())
	}
	if st1.Len() != 1 {
		t.Fatalf("store entries = %d after write-through, want 1", st1.Len())
	}
	e1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh engine, empty memory cache, same directory.
	st2 := openStoreT(t, dir)
	e2, solves2 := countingEngine(t, Config{Workers: 2, Store: st2})
	warm, err := e2.Do(context.Background(), serviceSpec("a"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || !warm.DiskHit {
		t.Fatalf("warm boot: hit=%v disk=%v, want a disk hit", warm.CacheHit, warm.DiskHit)
	}
	if err := switchsynth.Verify(warm.Synthesis.Result); err != nil {
		t.Fatalf("warm-boot plan verify: %v", err)
	}
	// A rotated/permuted equivalent of the solved spec is the same
	// canonical key, so it is a hit too — now from the memory tier the
	// disk hit populated.
	iso, err := e2.Do(context.Background(), permutedServiceSpec("a-rotated"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !iso.CacheHit || iso.DiskHit {
		t.Fatalf("isomorphic resubmit: hit=%v disk=%v, want promoted memory hit", iso.CacheHit, iso.DiskHit)
	}
	if got := solves2.Load(); got != 0 {
		t.Fatalf("warm boot ran %d solver invocations, want 0", got)
	}
	snap := e2.Snapshot()
	if !snap.StoreEnabled || snap.StoreHits != 1 || snap.StoreEntries != 1 {
		t.Fatalf("snapshot store gauges = %+v", snap)
	}
}

func TestEngineDiskOnlyConfiguration(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	e, solves := countingEngine(t, Config{Workers: 2, CacheSize: -1, Store: st})

	if _, err := e.Do(context.Background(), serviceSpec("a"), switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(context.Background(), serviceSpec("a"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With the memory tier disabled, repeat requests are disk hits —
	// not re-solves (the pre-fix behavior: capacity <= 0 dropped stores
	// silently, so nothing was ever reusable).
	if !resp.DiskHit || solves.Load() != 1 {
		t.Fatalf("disk-only repeat: disk=%v solves=%d, want disk hit after one solve",
			resp.DiskHit, solves.Load())
	}
	snap := e.Snapshot()
	if snap.CacheEntries != 0 {
		t.Fatalf("memory tier disabled but holds %d entries", snap.CacheEntries)
	}
	if snap.StoreHits != 1 || snap.StoreMisses == 0 {
		t.Fatalf("store counters = %+v", snap)
	}
}

func TestEngineHealsUndecodablePersistedPlan(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	e, solves := countingEngine(t, Config{Workers: 2, Store: st})

	sp := serviceSpec("a")
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	// A persisted record that passes its CRC but is not a decodable
	// plan: the engine must evict it and re-solve, never serve it.
	if err := st.Put(key, "search", []byte(`{"version":1,"spec":null}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DiskHit || resp.CacheHit {
		t.Fatalf("undecodable entry served: %+v", resp)
	}
	if err := switchsynth.Verify(resp.Synthesis.Result); err != nil {
		t.Fatalf("healed plan verify: %v", err)
	}
	if solves.Load() != 1 {
		t.Fatalf("solves = %d, want 1 re-solve", solves.Load())
	}
	if e.Snapshot().StoreHealed != 1 {
		t.Fatalf("storeHealed = %d, want 1", e.Snapshot().StoreHealed)
	}
	// The re-solve wrote a good plan back; the next fresh-memory lookup
	// is a genuine disk hit.
	e2, solves2 := countingEngine(t, Config{Workers: 2, Store: st})
	again, err := e2.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.DiskHit || solves2.Load() != 0 {
		t.Fatalf("post-heal lookup: disk=%v solves=%d", again.DiskHit, solves2.Load())
	}
}

func TestEngineNeverPersistsDegradedPlans(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	e := newTestEngine(t, Config{Workers: 1, Store: st})
	base := solveOnce(t, serviceSpec("a"))
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		c := *base
		c.Proven = false
		c.Degraded = true
		c.Gap = 0.5
		return &c, nil
	}
	resp, err := e.Do(context.Background(), serviceSpec("a"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Synthesis.Degraded {
		t.Fatal("stub should produce a degraded plan")
	}
	// Give any (buggy) async write-through a moment, then assert the
	// degraded plan reached neither tier.
	time.Sleep(10 * time.Millisecond)
	if st.Len() != 0 {
		t.Fatalf("degraded plan persisted: %d entries", st.Len())
	}
	if e.Snapshot().CacheEntries != 0 {
		t.Fatal("degraded plan cached in memory")
	}
}

// TestEngineHealsPersistedPlanUnderWrongKey files a valid, proven plan
// under a canonical key it does not belong to: the fixed-binding twin's
// plan stored under the unfixed spec's key. The store read must refuse
// it at admission (the key does not re-derive), heal the record and
// re-solve, so the request is served the true unfixed optimum rather
// than the costlier fixed-binding plan. A record under an "|iqp" key is
// swept at boot.
func TestEngineHealsPersistedPlanUnderWrongKey(t *testing.T) {
	fixed := serviceSpec("fixed")
	fixed.Conflicts = nil
	fixed.Binding = spec.Fixed
	fixed.FixedPins = map[string]int{"sample": 0, "mix1": 4, "buffer": 2, "mix2": 6}
	unfixed := serviceSpec("unfixed")
	unfixed.Conflicts = nil

	donor := newTestEngine(t, Config{Workers: 1})
	fresp, err := donor.Do(context.Background(), fixed, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, ok := donor.PlanBytes(fresp.Key)
	if !ok {
		t.Fatal("donor holds no plan bytes")
	}
	wrongKey, err := JobKey(unfixed)
	if err != nil {
		t.Fatal(err)
	}
	if wrongKey == fresp.Key {
		t.Fatal("fixed and unfixed specs share a key; test setup broken")
	}
	cold := solveOnce(t, unfixed)
	if cold.Objective == fresp.Synthesis.Result.Objective {
		t.Fatal("fixed and unfixed optima coincide; the wrong plan would go unnoticed")
	}

	// A record under another engine's suffix is never read again, so
	// the engine drops it at boot rather than advertise it to peers.
	iqpKey := strings.TrimSuffix(wrongKey, "|search") + "|iqp"
	st := openStoreT(t, t.TempDir())
	if err := st.Put(wrongKey, "search", data); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(iqpKey, "iqp", data); err != nil {
		t.Fatal(err)
	}
	e, solves := countingEngine(t, Config{Workers: 2, Store: st})
	if slices.Contains(e.PlanKeys(), iqpKey) || st.Has(iqpKey) {
		t.Fatal("|iqp record survived the boot sweep")
	}
	if got := e.Snapshot().StoreHealed; got != 1 {
		t.Errorf("storeHealed after boot = %d, want 1", got)
	}
	resp, err := e.Do(context.Background(), unfixed, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DiskHit {
		t.Fatalf("misfiled plan served as a disk hit (objective %v)", resp.Synthesis.Result.Objective)
	}
	if got := e.Snapshot().StoreHealed; got != 2 {
		t.Errorf("storeHealed = %d, want 2", got)
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("solves = %d, want 1 re-solve", got)
	}
	if got := resp.Synthesis.Result.Objective; got != cold.Objective {
		t.Errorf("served objective = %v, want the cold optimum %v", got, cold.Objective)
	}
}
