package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"switchsynth"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/lru"
	"switchsynth/internal/spec"
)

func TestCacheLRUEviction(t *testing.T) {
	c := lru.New[string, cacheEntry](2, nil)
	a, b, d := &spec.Result{}, &spec.Result{}, &spec.Result{}
	c.Put("a", cacheEntry{res: a})
	c.Put("b", cacheEntry{res: b})
	if _, ok := c.Get("a"); !ok { // refresh a → b is now least recent
		t.Fatal("a missing before eviction")
	}
	c.Put("d", cacheEntry{res: d})
	if _, ok := c.Get("b"); ok {
		t.Error("least-recently-used entry b survived eviction")
	}
	if got, ok := c.Get("a"); !ok || got.res != a {
		t.Error("recently-used entry a evicted")
	}
	if got, ok := c.Get("d"); !ok || got.res != d {
		t.Error("new entry d missing")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}

	// Re-putting an existing key replaces in place, no eviction.
	c.Put("a", cacheEntry{res: b})
	if got, _ := c.Get("a"); got.res != b {
		t.Error("re-put did not replace the value")
	}
	if c.Len() != 2 {
		t.Errorf("len after re-put = %d, want 2", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := lru.New[string, cacheEntry](capacity, nil)
		c.Put("k", cacheEntry{res: &spec.Result{}})
		if _, ok := c.Get("k"); ok {
			t.Errorf("capacity %d cached anyway", capacity)
		}
		if c.Len() != 0 {
			t.Errorf("capacity %d len = %d", capacity, c.Len())
		}
	}
}

func TestFlightGroupLeaderAndWaiters(t *testing.T) {
	g := newFlightGroup()
	f1, lead1 := g.join("k")
	if !lead1 {
		t.Fatal("first join is not leader")
	}
	f2, lead2 := g.join("k")
	if lead2 || f1 != f2 {
		t.Fatal("second join did not attach to the leader's flight")
	}
	res := &spec.Result{}
	g.complete("k", f1, res, nil)
	<-f1.done
	if f1.res != res || f1.err != nil {
		t.Error("flight outcome not published")
	}
	// After completion the key is free again.
	if _, lead := g.join("k"); !lead {
		t.Error("post-completion join is not a fresh leader")
	}
}

// TestCanonicalReuseAcrossPresentations is the cache side of the
// canonicalization property: isomorphic specs (renamed, module-permuted,
// flow-permuted, conflict-flipped) all reuse the single cached solve.
func TestCanonicalReuseAcrossPresentations(t *testing.T) {
	var solves atomic.Int64
	e := newTestEngine(t, Config{Workers: 2})
	realSolve := e.solve
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		return realSolve(ctx, sp, opts)
	}

	variants := []*spec.Spec{
		serviceSpec("original"),
		serviceSpec("renamed"),
		permutedServiceSpec("permuted"),
	}
	// A clockwise problem and its rotations share one further entry.
	// (No conflicts: this clockwise module order admits no conflict-free
	// plan, and the class must stay solvable.)
	cw := serviceSpec("cw")
	cw.Binding = spec.Clockwise
	cw.Conflicts = nil
	cwRot := serviceSpec("cw-rotated")
	cwRot.Binding = spec.Clockwise
	cwRot.Conflicts = nil
	cwRot.Modules = []string{"mix1", "mix2", "sample", "buffer"} // rotation by 2
	variants = append(variants, cw, cwRot)

	var keys []string
	for _, sp := range variants {
		resp, err := e.Do(context.Background(), sp, switchsynth.Options{})
		if err != nil {
			t.Fatalf("Do(%s): %v", sp.Name, err)
		}
		if err := switchsynth.Verify(resp.Synthesis.Result); err != nil {
			t.Fatalf("verify %s: %v", sp.Name, err)
		}
		keys = append(keys, resp.Key)
	}

	if got := solves.Load(); got != 2 {
		t.Errorf("%d solves for %d specs in 2 equivalence classes", got, len(variants))
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Error("unfixed presentation variants got different keys")
	}
	if keys[3] != keys[4] {
		t.Error("clockwise rotation got a different key")
	}
	if keys[0] == keys[3] {
		t.Error("unfixed and clockwise problems share a key")
	}
	snap := e.Snapshot()
	if snap.CacheEntries != 2 {
		t.Errorf("cacheEntries = %d, want 2", snap.CacheEntries)
	}
	if snap.CacheHits != int64(len(variants))-2 {
		t.Errorf("cacheHits = %d, want %d", snap.CacheHits, len(variants)-2)
	}
}

func TestMetricsQuantiles(t *testing.T) {
	var m Metrics
	for i := 0; i < 100; i++ {
		m.observeSolve(2_000_000) // 2ms → bucket (0.001, 0.0025]
	}
	s := m.snapshot()
	if s.SolveCount != 100 {
		t.Fatalf("count = %d", s.SolveCount)
	}
	if s.SolveP50Seconds <= 0.001 || s.SolveP50Seconds > 0.0025 {
		t.Errorf("P50 = %v, want within (0.001, 0.0025]", s.SolveP50Seconds)
	}
	if s.SolveMaxSeconds != 0.002 {
		t.Errorf("max = %v, want 0.002", s.SolveMaxSeconds)
	}
	if s.SolveMeanSeconds != 0.002 {
		t.Errorf("mean = %v, want 0.002", s.SolveMeanSeconds)
	}
}

func TestNegativeCacheReplaysInfeasibilityProofs(t *testing.T) {
	var solves atomic.Int64
	e := newTestEngine(t, Config{Workers: 1})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		return nil, &spec.ErrNoSolution{SpecName: sp.Name, Policy: sp.Binding}
	}
	var nosol *spec.ErrNoSolution
	for i := 0; i < 3; i++ {
		if _, err := e.Do(context.Background(), serviceSpec("infeasible"), switchsynth.Options{}); !errors.As(err, &nosol) {
			t.Fatalf("request %d: err = %v, want ErrNoSolution", i, err)
		}
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("solves = %d, want 1 (proof should replay from the negative cache)", got)
	}
	snap := e.Snapshot()
	if snap.NegCacheHits != 2 {
		t.Errorf("NegCacheHits = %d, want 2", snap.NegCacheHits)
	}
	if snap.JobsInfeasible != 3 {
		t.Errorf("JobsInfeasible = %d, want 3", snap.JobsInfeasible)
	}
}

func TestCacheCorruptionHeals(t *testing.T) {
	base := solveOnce(t, serviceSpec("heal"))
	var solves atomic.Int64
	inj := faultinject.New(1).
		Set(faultinject.CacheCorrupt, faultinject.Rule{Probability: 1})
	e := newTestEngine(t, Config{Workers: 1, FaultInjector: inj})
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		solves.Add(1)
		return base, nil
	}

	// First request: miss, solve, corrupted entry stored — but the
	// response is assembled from the flight's pristine copy.
	first, err := e.Do(context.Background(), serviceSpec("heal"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if verr := switchsynth.Verify(first.Synthesis.Result); verr != nil {
		t.Fatalf("first plan failed verification: %v", verr)
	}

	// Second request hits the corrupted entry, heals it, re-solves, and
	// still serves a verified plan.
	second, err := e.Do(context.Background(), serviceSpec("heal"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if verr := switchsynth.Verify(second.Synthesis.Result); verr != nil {
		t.Fatalf("healed plan failed verification: %v", verr)
	}
	snap := e.Snapshot()
	if snap.CacheHealed == 0 {
		t.Error("corrupted entry was never healed")
	}
	if solves.Load() < 2 {
		t.Errorf("solves = %d, want >= 2 (heal re-solves)", solves.Load())
	}
}

func TestNegCacheBounded(t *testing.T) {
	c := lru.New[string, *spec.ErrNoSolution](2, nil)
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, &spec.ErrNoSolution{SpecName: k})
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("newest entry missing")
	}
}
