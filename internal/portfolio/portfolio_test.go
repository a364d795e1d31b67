package portfolio

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"switchsynth/internal/contam"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

func baseSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "pf-base",
		SwitchPins: 12,
		Modules:    []string{"a", "b", "o1", "o2", "o3", "o4"},
		Flows: []spec.Flow{
			{From: "a", To: "o1"}, {From: "a", To: "o2"},
			{From: "b", To: "o3"}, {From: "b", To: "o4"},
		},
		Conflicts: [][2]int{{0, 2}, {1, 3}},
		Binding:   spec.Unfixed,
	}
}

// biggerSpec is baseSpec plus one module and one flow: a one-edit
// neighbor in the "query = stored + one flow" direction.
func biggerSpec() *spec.Spec {
	sp := baseSpec()
	sp.Name = "pf-bigger"
	sp.Modules = append(sp.Modules, "o5")
	sp.Flows = append(sp.Flows, spec.Flow{From: "b", To: "o5"})
	return sp
}

func encode(t *testing.T, res *spec.Result) []byte {
	t.Helper()
	data, err := planio.Encode(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// newIndex is an index keyed by the bare canonical key.
func newIndex(capacity int) *SimIndex {
	return NewSimIndex(capacity, (*spec.Spec).CanonicalKey)
}

// keyed derives sp's canonical spec, key and signatures under idx once,
// the way a caller hands them to Lookup and Add.
func keyed(t *testing.T, idx *SimIndex, sp *spec.Spec) (string, *spec.Spec, Signatures) {
	t.Helper()
	canon, err := sp.CanonicalSpec()
	if err != nil {
		t.Fatal(err)
	}
	key, err := canon.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	return key, canon, idx.Signatures(canon)
}

func lookup(t *testing.T, idx *SimIndex, sp *spec.Spec) *spec.Result {
	t.Helper()
	key, canon, sigs := keyed(t, idx, sp)
	return idx.Lookup(key, canon, sigs)
}

// add indexes a plan under its own spec's key, deriving its signatures
// inside Add like a tier feed does.
func add(t *testing.T, idx *SimIndex, res *spec.Result) {
	t.Helper()
	key, err := res.Spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(key, res, nil)
}

func TestSimIndexExactAndRestriction(t *testing.T) {
	idx := newIndex(0)
	if idx.Stats().Capacity != DefaultSimIndexCapacity {
		t.Fatalf("default capacity = %d", idx.Stats().Capacity)
	}

	big := biggerSpec()
	bigPlan, err := search.Solve(big, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	add(t, idx, bigPlan)
	if idx.Len() != 1 {
		t.Fatalf("Len = %d", idx.Len())
	}

	// Exact hit.
	if seed := lookup(t, idx, biggerSpec()); seed == nil {
		t.Error("exact lookup missed")
	} else if verr := contam.Verify(seed); verr != nil {
		t.Errorf("exact seed failed verification: %v", verr)
	}

	// Restriction hit: baseSpec = biggerSpec minus one flow (and the
	// module that flow freed).
	seed := lookup(t, idx, baseSpec())
	if seed == nil {
		t.Fatal("restriction lookup missed")
	}
	if verr := contam.Verify(seed); verr != nil {
		t.Fatalf("restricted seed failed verification: %v", verr)
	}
	if len(seed.Routes) != len(baseSpec().Flows) {
		t.Fatalf("restricted seed has %d routes", len(seed.Routes))
	}

	// The adapted seed must reproduce the cold plan byte-for-byte when
	// fed to the search.
	cold, err := search.Solve(baseSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := search.Solve(baseSpec(), search.Options{SeedIncumbent: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, warm), encode(t, cold)) {
		t.Error("warm-started plan differs from cold plan")
	}
}

func TestSimIndexCompletion(t *testing.T) {
	idx := newIndex(16)
	basePlan, err := search.Solve(baseSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	add(t, idx, basePlan)

	// biggerSpec = baseSpec plus one flow: the completion direction.
	seed := lookup(t, idx, biggerSpec())
	if seed == nil {
		t.Fatal("completion lookup missed")
	}
	if verr := contam.Verify(seed); verr != nil {
		t.Fatalf("completed seed failed verification: %v", verr)
	}
	if len(seed.Routes) != len(biggerSpec().Flows) {
		t.Fatalf("completed seed has %d routes", len(seed.Routes))
	}
	cold, err := search.Solve(biggerSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := search.Solve(biggerSpec(), search.Options{SeedIncumbent: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, warm), encode(t, cold)) {
		t.Error("completion-seeded plan differs from cold plan")
	}
}

func TestSimIndexConflictToggle(t *testing.T) {
	idx := newIndex(16)
	withConf := baseSpec()
	plan, err := search.Solve(withConf, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	add(t, idx, plan)

	// Minus one conflict: the stored plan serves directly.
	fewer := baseSpec()
	fewer.Name = "pf-fewer-conf"
	fewer.Conflicts = [][2]int{{0, 2}}
	if seed := lookup(t, idx, fewer); seed == nil {
		t.Error("minus-conflict lookup missed")
	} else if verr := contam.Verify(seed); verr != nil {
		t.Errorf("minus-conflict seed failed verification: %v", verr)
	}

	// Plus one conflict: served only if the stored plan already
	// respects it (re-verified either way — a nil result is acceptable,
	// a bad seed is not).
	more := baseSpec()
	more.Name = "pf-more-conf"
	more.Conflicts = append(more.Conflicts, [2]int{0, 3})
	if seed := lookup(t, idx, more); seed != nil {
		if verr := contam.Verify(seed); verr != nil {
			t.Errorf("plus-conflict seed failed verification: %v", verr)
		}
	}
}

func TestSimIndexEviction(t *testing.T) {
	idx := newIndex(2)
	specs := make([]*spec.Spec, 3)
	for i := range specs {
		sp := baseSpec()
		sp.Name = fmt.Sprintf("pf-evict-%d", i)
		// Distinct equivalence classes: vary the conflict set.
		sp.Conflicts = sp.Conflicts[:i]
		specs[i] = sp
		plan, err := search.Solve(sp, search.Options{})
		if err != nil {
			t.Fatal(err)
		}
		add(t, idx, plan)
	}
	if idx.Len() != 2 {
		t.Fatalf("Len = %d after overflow, want 2", idx.Len())
	}
	// The oldest entry (specs[0]) must be gone from both maps.
	st := idx.Stats()
	if st.Entries != 2 {
		t.Fatalf("stats entries = %d", st.Entries)
	}
}

func TestSimIndexIgnoresUnproven(t *testing.T) {
	idx := newIndex(4)
	plan, err := search.GreedyFirstFit(baseSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	add(t, idx, plan)
	if idx.Len() != 0 {
		t.Errorf("unproven plan was indexed (Len = %d)", idx.Len())
	}
}

// TestSimIndexRepeatAddAllocatesNothing re-adds a key already indexed:
// Add checks membership by key before any derivation, so the repeat
// feeds of the tiers (disk re-reads with no memory tier, repeat imports)
// cost a map probe, not a signature derivation.
func TestSimIndexRepeatAddAllocatesNothing(t *testing.T) {
	idx := newIndex(4)
	plan, err := search.Solve(baseSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := plan.Spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(key, plan, nil)
	if allocs := testing.AllocsPerRun(100, func() { idx.Add(key, plan, nil) }); allocs != 0 {
		t.Errorf("re-adding an indexed key allocates %.0f times, want 0", allocs)
	}
	if idx.Len() != 1 {
		t.Errorf("Len = %d after repeat adds, want 1", idx.Len())
	}
}

// TestSimIndexLookupThenAddDerivesSignaturesOnce follows a first-seen
// solve: the caller derives the signatures once and hands them to the
// Lookup before the solve and the Add after it. The key function runs
// only on the reduced specs of that one derivation — never on the whole
// spec, and not again inside Lookup or Add.
func TestSimIndexLookupThenAddDerivesSignaturesOnce(t *testing.T) {
	var calls int
	idx := NewSimIndex(4, func(sp *spec.Spec) (string, error) {
		calls++
		return sp.CanonicalKey()
	})
	prior, err := search.Solve(baseSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	add(t, idx, prior)

	calls = 0
	key, canon, sigs := keyed(t, idx, biggerSpec())
	if calls == 0 || calls != len(sigs) {
		t.Fatalf("Signatures called the key function %d times for %d signatures", calls, len(sigs))
	}
	derived := calls
	seed := idx.Lookup(key, canon, sigs)
	if seed == nil {
		t.Fatal("completion lookup missed")
	}
	plan, err := search.Solve(canon, search.Options{SeedIncumbent: seed})
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(key, plan, sigs)
	if calls != derived {
		t.Errorf("Lookup and Add called the key function %d more times, want 0", calls-derived)
	}
	if idx.Len() != 2 {
		t.Errorf("Len = %d, want 2", idx.Len())
	}
}

// TestSimIndexConcurrentFeeds mirrors the engine, whose workers add and
// probe while request goroutines add disk reads: concurrent Adds and
// Lookups over a one-entry index, so every Add also evicts.
func TestSimIndexConcurrentFeeds(t *testing.T) {
	idx := newIndex(1)
	var plans []*spec.Result
	for _, sp := range []*spec.Spec{baseSpec(), biggerSpec()} {
		plan, err := search.Solve(sp, search.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	type query struct {
		key   string
		canon *spec.Spec
		sigs  Signatures
	}
	var queries []query
	for _, plan := range plans {
		key, canon, sigs := keyed(t, idx, plan.Spec)
		queries = append(queries, query{key, canon, sigs})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(g+i)%len(queries)]
				idx.Add(q.key, plans[(g+i)%len(plans)], q.sigs)
				if seed := idx.Lookup(q.key, q.canon, q.sigs); seed != nil && contam.Verify(seed) != nil {
					t.Error("concurrent lookup returned an unverified seed")
				}
			}
		}(g)
	}
	wg.Wait()
	if idx.Len() != 1 {
		t.Errorf("Len = %d, want 1", idx.Len())
	}
}
