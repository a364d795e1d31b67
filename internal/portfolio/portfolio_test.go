package portfolio

import (
	"bytes"
	"fmt"
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

func TestSimIndexExactAndRestriction(t *testing.T) {
	idx := NewSimIndex(0)
	if idx.Stats().Capacity != DefaultSimIndexCapacity {
		t.Fatalf("default capacity = %d", idx.Stats().Capacity)
	}

	big := biggerSpec()
	bigPlan, err := search.Solve(big, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(big, bigPlan)
	if idx.Len() != 1 {
		t.Fatalf("Len = %d", idx.Len())
	}

	// Exact hit.
	if seed := idx.Lookup(biggerSpec()); seed == nil {
		t.Error("exact lookup missed")
	} else if verr := contam.Verify(seed); verr != nil {
		t.Errorf("exact seed failed verification: %v", verr)
	}

	// Restriction hit: baseSpec = biggerSpec minus one flow (and the
	// module that flow freed).
	seed := idx.Lookup(baseSpec())
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
	idx := NewSimIndex(16)
	basePlan, err := search.Solve(baseSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(baseSpec(), basePlan)

	// biggerSpec = baseSpec plus one flow: the completion direction.
	seed := idx.Lookup(biggerSpec())
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
	idx := NewSimIndex(16)
	withConf := baseSpec()
	plan, err := search.Solve(withConf, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(withConf, plan)

	// Minus one conflict: the stored plan serves directly.
	fewer := baseSpec()
	fewer.Name = "pf-fewer-conf"
	fewer.Conflicts = [][2]int{{0, 2}}
	if seed := idx.Lookup(fewer); seed == nil {
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
	if seed := idx.Lookup(more); seed != nil {
		if verr := contam.Verify(seed); verr != nil {
			t.Errorf("plus-conflict seed failed verification: %v", verr)
		}
	}
}

func TestSimIndexEviction(t *testing.T) {
	idx := NewSimIndex(2)
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
		idx.Add(sp, plan)
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
	idx := NewSimIndex(4)
	plan, err := search.GreedyFirstFit(baseSpec(), search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(baseSpec(), plan)
	if idx.Len() != 0 {
		t.Errorf("unproven plan was indexed (Len = %d)", idx.Len())
	}
}
