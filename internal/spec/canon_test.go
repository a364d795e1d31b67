package spec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func canonSpec() *Spec {
	return &Spec{
		Name:       "canon",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y", "z"},
		Flows: []Flow{
			{From: "a", To: "x"},
			{From: "b", To: "y"},
			{From: "a", To: "z"},
		},
		Conflicts: [][2]int{{0, 1}, {1, 2}},
		Binding:   Unfixed,
	}
}

func mustKey(t *testing.T, s *Spec) string {
	t.Helper()
	k, err := s.CanonicalKey()
	if err != nil {
		t.Fatalf("CanonicalKey(%s): %v", s.Name, err)
	}
	return k
}

// permuteFlows reorders the flows with perm and remaps the conflicts,
// preserving semantics.
func permuteFlows(s *Spec, perm []int) *Spec {
	cp := *s
	cp.Flows = make([]Flow, len(s.Flows))
	pos := make([]int, len(perm)) // old index -> new index
	for newI, oldI := range perm {
		cp.Flows[newI] = s.Flows[oldI]
		pos[oldI] = newI
	}
	cp.Conflicts = make([][2]int, len(s.Conflicts))
	for i, c := range s.Conflicts {
		cp.Conflicts[i] = [2]int{pos[c[0]], pos[c[1]]}
	}
	return &cp
}

func TestCanonicalKeyInvariantUnderPresentation(t *testing.T) {
	base := canonSpec()
	want := mustKey(t, base)

	// Renamed label and drawing variant do not partition the cache.
	relabeled := *base
	relabeled.Name = "other-name"
	relabeled.Scalable = true
	if got := mustKey(t, &relabeled); got != want {
		t.Errorf("name/scalable changed the key")
	}

	// Module order is free under unfixed binding.
	shuffledMods := *base
	shuffledMods.Modules = []string{"z", "x", "b", "a", "y"}
	if got := mustKey(t, &shuffledMods); got != want {
		t.Errorf("module permutation changed the key under unfixed binding")
	}

	// Flow order (with conflicts remapped) is presentation.
	permuted := permuteFlows(base, []int{2, 0, 1})
	if got := mustKey(t, permuted); got != want {
		t.Errorf("flow permutation changed the key")
	}

	// Conflict orientation and order are presentation.
	flipped := *base
	flipped.Conflicts = [][2]int{{2, 1}, {1, 0}}
	if got := mustKey(t, &flipped); got != want {
		t.Errorf("conflict reorder/flip changed the key")
	}

	// Explicit default weights equal implicit defaults.
	weighted := *base
	weighted.Alpha = DefaultAlpha
	weighted.Beta = DefaultBeta
	if got := mustKey(t, &weighted); got != want {
		t.Errorf("explicit default weights changed the key")
	}
}

func TestCanonicalKeyClockwiseRotation(t *testing.T) {
	base := canonSpec()
	base.Binding = Clockwise
	want := mustKey(t, base)

	for r := 1; r < len(base.Modules); r++ {
		rot := *base
		rot.Modules = append(append([]string{}, base.Modules[r:]...), base.Modules[:r]...)
		if got := mustKey(t, &rot); got != want {
			t.Errorf("rotation by %d changed the clockwise key", r)
		}
	}

	// A non-cyclic permutation IS semantic for clockwise binding.
	swapped := *base
	swapped.Modules = []string{"b", "a", "x", "y", "z"}
	if got := mustKey(t, &swapped); got == want {
		t.Errorf("non-cyclic module swap should change the clockwise key")
	}
}

func TestCanonicalKeySeparatesProblems(t *testing.T) {
	base := canonSpec()
	want := mustKey(t, base)

	bigger := *base
	bigger.SwitchPins = 12
	if mustKey(t, &bigger) == want {
		t.Errorf("switch size not in key")
	}

	noConf := *base
	noConf.Conflicts = nil
	if mustKey(t, &noConf) == want {
		t.Errorf("conflicts not in key")
	}

	otherPolicy := *base
	otherPolicy.Binding = Clockwise
	if mustKey(t, &otherPolicy) == want {
		t.Errorf("binding policy not in key")
	}

	reweighted := *base
	reweighted.Beta = 7
	if mustKey(t, &reweighted) == want {
		t.Errorf("objective weights not in key")
	}
}

// TestCanonicalKeyPropertyRandom drives random valid specs through
// random presentation changes and checks key equality each time.
func TestCanonicalKeyPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := canonSpec()
		s.Binding = BindingPolicy(rng.Intn(2) + 1) // clockwise or unfixed
		want := mustKey(t, s)

		cp := *s
		if s.Binding == Unfixed {
			cp.Modules = append([]string(nil), s.Modules...)
			rng.Shuffle(len(cp.Modules), func(a, b int) {
				cp.Modules[a], cp.Modules[b] = cp.Modules[b], cp.Modules[a]
			})
		} else {
			r := rng.Intn(len(s.Modules))
			cp.Modules = append(append([]string{}, s.Modules[r:]...), s.Modules[:r]...)
		}
		perm := rng.Perm(len(s.Flows))
		pcp := permuteFlows(&cp, perm)
		for i, c := range pcp.Conflicts {
			if rng.Intn(2) == 0 {
				pcp.Conflicts[i] = [2]int{c[1], c[0]}
			}
		}
		rng.Shuffle(len(pcp.Conflicts), func(a, b int) {
			pcp.Conflicts[a], pcp.Conflicts[b] = pcp.Conflicts[b], pcp.Conflicts[a]
		})
		if got := mustKey(t, pcp); got != want {
			t.Fatalf("trial %d (binding %s): presentation change altered key", trial, s.Binding)
		}
	}
}

func TestCanonicalFlowOrderTotal(t *testing.T) {
	s := canonSpec()
	perm := s.CanonicalFlowOrder()
	seen := make([]bool, len(s.Flows))
	for _, i := range perm {
		if seen[i] {
			t.Fatalf("index %d repeated", i)
		}
		seen[i] = true
	}
	for i := 1; i < len(perm); i++ {
		a, b := s.Flows[perm[i-1]], s.Flows[perm[i]]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("not strictly ordered at %d", i)
		}
	}
}

func TestValidateHardening(t *testing.T) {
	var nilSpec *Spec
	if err := nilSpec.Validate(); err == nil {
		t.Error("nil spec validated")
	}

	dup := canonSpec()
	dup.Conflicts = [][2]int{{0, 1}, {1, 0}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate (flipped) conflict pair validated")
	}

	nan := canonSpec()
	nan.Alpha = math.NaN()
	if err := nan.Validate(); err == nil {
		t.Error("NaN alpha validated")
	}

	var ve *ValidationError
	if err := dup.Validate(); !errors.As(err, &ve) {
		t.Errorf("Validate error %T is not a *ValidationError", err)
	}
}

// TestCanonicalFormIsNameless: the canonical form clears the
// presentation-only Name and Scalable and folds the "crossbar" alias, so
// nothing derived from it names a requester; its key is the source's.
func TestCanonicalFormIsNameless(t *testing.T) {
	named := canonSpec()
	named.Name = "tenant-a-secret"
	named.Scalable = true
	named.Topology = TopologyCrossbar
	canon, key, err := named.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Name != "" || canon.Scalable || canon.Topology != "" {
		t.Errorf("canonical form keeps name %q, scalable %v, topology %q", canon.Name, canon.Scalable, canon.Topology)
	}
	if named.Name != "tenant-a-secret" || !named.Scalable || named.Topology != TopologyCrossbar {
		t.Error("Canonical modified its source spec")
	}
	if want := mustKey(t, named); key != want {
		t.Errorf("Canonical key %s, CanonicalKey %s", key, want)
	}
	if got := mustKey(t, canon); got != key {
		t.Errorf("canonical form keys to %s, its source to %s", got, key)
	}
}
