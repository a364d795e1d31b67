package spec_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"switchsynth/internal/cases"
	"switchsynth/internal/contam"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// permuteFlows returns sp with its flows in a random order and its
// conflicts re-indexed to match.
func permuteFlows(sp *spec.Spec, rng *rand.Rand) *spec.Spec {
	out := *sp
	perm := rng.Perm(len(sp.Flows)) // new position of each old flow
	out.Flows = make([]spec.Flow, len(sp.Flows))
	for old, f := range sp.Flows {
		out.Flows[perm[old]] = f
	}
	out.Conflicts = make([][2]int, len(sp.Conflicts))
	for i, c := range sp.Conflicts {
		out.Conflicts[i] = [2]int{perm[c[0]], perm[c[1]]}
	}
	return &out
}

// TestRelabelRoundTripProperty moves every proven plan of the crossbar
// and FPVA campaigns onto a random flow permutation of its spec and back.
// The permuted plan must verify with bit-identical Length and Objective,
// and the plan moved back must encode to the original's bytes.
func TestRelabelRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	proven := 0
	for _, c := range append(cases.Artificial(90, 42), cases.ArtificialFPVA(90, 42)...) {
		res, err := search.Solve(c.Spec, search.Options{})
		var nosol *spec.ErrNoSolution
		if errors.As(err, &nosol) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.Spec.Name, err)
		}
		proven++
		want, err := planio.EncodeBinary(res)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := res.Relabel(permuteFlows(c.Spec, rng))
		if err != nil {
			t.Fatalf("%s: relabel onto the permutation: %v", c.Spec.Name, err)
		}
		if err := contam.Verify(moved); err != nil {
			t.Errorf("%s: permuted plan fails verification: %v", c.Spec.Name, err)
		}
		if moved.Length != res.Length || moved.Objective != res.Objective {
			t.Errorf("%s: permuted plan L=%v obj=%v, original L=%v obj=%v",
				c.Spec.Name, moved.Length, moved.Objective, res.Length, res.Objective)
		}
		back, err := moved.Relabel(res.Spec)
		if err != nil {
			t.Fatalf("%s: relabel back: %v", c.Spec.Name, err)
		}
		got, err := planio.EncodeBinary(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: plan relabeled there and back encodes to different bytes", c.Spec.Name)
		}
	}
	if proven < 100 {
		t.Fatalf("only %d proven plans; the sample is too thin", proven)
	}
	t.Logf("%d proven plans round-trip byte-identically", proven)
}

// TestRelabelRejectsUncoveredTargets: a target flow the plan has no
// route for, or a target module it binds no pin to, is an error; routes
// of flows the target lacks are dropped.
func TestRelabelRejectsUncoveredTargets(t *testing.T) {
	sp := &spec.Spec{
		Name:       "relabel",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    spec.Unfixed,
	}
	res, err := search.Solve(sp, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fewer := *sp
	fewer.Modules = []string{"b", "y"}
	fewer.Flows = []spec.Flow{{From: "b", To: "y"}}
	got, err := res.Relabel(&fewer)
	if err != nil {
		t.Fatalf("relabel onto a sub-spec: %v", err)
	}
	if err := contam.Verify(got); err != nil {
		t.Errorf("restricted plan fails verification: %v", err)
	}

	more := *sp
	more.Modules = append(append([]string(nil), sp.Modules...), "z")
	more.Flows = append(append([]spec.Flow(nil), sp.Flows...), spec.Flow{From: "a", To: "z"})
	if _, err := res.Relabel(&more); err == nil {
		t.Error("relabel onto a spec with an unrouted flow succeeded")
	}
	other := *sp
	other.Flows = []spec.Flow{{From: "a", To: "y"}, {From: "b", To: "x"}}
	if _, err := res.Relabel(&other); err == nil {
		t.Error("relabel onto a spec with different flows succeeded")
	}
}
