package portfolio

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"switchsynth/internal/cases"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// TestPropertyWarmStartMatchesCold is the randomized determinism
// property behind the warm start, over 200 generated specs:
//
//  1. a solve seeded with its own optimum (the hardest tie-break case —
//     the seed matches the canonical leaf's cost exactly) is
//     byte-identical to the cold solve;
//  2. a solve seeded from the similarity index — which adapts whatever
//     structural neighbor it finds, not necessarily an optimal plan for
//     this spec — is byte-identical to the cold solve.
func TestPropertyWarmStartMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("200-spec property sweep")
	}
	const timeLimit = 10 * time.Second
	idx := newIndex(0)
	cs := cases.Artificial(200, 20260808)
	var proven, warmHits, infeasible int
	for _, c := range cs {
		sp := c.Spec
		cold, err := search.Solve(sp, search.Options{TimeLimit: timeLimit})
		if err != nil {
			var nosol *spec.ErrNoSolution
			if !errors.As(err, &nosol) {
				t.Fatalf("%s: cold solve: %v", sp.Name, err)
			}
			infeasible++
			continue
		}
		if !cold.Proven {
			continue // timed out: nothing canonical to compare against
		}
		proven++
		coldBytes, err := planio.Encode(cold)
		if err != nil {
			t.Fatalf("%s: encode: %v", sp.Name, err)
		}

		// Property 1: self-seeded solve is byte-identical.
		self, err := search.Solve(sp, search.Options{TimeLimit: timeLimit, SeedIncumbent: cold})
		if err != nil {
			t.Fatalf("%s: self-seeded solve: %v", sp.Name, err)
		}
		if selfBytes, _ := planio.Encode(self); !bytes.Equal(coldBytes, selfBytes) {
			t.Fatalf("%s: self-seeded plan differs from cold", sp.Name)
		}

		// Property 2: similarity-index-seeded solve is byte-identical.
		// The index accumulates every proven plan as the sweep goes, so
		// later specs hit both exact and adapted-neighbor entries.
		add(t, idx, cold)
		if seed := lookup(t, idx, sp); seed != nil {
			warmHits++
			warm, err := search.Solve(sp, search.Options{TimeLimit: timeLimit, SeedIncumbent: seed})
			if err != nil {
				t.Fatalf("%s: warm solve: %v", sp.Name, err)
			}
			if warmBytes, _ := planio.Encode(warm); !bytes.Equal(coldBytes, warmBytes) {
				t.Fatalf("%s: warm-started plan differs from cold", sp.Name)
			}
		}
	}
	if proven == 0 {
		t.Fatal("no proven cases — the sweep tested nothing")
	}
	if warmHits == 0 {
		t.Fatal("similarity index never hit — the warm-start property went untested")
	}
	t.Logf("200 specs: %d proven, %d warm-start hits, %d infeasible", proven, warmHits, infeasible)
}
