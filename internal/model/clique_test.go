package model

import (
	"math/rand"
	"testing"
	"time"

	"switchsynth/internal/clique"
)

// TestCliqueILPAgreesWithSearch keeps the paper's pressure-sharing ILP
// as an oracle for clique.MinCover's coloring search: on random
// compatibility graphs both covers must be valid partitions into
// compatible groups, and a proven ILP cover must have as many groups.
func TestCliqueILPAgreesWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		comp := make([][]bool, n)
		for i := range comp {
			comp[i] = make([]bool, n)
			for j := range comp[i] {
				comp[i][j] = true
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					comp[i][j], comp[j][i] = false, false
				}
			}
		}
		exact := clique.MinCover(comp)
		checkCover(t, comp, exact)
		ilp, err := MinCoverILP(comp, 30*time.Second)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkCover(t, comp, ilp)
		if !ilp.Proven {
			continue // timeout: counts may differ
		}
		if exact.NumGroups() != ilp.NumGroups() {
			t.Errorf("trial %d (n=%d): search %d groups, ILP %d groups",
				trial, n, exact.NumGroups(), ilp.NumGroups())
		}
	}
}

// checkCover fails unless c puts every element in exactly one group of
// pairwise compatible elements.
func checkCover(t *testing.T, comp [][]bool, c clique.Cover) {
	t.Helper()
	group := c.GroupOf(len(comp))
	seen := 0
	for g, members := range c.Groups {
		seen += len(members)
		for _, a := range members {
			if group[a] != g {
				t.Fatalf("element %d in two groups", a)
			}
			for _, b := range members {
				if !comp[a][b] {
					t.Fatalf("group %d holds incompatible pair %d-%d", g, a, b)
				}
			}
		}
	}
	for i, g := range group {
		if g < 0 || seen != len(comp) {
			t.Fatalf("element %d uncovered or duplicated", i)
		}
	}
}
