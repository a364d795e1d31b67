package clique

import (
	"math/rand"
	"testing"
	"time"
)

func compFrom(n int, incompatible [][2]int) [][]bool {
	comp := make([][]bool, n)
	for i := range comp {
		comp[i] = make([]bool, n)
		for j := range comp[i] {
			comp[i][j] = true
		}
	}
	for _, p := range incompatible {
		comp[p[0]][p[1]] = false
		comp[p[1]][p[0]] = false
	}
	return comp
}

func checkCover(t *testing.T, comp [][]bool, c Cover) {
	t.Helper()
	n := len(comp)
	seen := make([]bool, n)
	for _, g := range c.Groups {
		for i, a := range g {
			if seen[a] {
				t.Fatalf("element %d in two groups", a)
			}
			seen[a] = true
			for _, b := range g[i+1:] {
				if !comp[a][b] {
					t.Fatalf("group contains incompatible pair %d-%d", a, b)
				}
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("element %d uncovered", i)
		}
	}
}

func TestAllCompatibleOneGroup(t *testing.T) {
	comp := compFrom(5, nil)
	c := MinCover(comp)
	checkCover(t, comp, c)
	if c.NumGroups() != 1 {
		t.Errorf("groups = %d, want 1", c.NumGroups())
	}
}

func TestAllIncompatible(t *testing.T) {
	var inc [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			inc = append(inc, [2]int{i, j})
		}
	}
	comp := compFrom(4, inc)
	c := MinCover(comp)
	checkCover(t, comp, c)
	if c.NumGroups() != 4 {
		t.Errorf("groups = %d, want 4", c.NumGroups())
	}
}

func TestPaperFig32b(t *testing.T) {
	// a compatible with b and c; b and c clash → 2 cliques.
	comp := compFrom(3, [][2]int{{1, 2}})
	c := MinCover(comp)
	checkCover(t, comp, c)
	if c.NumGroups() != 2 {
		t.Errorf("groups = %d, want 2", c.NumGroups())
	}
}

func TestOddCycleNeedsThree(t *testing.T) {
	// C5 conflict graph has chromatic number 3.
	comp := compFrom(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	c := MinCover(comp)
	checkCover(t, comp, c)
	if c.NumGroups() != 3 {
		t.Errorf("groups = %d, want 3 (odd cycle)", c.NumGroups())
	}
}

func TestEmpty(t *testing.T) {
	c := MinCover(nil)
	if c.NumGroups() != 0 || !c.Proven {
		t.Errorf("empty cover = %+v", c)
	}
}

func TestGroupOf(t *testing.T) {
	comp := compFrom(3, [][2]int{{0, 1}})
	c := MinCover(comp)
	g := c.GroupOf(3)
	if g[0] == g[1] {
		t.Error("incompatible pair in same group")
	}
	for i, x := range g {
		if x < 0 {
			t.Errorf("element %d unassigned", i)
		}
	}
}

func TestBruteForceAgreement(t *testing.T) {
	// For tiny instances, compare with exhaustive partition search.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4) // up to 5
		var inc [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					inc = append(inc, [2]int{i, j})
				}
			}
		}
		comp := compFrom(n, inc)
		got := MinCover(comp)
		checkCover(t, comp, got)
		want := bruteMinCover(comp)
		if got.NumGroups() != want {
			t.Errorf("trial %d (n=%d): got %d groups, brute force %d", trial, n, got.NumGroups(), want)
		}
	}
}

// bruteMinCover enumerates all partitions via assignment vectors.
func bruteMinCover(comp [][]bool) int {
	n := len(comp)
	assign := make([]int, n)
	best := n
	var rec func(v, maxG int)
	rec = func(v, maxG int) {
		if maxG >= best {
			return
		}
		if v == n {
			if maxG < best {
				best = maxG
			}
			return
		}
		for g := 0; g <= maxG && g < best; g++ {
			ok := true
			for u := 0; u < v; u++ {
				if assign[u] == g && !comp[u][v] {
					ok = false
					break
				}
			}
			if ok {
				assign[v] = g
				ng := maxG
				if g == maxG {
					ng++
				}
				rec(v+1, ng)
			}
		}
	}
	rec(0, 0)
	return best
}

func TestLargerRandomStaysFast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	var inc [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(5) == 0 {
				inc = append(inc, [2]int{i, j})
			}
		}
	}
	comp := compFrom(n, inc)
	start := time.Now()
	c := MinCover(comp)
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("MinCover too slow: %v", el)
	}
	checkCover(t, comp, c)
}
