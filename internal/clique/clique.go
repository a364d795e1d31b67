// Package clique solves the pressure-sharing grouping problem: partition
// valves into a minimum number of groups (cliques of the compatibility
// graph) so that every group can share one control inlet.
//
// A minimum clique cover of the compatibility graph is a minimum proper
// coloring of its complement (the incompatibility graph), which this package
// computes exactly with a DSATUR-style branch & bound. The paper's ILP
// formulation (constraints 3.14–3.17) lives with the synthesis IQP in
// internal/model, which cross-checks it against this search.
package clique

import "sort"

// Cover is a partition of 0..n-1 into groups.
type Cover struct {
	// Groups lists the members of each group in ascending order; groups are
	// ordered by their smallest member.
	Groups [][]int
	// Proven reports whether minimality was proven.
	Proven bool
}

// NumGroups returns the number of groups (control inlets needed).
func (c Cover) NumGroups() int { return len(c.Groups) }

// GroupOf returns a lookup from element to group index.
func (c Cover) GroupOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for g, members := range c.Groups {
		for _, m := range members {
			out[m] = g
		}
	}
	return out
}

// MinCover computes a minimum clique cover of the compatibility relation
// comp (symmetric, comp[i][i] true). It colors the complement graph exactly.
func MinCover(comp [][]bool) Cover {
	n := len(comp)
	if n == 0 {
		return Cover{Proven: true}
	}
	// Conflict adjacency = complement of compatibility.
	adj := make([][]bool, n)
	deg := make([]int, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for j := range adj[i] {
			if i != j && !comp[i][j] {
				adj[i][j] = true
				deg[i]++
			}
		}
	}

	ub, greedy := greedyColor(adj, deg)
	lb := cliqueLB(adj, deg)
	best := greedy
	bestK := ub
	if lb < ub {
		// Branch & bound on the number of colors over a static order.
		order := dsaturOrder(adj, deg)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		var search func(pos, usedColors int) bool
		search = func(pos, usedColors int) bool {
			if usedColors >= bestK {
				return false
			}
			if pos == n {
				copy(best, assign)
				bestK = usedColors
				return bestK == lb // optimal proven: stop the whole search
			}
			v := order[pos]
			limit := usedColors // usedColors = open a fresh color
			if limit > bestK-2 {
				limit = bestK - 2 // a color ≥ bestK-1 could never improve
			}
			for c := 0; c <= limit; c++ {
				ok := true
				for u := 0; u < n; u++ {
					if adj[v][u] && assign[u] == c {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				assign[v] = c
				nu := usedColors
				if c == usedColors {
					nu++
				}
				if search(pos+1, nu) {
					assign[v] = -1
					return true
				}
				assign[v] = -1
			}
			return false
		}
		search(0, 0)
	}

	groups := make([][]int, 0)
	byColor := map[int][]int{}
	for v, c := range best {
		byColor[c] = append(byColor[c], v)
	}
	var colorsUsed []int
	for c := range byColor {
		colorsUsed = append(colorsUsed, c)
	}
	sort.Ints(colorsUsed)
	for _, c := range colorsUsed {
		sort.Ints(byColor[c])
		groups = append(groups, byColor[c])
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return Cover{Groups: groups, Proven: true}
}

// greedyColor colors the conflict graph with DSATUR and returns the color
// count and assignment.
func greedyColor(adj [][]bool, deg []int) (int, []int) {
	n := len(adj)
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	sat := make([]map[int]bool, n)
	for i := range sat {
		sat[i] = map[int]bool{}
	}
	maxColor := 0
	for done := 0; done < n; done++ {
		// Pick the uncolored vertex with the highest saturation, breaking
		// ties by degree then index.
		v := -1
		for u := 0; u < n; u++ {
			if colors[u] != -1 {
				continue
			}
			if v == -1 || len(sat[u]) > len(sat[v]) ||
				(len(sat[u]) == len(sat[v]) && deg[u] > deg[v]) {
				v = u
			}
		}
		c := 0
		for sat[v][c] {
			c++
		}
		colors[v] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
		for u := 0; u < n; u++ {
			if adj[v][u] {
				sat[u][c] = true
			}
		}
	}
	return maxColor, colors
}

// cliqueLB finds a large clique in the conflict graph greedily; its size is
// a lower bound on the chromatic number.
func cliqueLB(adj [][]bool, deg []int) int {
	n := len(adj)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })
	best := 0
	for _, start := range order {
		clique := []int{start}
		for _, v := range order {
			if v == start {
				continue
			}
			ok := true
			for _, u := range clique {
				if !adj[v][u] {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, v)
			}
		}
		if len(clique) > best {
			best = len(clique)
		}
	}
	if best == 0 && n > 0 {
		best = 1
	}
	return best
}

// dsaturOrder orders vertices by descending degree (static approximation of
// the DSATUR dynamic order, sufficient for branch & bound).
func dsaturOrder(adj [][]bool, deg []int) []int {
	n := len(adj)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })
	return order
}
