package model

import (
	"fmt"
	"sort"
	"time"

	"switchsynth/internal/clique"
	"switchsynth/internal/lp"
	"switchsynth/internal/milp"
)

// MinCoverILP solves the pressure-sharing clique cover with the paper's
// ILP (3.14)–(3.17): z_{v,c} assigns valve v to clique c, clique_c marks
// occupied cliques, incompatible valves exclude each other per clique,
// and the number of occupied cliques is minimized. clique.MinCover
// computes the same optimum by coloring; this encoding is its oracle.
// The clique pool has one slot per element (the paper's initial size);
// timeLimit bounds the MILP solve (0 = none).
func MinCoverILP(comp [][]bool, timeLimit time.Duration) (clique.Cover, error) {
	n := len(comp)
	if n == 0 {
		return clique.Cover{Proven: true}, nil
	}
	nc := n
	m := milp.NewModel("clique-cover")
	z := make([][]milp.Var, n)
	for v := range z {
		z[v] = make([]milp.Var, nc)
		one := milp.NewLinExpr()
		for c := 0; c < nc; c++ {
			z[v][c] = m.NewBinary(fmt.Sprintf("z(%d,%d)", v, c))
			one.Add(1, z[v][c])
		}
		m.AddNamedConstraint("3.14", one, lp.EQ, 1) // each valve in one clique
	}
	cl := make([]milp.Var, nc)
	obj := milp.NewLinExpr()
	for c := 0; c < nc; c++ {
		cl[c] = m.NewBinary(fmt.Sprintf("clique(%d)", c))
		for v := 0; v < n; v++ {
			// clique_c ≥ z_{v,c}   (3.15)
			m.AddNamedConstraint("3.15", milp.NewLinExpr().Add(1, cl[c]).Add(-1, z[v][c]), lp.GE, 0)
		}
		obj.Add(1, cl[c]) // (3.17)
	}
	for v1 := 0; v1 < n; v1++ {
		for v2 := v1 + 1; v2 < n; v2++ {
			if comp[v1][v2] {
				continue // ps=1 rows are tautologies; omit them
			}
			for c := 0; c < nc; c++ {
				// z_{v1,c} + z_{v2,c} ≤ 1   (3.16 with ps = 0)
				m.AddNamedConstraint("3.16",
					milp.NewLinExpr().Add(1, z[v1][c]).Add(1, z[v2][c]), lp.LE, 1)
			}
		}
	}
	// Symmetry breaking: element v may only use cliques 0..v.
	for v := 0; v < n; v++ {
		for c := v + 1; c < nc; c++ {
			m.AddConstraint(milp.NewLinExpr().Add(1, z[v][c]), lp.EQ, 0)
		}
	}
	m.SetObjective(obj)
	sol := m.Solve(milp.Options{TimeLimit: timeLimit})
	if !sol.HasSolution {
		return clique.Cover{}, fmt.Errorf("model: clique-cover ILP returned %v", sol.Status)
	}
	byClique := map[int][]int{}
	for v := 0; v < n; v++ {
		for c := 0; c < nc; c++ {
			if sol.Bool(z[v][c]) {
				byClique[c] = append(byClique[c], v)
				break
			}
		}
	}
	var groups [][]int
	for _, members := range byClique {
		sort.Ints(members)
		groups = append(groups, members)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return clique.Cover{Groups: groups, Proven: sol.Status == milp.Optimal}, nil
}
