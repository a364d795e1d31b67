// Package wash implements wash-aware switch scheduling, the fallback the
// paper's related work (Hu et al., "Wash optimization for cross-
// contamination removal", ASP-DAC 2014) applies when strictly
// contamination-free routing is impossible — e.g. the paper's Table 4.1
// cases that have "no solution" under the fixed or clockwise binding
// policies.
//
// Instead of forcing conflicting flows onto disjoint channels, the flows
// are routed with only the collision rules (one inlet per junction per flow
// set), the flow sets are executed in an explicit order, and a wash
// operation — a full flush of the switch — is inserted between two sets
// whenever a conflicting pair left residue on shared channels. The
// scheduler picks the set execution order and the wash positions that
// minimize the number of washes (each wash costs reagent and time).
package wash

import (
	"fmt"
	"sort"
	"time"

	"switchsynth/internal/contam"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// Options tune the wash scheduler.
type Options struct {
	// TimeLimit bounds the underlying routing search (0 = none).
	TimeLimit time.Duration
}

// Plan is a wash-aware schedule.
type Plan struct {
	// Result is the routed plan, with conflicts relaxed to wash separation.
	Result *spec.Result
	// SetOrder gives the execution order: SetOrder[k] is the flow set
	// executed k-th.
	SetOrder []int
	// WashAfter[k] reports whether a wash runs after the k-th executed set.
	// The last entry is always false (no trailing wash needed).
	WashAfter []bool
	// NumWashes is the number of inserted wash operations.
	NumWashes int
	// SharedPairs lists the conflicting flow pairs that share channels and
	// therefore forced wash separation.
	SharedPairs [][2]int
}

// Schedule routes sp with conflicts relaxed and inserts the minimum number
// of washes that restores safety. It fails only if even the relaxed routing
// is infeasible.
func Schedule(sp *spec.Spec, opts Options) (*Plan, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	relaxed := *sp
	relaxed.Conflicts = nil
	res, err := search.Solve(&relaxed, search.Options{TimeLimit: opts.TimeLimit})
	if err != nil {
		return nil, fmt.Errorf("wash: relaxed routing failed: %w", err)
	}
	// Re-attach the real conflicts for reporting.
	full := *sp
	res.Spec = &full

	plan := &Plan{Result: res}
	// The conflicting pairs that share geometry need wash separation.
	plan.SharedPairs = contam.Analyze(sp, res.Switch, res.Routes).PollutedPairs
	var needs []need
	for _, c := range plan.SharedPairs {
		sa, sb := res.Routes[c[0]].Set, res.Routes[c[1]].Set
		if sa == sb {
			// Cannot happen for different inlets (collision rule), and
			// conflicts between same-inlet flows are rejected by Validate.
			return nil, fmt.Errorf("wash: conflicting flows %d and %d share a set", c[0], c[1])
		}
		needs = append(needs, need{sa, sb})
	}

	k := res.NumSets
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	if len(needs) == 0 {
		plan.SetOrder = order
		plan.WashAfter = make([]bool, k)
		return plan, nil
	}

	// Choose the set execution order minimizing the number of washes. Flow
	// set counts are small (≤ #flows), so enumerate permutations up to 7
	// sets and fall back to the identity order beyond.
	bestOrder := append([]int(nil), order...)
	bestWashes := washesFor(bestOrder, needs)
	if k <= 7 {
		perm := append([]int(nil), order...)
		var rec func(i int)
		rec = func(i int) {
			if i == k {
				if w := washesFor(perm, needs); w < bestWashes {
					bestWashes = w
					copy(bestOrder, perm)
				}
				return
			}
			for j := i; j < k; j++ {
				perm[i], perm[j] = perm[j], perm[i]
				rec(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		rec(0)
	}
	plan.SetOrder = bestOrder
	plan.NumWashes = bestWashes
	plan.WashAfter = washPositions(bestOrder, needs)
	return plan, nil
}

// need records two flow sets that must be separated by a wash.
type need struct{ a, b int }

// washesFor counts the minimum washes for a given execution order: every
// needed pair becomes an interval of execution positions, and the classic
// greedy stabbing (by right endpoint) covers all intervals optimally.
func washesFor(order []int, needs []need) int {
	w := washPositions(order, needs)
	n := 0
	for _, x := range w {
		if x {
			n++
		}
	}
	return n
}

// washPositions returns, for the given order, the optimal wash slots:
// WashAfter[k] means a wash between executed set k and k+1.
func washPositions(order []int, needs []need) []bool {
	pos := make(map[int]int, len(order))
	for p, s := range order {
		pos[s] = p
	}
	type interval struct{ lo, hi int } // wash needed in slot lo..hi-1
	var ivs []interval
	for _, nd := range needs {
		a, b := pos[nd.a], pos[nd.b]
		if a > b {
			a, b = b, a
		}
		ivs = append(ivs, interval{a, b})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].hi < ivs[j].hi })
	out := make([]bool, len(order))
	last := -1
	for _, iv := range ivs {
		if last >= iv.lo && last < iv.hi {
			continue // already stabbed
		}
		last = iv.hi - 1
		out[last] = true
	}
	return out
}

// Verify checks a wash plan: the routing obeys the collision rules, the set
// order is a permutation, and every sharing conflict pair has a wash
// between its two sets' execution positions.
func (p *Plan) Verify() error {
	res := p.Result
	rep := contam.Analyze(res.Spec, res.Switch, res.Routes)
	if len(rep.CollidingVertices) > 0 {
		return fmt.Errorf("wash: collision at vertex %d", rep.CollidingVertices[0])
	}
	if len(p.SetOrder) != res.NumSets {
		return fmt.Errorf("wash: order over %d sets, plan has %d", len(p.SetOrder), res.NumSets)
	}
	seen := make([]bool, res.NumSets)
	pos := make(map[int]int)
	for k, s := range p.SetOrder {
		if s < 0 || s >= res.NumSets || seen[s] {
			return fmt.Errorf("wash: SetOrder is not a permutation")
		}
		seen[s] = true
		pos[s] = k
	}
	if len(p.WashAfter) != res.NumSets {
		return fmt.Errorf("wash: WashAfter has wrong length")
	}
	for _, c := range p.SharedPairs {
		a := pos[res.Routes[c[0]].Set]
		b := pos[res.Routes[c[1]].Set]
		if a > b {
			a, b = b, a
		}
		washed := false
		for k := a; k < b; k++ {
			if p.WashAfter[k] {
				washed = true
				break
			}
		}
		if !washed {
			return fmt.Errorf("wash: conflict pair %v not separated by a wash", c)
		}
	}
	return nil
}
