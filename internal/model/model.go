// Package model is the faithful encoding of the paper's integer quadratic
// program (Section 3) onto the pure-Go MILP solver in internal/milp.
//
// Variables and constraints map one-to-one to the thesis:
//
//	x_{i,d}   — flow i uses path d            (3.1)–(3.2)
//	conflict node-disjointness                (3.3)
//	flow-set scheduling, one inlet per node   (3.4)–(3.6, modeled via exact
//	           products instead of big-M — equivalent feasible region)
//	objective α·N_Sets + β·L_flow             (3.7)
//	y_{m,p}   — module–pin binding            (3.9)–(3.10)
//	fixed binding                             (3.11)
//	clockwise binding with pin_m and q_m      (3.12)–(3.13)
//
// The quadratic terms (path-choice × set-choice) are linearized exactly by
// milp.Product, so the solved MILP is equivalent to the paper's IQP. The
// package also holds the paper's pressure-sharing ILP (3.14)–(3.17),
// MinCoverILP. Both are exponentially slower than the dedicated solvers
// (internal/search, clique.MinCover) and exist as the paper's reproduction
// and as their oracles: property tests check the optima agree, and
// cmd/switchsynth and cmd/experiments run the IQP with -engine iqp. The
// serving stack never links this package (ci.sh checks cmd/synthd).
package model

import (
	"context"
	"fmt"
	"time"

	"switchsynth/internal/lp"
	"switchsynth/internal/milp"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// Options tune the IQP solve.
type Options struct {
	// TimeLimit bounds the underlying branch & bound (0 = none).
	TimeLimit time.Duration
	// Ctx, when non-nil, cancels the underlying branch & bound promptly
	// (polled once per node), and its deadline, if earlier, replaces
	// TimeLimit.
	Ctx context.Context
}

// Solve builds the paper's IQP for sp and solves it exactly. A limit or
// cancellation hit before any plan was found is reported as
// *search.ErrTimeout (switchsynth.ErrTimeout), the branch and bound's
// own timeout type, carrying the context's error when the cut-off was
// external.
func Solve(sp *spec.Spec, opts Options) (*spec.Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: err}
		}
		if dl, ok := opts.Ctx.Deadline(); ok {
			if rem := time.Until(dl); opts.TimeLimit <= 0 || rem < opts.TimeLimit {
				opts.TimeLimit = rem
			}
		}
	}
	sw, pt, err := sp.SharedTopology()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	b := build(sp, sw, pt)
	sol := b.m.Solve(milp.Options{TimeLimit: opts.TimeLimit, Ctx: opts.Ctx})
	switch sol.Status {
	case milp.Infeasible:
		return nil, &spec.ErrNoSolution{SpecName: sp.Name, Policy: sp.Binding}
	case milp.Limit:
		if !sol.HasSolution {
			return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: sol.Err}
		}
	}
	res, err := b.extract(&sol)
	if err != nil {
		return nil, err
	}
	res.Proven = sol.Status == milp.Optimal
	res.Degraded = !res.Proven
	if res.Proven {
		res.LowerBound = res.Objective
	} else {
		// The MILP substrate exposes no global dual bound; report the
		// trivial admissible one (every plan needs at least one flow set).
		res.LowerBound = sp.EffectiveAlpha()
		if res.LowerBound > res.Objective {
			res.LowerBound = res.Objective
		}
		if res.Objective > 0 {
			res.Gap = (res.Objective - res.LowerBound) / res.Objective
		}
	}
	res.Runtime = time.Since(start)
	res.Engine = "iqp"
	return res, nil
}

type pathCand struct {
	pIn, pOut int // clockwise pin orders
	path      topo.Path
	global    int // index into the global path list (constraint 3.2)
}

type builder struct {
	sp    *spec.Spec
	sw    *topo.Switch
	pt    *topo.PathTable
	m     *milp.Model
	cands [][]pathCand // per flow
	x     [][]milp.Var // x[i][k] for cands[i][k]
	y     [][]milp.Var // y[moduleIdx][pinOrder]
	w     [][]milp.Var // w[i][s]
	used  []milp.Var   // per edge
	nSets int
}

func build(sp *spec.Spec, sw *topo.Switch, pt *topo.PathTable) *builder {
	b := &builder{
		sp:    sp,
		sw:    sw,
		pt:    pt,
		m:     milp.NewModel("iqp:" + sp.Name),
		nSets: sp.EffectiveMaxSets(),
	}
	m := b.m
	nFlows := len(sp.Flows)
	nMods := len(sp.Modules)
	nPins := sw.NumPins
	srcs, dsts := sp.Sources(), sp.Destinations()

	// Binding variables y_{m,p} with (3.9) and (3.10).
	b.y = make([][]milp.Var, nMods)
	for mi := range b.y {
		b.y[mi] = make([]milp.Var, nPins)
		rowEq := milp.NewLinExpr()
		for p := 0; p < nPins; p++ {
			b.y[mi][p] = m.NewBinary(fmt.Sprintf("y(%s,%d)", sp.Modules[mi], p))
			rowEq.Add(1, b.y[mi][p])
		}
		m.AddNamedConstraint("3.9", rowEq, lp.EQ, 1)
	}
	for p := 0; p < nPins; p++ {
		row := milp.NewLinExpr()
		for mi := 0; mi < nMods; mi++ {
			row.Add(1, b.y[mi][p])
		}
		m.AddNamedConstraint("3.10", row, lp.LE, 1)
	}

	switch sp.Binding {
	case spec.Fixed:
		// (3.11): bind each module to its specified pin.
		for mi, name := range sp.Modules {
			m.AddNamedConstraint("3.11", milp.NewLinExpr().Add(1, b.y[mi][sp.FixedPins[name]]), lp.EQ, 1)
		}
	case spec.Clockwise:
		// (3.12)–(3.13): pin_m = Σ_p (p+1)·y_{m,p}; successive modules get
		// increasing pins except at exactly one wrap module q_m.
		pinOf := make([]milp.Var, nMods)
		qs := make([]milp.Var, nMods)
		for mi := range pinOf {
			pinOf[mi] = m.NewInt(fmt.Sprintf("pin(%s)", sp.Modules[mi]), 1, float64(nPins))
			link := milp.NewLinExpr().Add(-1, pinOf[mi])
			for p := 0; p < nPins; p++ {
				link.Add(float64(p+1), b.y[mi][p])
			}
			m.AddNamedConstraint("pin-link", link, lp.EQ, 0)
			qs[mi] = m.NewBinary(fmt.Sprintf("q(%s)", sp.Modules[mi]))
		}
		for a := 0; a < nMods; a++ {
			bNext := (a + 1) % nMods
			// pin_a ≤ pin_b − 1 + q_a·N_Pins   (3.12)
			row := milp.NewLinExpr().Add(1, pinOf[a]).Add(-1, pinOf[bNext]).Add(-float64(nPins), qs[a])
			m.AddNamedConstraint("3.12", row, lp.LE, -1)
		}
		sum := milp.NewLinExpr()
		for _, q := range qs {
			sum.Add(1, q)
		}
		m.AddNamedConstraint("3.13", sum, lp.EQ, 1) // exactly one wrap
	}

	// Path candidates and x_{i,d} with (3.1), (3.2) and binding links.
	globalIdx := map[[3]int]int{} // (pIn, pOut, k) -> global path index
	nextGlobal := 0
	globalOf := func(pIn, pOut, k int) int {
		key := [3]int{pIn, pOut, k}
		if g, ok := globalIdx[key]; ok {
			return g
		}
		globalIdx[key] = nextGlobal
		nextGlobal++
		return globalIdx[key]
	}
	b.cands = make([][]pathCand, nFlows)
	b.x = make([][]milp.Var, nFlows)
	for i := 0; i < nFlows; i++ {
		var pairs [][2]int
		if sp.Binding == spec.Fixed {
			pairs = [][2]int{{
				sp.FixedPins[sp.Flows[i].From],
				sp.FixedPins[sp.Flows[i].To],
			}}
		} else {
			for pIn := 0; pIn < nPins; pIn++ {
				for pOut := 0; pOut < nPins; pOut++ {
					if pIn != pOut {
						pairs = append(pairs, [2]int{pIn, pOut})
					}
				}
			}
		}
		chooseOne := milp.NewLinExpr()
		for _, pr := range pairs {
			paths := pt.PathsBetween(pr[0], pr[1])
			for k, p := range paths {
				c := pathCand{pIn: pr[0], pOut: pr[1], path: p, global: globalOf(pr[0], pr[1], k)}
				v := m.NewBinary(fmt.Sprintf("x(%d,%d-%d#%d)", i, pr[0], pr[1], k))
				b.cands[i] = append(b.cands[i], c)
				b.x[i] = append(b.x[i], v)
				chooseOne.Add(1, v)
				// Binding links: a path is usable only if its endpoints are
				// the flow's bound pins.
				m.AddConstraint(milp.NewLinExpr().Add(1, v).Add(-1, b.y[srcs[i]][pr[0]]), lp.LE, 0)
				m.AddConstraint(milp.NewLinExpr().Add(1, v).Add(-1, b.y[dsts[i]][pr[1]]), lp.LE, 0)
			}
		}
		m.AddNamedConstraint("3.1", chooseOne, lp.EQ, 1)
	}
	// (3.2): each path chosen at most once across flows.
	pathUsers := map[int]*milp.LinExpr{}
	for i := range b.x {
		for k, c := range b.cands[i] {
			e, ok := pathUsers[c.global]
			if !ok {
				e = milp.NewLinExpr()
				pathUsers[c.global] = e
			}
			e.Add(1, b.x[i][k])
		}
	}
	for _, e := range pathUsers {
		m.AddNamedConstraint("3.2", e, lp.LE, 1)
	}

	// Node-usage indicators nu_{i,v} over interior junctions.
	nodeIDs := sw.NodeIDs()
	nu := make([]map[int]milp.Var, nFlows)
	for i := 0; i < nFlows; i++ {
		nu[i] = make(map[int]milp.Var, len(nodeIDs))
		for _, v := range nodeIDs {
			link := milp.NewLinExpr()
			any := false
			for k, c := range b.cands[i] {
				if c.path.UsesVertex(v) {
					link.Add(1, b.x[i][k])
					any = true
				}
			}
			if !any {
				continue
			}
			nv := m.NewBinary(fmt.Sprintf("nu(%d,%s)", i, sw.Vertices[v].Name))
			link.Add(-1, nv)
			m.AddConstraint(link, lp.EQ, 0)
			nu[i][v] = nv
		}
	}

	// (3.3): conflicting flows never share a junction.
	for _, c := range sp.Conflicts {
		for _, v := range nodeIDs {
			a, okA := nu[c[0]][v]
			bb, okB := nu[c[1]][v]
			if okA && okB {
				m.AddNamedConstraint("3.3", milp.NewLinExpr().Add(1, a).Add(1, bb), lp.LE, 1)
			}
		}
	}

	// Scheduling: w_{i,s} with symmetry breaking (flow i uses sets ≤ i).
	b.w = make([][]milp.Var, nFlows)
	for i := 0; i < nFlows; i++ {
		b.w[i] = make([]milp.Var, b.nSets)
		one := milp.NewLinExpr()
		for s := 0; s < b.nSets; s++ {
			b.w[i][s] = m.NewBinary(fmt.Sprintf("w(%d,%d)", i, s))
			if s > i {
				m.AddConstraint(milp.NewLinExpr().Add(1, b.w[i][s]), lp.EQ, 0)
			}
			one.Add(1, b.w[i][s])
		}
		m.AddNamedConstraint("one-set", one, lp.EQ, 1)
	}
	// One inlet per junction per set (the paper's 3.4–3.6, as products).
	for i := 0; i < nFlows; i++ {
		for j := i + 1; j < nFlows; j++ {
			if srcs[i] == srcs[j] {
				continue // branching from one inlet is allowed
			}
			for _, v := range nodeIDs {
				a, okA := nu[i][v]
				bb, okB := nu[j][v]
				if !okA || !okB {
					continue
				}
				for s := 0; s < b.nSets && s <= j; s++ {
					ti := m.Product(a, b.w[i][s])
					tj := m.Product(bb, b.w[j][s])
					m.AddNamedConstraint("sched", milp.NewLinExpr().Add(1, ti).Add(1, tj), lp.LE, 1)
				}
			}
		}
	}

	// Used channels and objective (3.7).
	b.used = make([]milp.Var, len(sw.Edges))
	obj := milp.NewLinExpr()
	beta := sp.EffectiveBeta()
	for e := range sw.Edges {
		b.used[e] = m.NewBinary(fmt.Sprintf("used(%s)", sw.Edges[e].Name))
		obj.Add(beta*sw.Edges[e].Length, b.used[e])
		for i := range b.x {
			row := milp.NewLinExpr().Add(1, b.used[e])
			any := false
			for k, c := range b.cands[i] {
				if c.path.UsesEdge(e) {
					row.Add(-1, b.x[i][k])
					any = true
				}
			}
			if any {
				m.AddConstraint(row, lp.GE, 0)
			}
		}
	}
	alpha := sp.EffectiveAlpha()
	for s := 0; s < b.nSets; s++ {
		su := m.NewBinary(fmt.Sprintf("setUsed(%d)", s))
		for i := 0; i < nFlows; i++ {
			m.AddConstraint(milp.NewLinExpr().Add(1, su).Add(-1, b.w[i][s]), lp.GE, 0)
		}
		obj.Add(alpha, su)
	}
	m.SetObjective(obj)
	return b
}

// extract converts a MILP solution back into a synthesis plan.
func (b *builder) extract(sol *milp.Solution) (*spec.Result, error) {
	sp := b.sp
	res := &spec.Result{
		Spec:   sp,
		Switch: b.sw,
		PinOf:  make(map[string]int, len(sp.Modules)),
		Engine: "iqp",
	}
	for mi, name := range sp.Modules {
		found := false
		for p := range b.y[mi] {
			if sol.Bool(b.y[mi][p]) {
				res.PinOf[name] = p
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("model: module %q unbound in solution", name)
		}
	}
	res.Routes = make([]spec.Route, len(sp.Flows))
	for i := range sp.Flows {
		ki := -1
		for k := range b.x[i] {
			if sol.Bool(b.x[i][k]) {
				ki = k
				break
			}
		}
		if ki == -1 {
			return nil, fmt.Errorf("model: flow %d has no path in solution", i)
		}
		set := -1
		for s := range b.w[i] {
			if sol.Bool(b.w[i][s]) {
				set = s
				break
			}
		}
		if set == -1 {
			return nil, fmt.Errorf("model: flow %d has no set in solution", i)
		}
		res.Routes[i] = spec.Route{Flow: i, Set: set, Path: b.cands[i][ki].path}
	}
	res.Normalize()
	return res, nil
}
