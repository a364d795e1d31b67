// Package contam verifies synthesized switch plans against the paper's
// contamination and collision rules, and quantifies the pollution incurred
// by contamination-unaware baselines such as the Columba spine switch.
//
// Rules verified (Sections 3.1–3.4 and the Section 4.2 defaults):
//
//   - every flow follows one valid path from its inlet pin to its outlet pin;
//   - conflicting flows never share a node or segment, at any time;
//   - within one flow set, every node and segment is used by flows of at
//     most one inlet module (branching from a shared inlet is allowed);
//   - modules bind to distinct pins; fixed bindings match the spec; the
//     clockwise policy winds the module order exactly once around the switch;
//   - each outlet pin is targeted by at most one flow.
package contam

import (
	"fmt"
	"math"

	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// Verify checks a synthesized plan in full. It returns nil only when the
// plan is contamination-free, collision-free and structurally consistent.
func Verify(res *spec.Result) error {
	sp := res.Spec
	if err := sp.Validate(); err != nil {
		return err
	}
	sw := res.Switch
	if len(res.Routes) != len(sp.Flows) {
		return fmt.Errorf("contam: %d routes for %d flows", len(res.Routes), len(sp.Flows))
	}

	// Binding checks.
	pinSeen := make(map[int]string)
	for m, p := range res.PinOf {
		if sp.ModuleIndex(m) < 0 {
			return fmt.Errorf("contam: binding for unknown module %q", m)
		}
		if p < 0 || p >= sw.NumPins {
			return fmt.Errorf("contam: module %q bound to pin %d out of range", m, p)
		}
		if other, dup := pinSeen[p]; dup {
			return fmt.Errorf("contam: modules %q and %q share pin %d", other, m, p)
		}
		pinSeen[p] = m
	}
	for _, mod := range sp.Modules {
		if _, ok := res.PinOf[mod]; !ok {
			return fmt.Errorf("contam: module %q unbound", mod)
		}
	}
	switch sp.Binding {
	case spec.Fixed:
		for m, want := range sp.FixedPins {
			if got := res.PinOf[m]; got != want {
				return fmt.Errorf("contam: fixed binding violated: module %q on pin %d, want %d", m, got, want)
			}
		}
	case spec.Clockwise:
		if err := verifyClockwise(sp, res.PinOf); err != nil {
			return err
		}
	}

	// Route checks.
	var unionEdges topo.Bits
	usedSets := make(map[int]bool)
	for i, rt := range res.Routes {
		if rt.Flow != i {
			return fmt.Errorf("contam: route %d is for flow %d", i, rt.Flow)
		}
		if rt.Set < 0 || rt.Set >= sp.EffectiveMaxSets() {
			return fmt.Errorf("contam: flow %d scheduled in set %d beyond MaxSets %d", i, rt.Set, sp.EffectiveMaxSets())
		}
		if rt.Set >= res.NumSets {
			return fmt.Errorf("contam: flow %d scheduled in set %d outside [0,%d)", i, rt.Set, res.NumSets)
		}
		usedSets[rt.Set] = true
		if err := verifyPath(sw, rt.Path); err != nil {
			return fmt.Errorf("contam: flow %d: %w", i, err)
		}
		inPin := sw.PinVertex(res.PinOf[sp.Flows[i].From])
		outPin := sw.PinVertex(res.PinOf[sp.Flows[i].To])
		if rt.Path.In != inPin || rt.Path.Verts[0] != inPin {
			return fmt.Errorf("contam: flow %d does not start at its inlet pin", i)
		}
		if rt.Path.Out != outPin || rt.Path.Verts[len(rt.Path.Verts)-1] != outPin {
			return fmt.Errorf("contam: flow %d does not end at its outlet pin", i)
		}
		unionEdges = unionEdges.Or(rt.Path.EdgeMask)
	}
	if len(usedSets) != res.NumSets {
		return fmt.Errorf("contam: NumSets=%d but %d sets in use", res.NumSets, len(usedSets))
	}
	if unionEdges != res.UsedEdgeMask {
		return fmt.Errorf("contam: used-edge mask mismatch")
	}
	wantLen := sw.MaskLength(&unionEdges, &topo.Bits{})
	if math.Abs(wantLen-res.Length) > 1e-6 {
		return fmt.Errorf("contam: Length=%v but used channels sum to %v", res.Length, wantLen)
	}

	// Contamination (3.3): conflicting flows share no node, hence no
	// segment, at any time. Collision (3.4–3.6): per set, one inlet per
	// node.
	rep := Analyze(sp, sw, res.Routes)
	if len(rep.PollutedPairs) > 0 {
		c := rep.PollutedPairs[0]
		return fmt.Errorf("contam: conflicting flows %d and %d share a node", c[0], c[1])
	}
	if len(rep.CollidingVertices) > 0 {
		v := rep.CollidingVertices[0]
		return fmt.Errorf("contam: node %s used by multiple inlets in one set", sw.Vertices[v].Name)
	}
	return nil
}

func verifyPath(sw *topo.Switch, p topo.Path) error {
	if len(p.Verts) < 2 || len(p.EdgeIDs) != len(p.Verts)-1 {
		return fmt.Errorf("malformed path")
	}
	for i, eid := range p.EdgeIDs {
		if eid < 0 || eid >= len(sw.Edges) {
			return fmt.Errorf("edge %d out of range", eid)
		}
		e := sw.Edges[eid]
		u, v := p.Verts[i], p.Verts[i+1]
		if !((e.U == u && e.V == v) || (e.U == v && e.V == u)) {
			return fmt.Errorf("edge %d does not join path vertices %d-%d", eid, u, v)
		}
	}
	seen := make(map[int]bool, len(p.Verts))
	for _, v := range p.Verts {
		if seen[v] {
			return fmt.Errorf("path revisits vertex %d", v)
		}
		seen[v] = true
	}
	for _, v := range p.Verts[1 : len(p.Verts)-1] {
		if sw.Vertices[v].Kind == topo.PinVertex {
			return fmt.Errorf("path routes through pin %s", sw.Vertices[v].Name)
		}
	}
	return nil
}

func verifyClockwise(sp *spec.Spec, pinOf map[string]int) error {
	if len(sp.Modules) <= 1 {
		return nil
	}
	pins := make([]int, len(sp.Modules))
	for i, m := range sp.Modules {
		pins[i] = pinOf[m]
	}
	descents := 0
	for i := range pins {
		if pins[(i+1)%len(pins)] < pins[i] {
			descents++
		}
	}
	if descents != 1 {
		return fmt.Errorf("contam: clockwise binding violated: pin sequence %v has %d cyclic descents, want 1", pins, descents)
	}
	return nil
}

// Report quantifies contamination and collisions in a set of routes. It is
// meaningful for baselines that cannot satisfy the rules (e.g. spine
// switches); for verified plans all slices are empty.
type Report struct {
	// PollutedPairs lists, in spec order, the conflicting flow pairs that
	// share a node or segment anywhere.
	PollutedPairs [][2]int
	// ContaminatedVertices are nodes shared by at least one conflicting
	// flow pair.
	ContaminatedVertices []int
	// ContaminatedEdges are segments shared by at least one conflicting
	// flow pair.
	ContaminatedEdges []int
	// CollidingVertices are nodes used, within one set, by flows of more
	// than one inlet module.
	CollidingVertices []int
}

// Clean reports whether no contamination and no collisions were found.
func (r Report) Clean() bool {
	return len(r.PollutedPairs) == 0 && len(r.CollidingVertices) == 0
}

// Analyze computes the pollution report for routes on sw under sp. It is
// the one place that decides whether two routes share geometry: Verify
// rejects a plan with a polluted pair, and wash scheduling separates each
// polluted pair by a wash.
func Analyze(sp *spec.Spec, sw *topo.Switch, routes []spec.Route) Report {
	var rep Report
	var verts, edges topo.Bits
	for _, c := range sp.Conflicts {
		if c[0] >= len(routes) || c[1] >= len(routes) {
			continue
		}
		a, b := routes[c[0]].Path, routes[c[1]].Path
		shared, sharedE := a.VertMask.And(b.VertMask), a.EdgeMask.And(b.EdgeMask)
		if shared.IsZero() && sharedE.IsZero() {
			continue
		}
		rep.PollutedPairs = append(rep.PollutedPairs, c)
		verts, edges = verts.Or(shared), edges.Or(sharedE)
	}
	rep.ContaminatedVertices = verts.Indices()
	rep.ContaminatedEdges = edges.Indices()

	// Collisions: within one set, each interior vertex must be used by
	// flows from one inlet module only.
	var collide topo.Bits
	for i, a := range routes {
		for _, b := range routes[i+1:] {
			if a.Set == b.Set && sp.Flows[a.Flow].From != sp.Flows[b.Flow].From {
				collide = collide.Or(interior(a.Path).And(interior(b.Path)))
			}
		}
	}
	rep.CollidingVertices = collide.Indices()
	return rep
}

// interior returns the vertices of p without its two pin endpoints.
func interior(p topo.Path) topo.Bits {
	m := p.VertMask
	m.Clear(p.Verts[0])
	m.Clear(p.Verts[len(p.Verts)-1])
	return m
}

// BaselineRoutes routes every flow of sp on sw along the lexicographically
// first shortest path between its bound pins, each flow in its own set —
// the behaviour of a contamination-unaware tool. pinOf maps module names to
// clockwise pin orders. Used to reproduce the Columba spine comparisons
// (Figures 4.1(d) and 4.2(c)(d)).
func BaselineRoutes(sp *spec.Spec, sw *topo.Switch, pinOf map[string]int) ([]spec.Route, error) {
	routes := make([]spec.Route, len(sp.Flows))
	for i, f := range sp.Flows {
		pIn, okIn := pinOf[f.From]
		pOut, okOut := pinOf[f.To]
		if !okIn || !okOut {
			return nil, fmt.Errorf("contam: baseline binding misses module of flow %d", i)
		}
		paths := sw.AllShortestPaths(sw.PinVertex(pIn), sw.PinVertex(pOut))
		if len(paths) == 0 {
			return nil, fmt.Errorf("contam: no path for flow %d", i)
		}
		routes[i] = spec.Route{Flow: i, Set: i, Path: paths[0]}
	}
	return routes, nil
}

// SequentialBinding binds the modules of sp to pins 0..n-1 of sw in module
// order — the natural spine binding for baselines.
func SequentialBinding(sp *spec.Spec, sw *topo.Switch) map[string]int {
	pinOf := make(map[string]int, len(sp.Modules))
	for i, m := range sp.Modules {
		pinOf[m] = i % sw.NumPins
	}
	return pinOf
}

// SourceFirstBinding binds source modules to the low pins and destination
// modules to the following pins — the inlet-clustered layout typical of
// Columba placements, under which spine flows traverse long shared spine
// stretches (the situation of Figures 4.1(d) and 4.2(c)).
func SourceFirstBinding(sp *spec.Spec, sw *topo.Switch) map[string]int {
	isSource := map[string]bool{}
	for _, f := range sp.Flows {
		isSource[f.From] = true
	}
	pinOf := make(map[string]int, len(sp.Modules))
	next := 0
	for _, m := range sp.Modules {
		if isSource[m] {
			pinOf[m] = next % sw.NumPins
			next++
		}
	}
	for _, m := range sp.Modules {
		if !isSource[m] {
			pinOf[m] = next % sw.NumPins
			next++
		}
	}
	return pinOf
}
