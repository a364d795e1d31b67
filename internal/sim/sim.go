// Package sim executes a synthesized switch plan on a fluidic simulator:
// an independent, dynamic check of the guarantees the synthesizer proves
// statically.
//
// The simulator runs the flow sets in order. In each set it derives the
// effective valve states (closed valves from the valve analysis, optionally
// resolved through the shared pressure sequences of a clique cover, every
// removed valve permanently open), injects each active inlet's fluid at its
// pin, and floods the fluid through every reachable open channel — the
// conservative model of pressure-driven flow. It reports:
//
//   - Misroute: fluid reaching a pin of a module that is never a
//     destination of that fluid — the failure the paper ascribes to
//     valve-less spine switches ("some of the fluids from RC1 may go to
//     p_c2").
//   - Collision: two different inlets' fluids meeting in the same flow set.
//   - Unreached: a scheduled flow whose outlet its fluid cannot reach
//     (an over-closed valve).
//   - Contamination: a flow touching the residue of a flow it conflicts
//     with (constraint 3.3, stated over flows, as contam.Verify checks it).
//     Residue persists on every channel and junction a fluid ever wetted
//     and belongs to the inlet's active flows routed through it, or to all
//     of them where the wetting is off every route (dead ends, channels
//     behind removed valves).
//
// A verified synthesis must simulate with a clean report; the baselines
// must not. Both facts are asserted in the test suites.
package sim

import (
	"fmt"
	"sort"

	"switchsynth/internal/clique"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
	"switchsynth/internal/valve"
)

// EventKind classifies simulation findings.
type EventKind int

// Event kinds.
const (
	Misroute EventKind = iota
	Collision
	Unreached
	Contamination
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Misroute:
		return "misroute"
	case Collision:
		return "collision"
	case Unreached:
		return "unreached"
	case Contamination:
		return "contamination"
	}
	return "?"
}

// Event is one simulation finding.
type Event struct {
	Kind EventKind
	// Set is the flow set during which the event occurred.
	Set int
	// Fluid is the inlet module whose fluid triggered the event.
	Fluid string
	// Other is the second fluid (Collision/Contamination) or the wrongly
	// reached module (Misroute) or the unreached destination (Unreached).
	Other string
	// Where names the vertex or edge of the event.
	Where string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("set %d: %s of %s vs %s at %s", e.Set+1, e.Kind, e.Fluid, e.Other, e.Where)
}

// Report is a full simulation outcome.
type Report struct {
	Events []Event
	// FluidReach[set][inlet] holds the vertices each fluid reached per set.
	FluidReach []map[string][]int
}

// Clean reports whether the simulation found no problems.
func (r *Report) Clean() bool { return len(r.Events) == 0 }

// Count returns the number of events of kind k.
func (r *Report) Count(k EventKind) int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Options configure a simulation run.
type Options struct {
	// Valves is the valve analysis of the plan; nil simulates with every
	// valve permanently open (the valve-less spine situation).
	Valves *valve.Analysis
	// Pressure optionally resolves don't-care states through the shared
	// pressure sequences of the cover's groups: a valve is closed whenever
	// its control inlet pressurizes, even in its own X sets.
	Pressure *clique.Cover
	// SetOrder optionally overrides the execution order of the flow sets
	// (used by wash-aware schedules). Defaults to 0..NumSets-1.
	SetOrder []int
	// WashAfter optionally flushes all residue after given execution
	// positions (aligned with SetOrder).
	WashAfter []bool
}

// Run simulates the plan.
func Run(res *spec.Result, opts Options) (*Report, error) {
	sw := res.Switch
	nSets := res.NumSets
	order := opts.SetOrder
	if order == nil {
		order = make([]int, nSets)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != nSets {
		return nil, fmt.Errorf("sim: order covers %d sets, plan has %d", len(order), nSets)
	}

	closedInSet, err := effectiveClosures(res, opts)
	if err != nil {
		return nil, err
	}

	// Destinations each fluid may legitimately reach (in any set).
	mayReach := map[string]map[string]bool{}
	for _, f := range res.Spec.Flows {
		if mayReach[f.From] == nil {
			mayReach[f.From] = map[string]bool{}
		}
		mayReach[f.From][f.To] = true
	}
	moduleAtPin := map[int]string{}
	for m, p := range res.PinOf {
		moduleAtPin[sw.PinVertex(p)] = m
	}
	// The flows whose route passes each vertex and edge, and each flow's
	// conflict partners (the paper's set CF), as bitsets over flow indices
	// (a valid spec has at most one flow per outlet pin).
	flows := res.Spec.Flows
	routeV := make([]topo.Bits, len(sw.Vertices))
	routeE := make([]topo.Bits, len(sw.Edges))
	for _, rt := range res.Routes {
		for _, v := range rt.Path.Verts {
			routeV[v].Set(rt.Flow)
		}
		for _, e := range rt.Path.EdgeIDs {
			routeE[e].Set(rt.Flow)
		}
	}
	conflicts := make([]topo.Bits, len(flows))
	for f, others := range res.Spec.ConflictsWith() {
		for _, g := range others {
			conflicts[f].Set(g)
		}
	}

	rep := &Report{FluidReach: make([]map[string][]int, nSets)}
	// Residue on vertices and edges: the flows whose fluid was left there.
	vertResidue := make([]topo.Bits, len(sw.Vertices))
	edgeResidue := make([]topo.Bits, len(sw.Edges))
	// contaminate reports every fluid whose older residue at an element
	// conflicts with a flow charged there.
	contaminate := func(set int, fluid string, charged, residue topo.Bits, where string) {
		var hit topo.Bits
		for _, f := range charged.Indices() {
			hit = hit.Or(residue.And(conflicts[f]))
		}
		seen := map[string]bool{}
		for _, g := range hit.Indices() {
			if other := flows[g].From; !seen[other] {
				seen[other] = true
				rep.Events = append(rep.Events, Event{
					Kind: Contamination, Set: set, Fluid: fluid, Other: other, Where: where,
				})
			}
		}
	}

	for pos, set := range order {
		closed := closedInSet[set]
		// Which flows of each fluid are active, and which outlets they
		// expect this set.
		active := map[string]topo.Bits{}
		expect := map[string]map[int]bool{} // fluid → outlet pin vertices
		for _, rt := range res.Routes {
			if rt.Set != set {
				continue
			}
			f := flows[rt.Flow]
			fs := active[f.From]
			fs.Set(rt.Flow)
			active[f.From] = fs
			if expect[f.From] == nil {
				expect[f.From] = map[int]bool{}
			}
			expect[f.From][sw.PinVertex(res.PinOf[f.To])] = true
		}
		var fluids []string
		for f := range active {
			fluids = append(fluids, f)
		}
		sort.Strings(fluids)

		// Active sinks of this set: the outlet pins of all scheduled flows.
		// Module ports of inactive modules are gated by the modules' own
		// valves, so flow only runs between active inlets and active
		// outlets; everything else is dead-end wetting (PDMS is
		// gas-permeable, so dead ends do fill and collect residue, but no
		// through-flow and hence no misrouting happens there).
		sinks := map[int]bool{}
		for _, outs := range expect {
			for out := range outs {
				sinks[out] = true
			}
		}

		reach := map[string][]int{}
		reachE := map[string][]int{}
		vertFluid := map[int][]string{}
		for _, fluid := range fluids {
			inletPin := sw.PinVertex(res.PinOf[fluid])
			wetV, wetE := flood(res, inletPin, closed)
			reach[fluid] = wetV
			reachE[fluid] = wetE
			flowV := flowRegion(res, wetV, closed, inletPin, sinks)
			for _, v := range flowV {
				vertFluid[v] = append(vertFluid[v], fluid)
				// Misroute: flowing into a pin of a foreign module.
				if mod, isPin := moduleAtPin[v]; isPin && mod != fluid && !mayReach[fluid][mod] {
					rep.Events = append(rep.Events, Event{
						Kind: Misroute, Set: set, Fluid: fluid, Other: mod,
						Where: sw.Vertices[v].Name,
					})
				}
			}
			// Contamination by older residue of a conflicting flow: any
			// wetted channel counts, dead ends included.
			for _, v := range wetV {
				contaminate(set, fluid, charge(active[fluid], routeV[v]), vertResidue[v], sw.Vertices[v].Name)
			}
			for _, e := range wetE {
				contaminate(set, fluid, charge(active[fluid], routeE[e]), edgeResidue[e], sw.Edges[e].Name)
			}
			// Unreached outlets.
			reached := map[int]bool{}
			for _, v := range flowV {
				reached[v] = true
			}
			for out := range expect[fluid] {
				if !reached[out] {
					rep.Events = append(rep.Events, Event{
						Kind: Unreached, Set: set, Fluid: fluid,
						Other: moduleAtPin[out], Where: sw.Vertices[out].Name,
					})
				}
			}
		}
		// Collisions: two active fluids at one vertex.
		var cverts []int
		for v, fs := range vertFluid {
			if len(fs) > 1 {
				cverts = append(cverts, v)
			}
		}
		sort.Ints(cverts)
		for _, v := range cverts {
			fs := vertFluid[v]
			sort.Strings(fs)
			rep.Events = append(rep.Events, Event{
				Kind: Collision, Set: set, Fluid: fs[0], Other: fs[1],
				Where: sw.Vertices[v].Name,
			})
		}
		// Deposit residue on everything wetted.
		for fluid, verts := range reach {
			for _, v := range verts {
				vertResidue[v] = vertResidue[v].Or(charge(active[fluid], routeV[v]))
			}
			for _, e := range reachE[fluid] {
				edgeResidue[e] = edgeResidue[e].Or(charge(active[fluid], routeE[e]))
			}
		}
		rep.FluidReach[set] = reach

		// Wash flush.
		if opts.WashAfter != nil && pos < len(opts.WashAfter) && opts.WashAfter[pos] {
			clear(vertResidue)
			clear(edgeResidue)
		}
	}
	sortEvents(rep.Events)
	return rep, nil
}

// charge names the flows that own the residue a fluid leaves on a wetted
// vertex or edge: of the fluid's active flows, those whose route passes it
// (pressure-driven flow carries residue downstream along its route), or
// all of them where no route does (dead ends, channels behind removed
// valves).
func charge(active, onRoute topo.Bits) topo.Bits {
	if c := active.And(onRoute); !c.IsZero() {
		return c
	}
	return active
}

// effectiveClosures derives, per flow set, the set of closed edges.
func effectiveClosures(res *spec.Result, opts Options) ([]map[int]bool, error) {
	nSets := res.NumSets
	out := make([]map[int]bool, nSets)
	for s := range out {
		out[s] = map[int]bool{}
	}
	if opts.Valves == nil {
		return out, nil // everything open
	}
	va := opts.Valves
	if va.NumSets != nSets {
		return nil, fmt.Errorf("sim: valve analysis covers %d sets, plan has %d", va.NumSets, nSets)
	}
	if opts.Pressure == nil {
		for _, v := range va.Valves {
			for s, st := range v.Sequence {
				if st == valve.Closed {
					out[s][v.Edge] = true
				}
			}
		}
		return out, nil
	}
	// Shared pressure: every valve of a group follows the merged sequence.
	ess := va.EssentialValves()
	for _, group := range opts.Pressure.Groups {
		members := make([]valve.Valve, len(group))
		for i, m := range group {
			members[i] = ess[m]
		}
		merged, err := valve.MergedSequence(members)
		if err != nil {
			return nil, err
		}
		for s, st := range merged {
			if st == valve.Closed {
				for _, v := range members {
					out[s][v.Edge] = true
				}
			}
		}
	}
	return out, nil
}

// flood returns the vertices and edges the fluid reaches from the start pin
// through open, present channels. Only used edges exist on the reduced
// switch.
func flood(res *spec.Result, start int, closed map[int]bool) ([]int, []int) {
	sw := res.Switch
	seenV := map[int]bool{start: true}
	var verts, edges []int
	verts = append(verts, start)
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, eid := range sw.IncidentEdges(v) {
			if !res.UsedEdgeMask.Has(eid) {
				continue // segment removed from the application switch
			}
			if closed[eid] {
				continue
			}
			edges = append(edges, eid)
			u := sw.Edges[eid].Other(v)
			if !seenV[u] {
				seenV[u] = true
				verts = append(verts, u)
				queue = append(queue, u)
			}
		}
	}
	sort.Ints(verts)
	edges = dedupInts(edges)
	return verts, edges
}

// flowRegion reduces a fluid's wetted subgraph to the part that carries
// through-flow: leaves that are neither the inlet nor an active sink are
// pruned iteratively, leaving the union of channels between the inlet and
// the open outlets.
func flowRegion(res *spec.Result, wetV []int, closed map[int]bool, inlet int, sinks map[int]bool) []int {
	sw := res.Switch
	inRegion := map[int]bool{}
	for _, v := range wetV {
		inRegion[v] = true
	}
	deg := map[int]int{}
	present := func(eid, v int) (int, bool) {
		if !res.UsedEdgeMask.Has(eid) || closed[eid] {
			return 0, false
		}
		u := sw.Edges[eid].Other(v)
		if !inRegion[u] {
			return 0, false
		}
		return u, true
	}
	for _, v := range wetV {
		for _, eid := range sw.IncidentEdges(v) {
			if _, ok := present(eid, v); ok {
				deg[v]++
			}
		}
	}
	queue := []int{}
	for _, v := range wetV {
		if deg[v] <= 1 && v != inlet && !sinks[v] {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !inRegion[v] {
			continue
		}
		inRegion[v] = false
		for _, eid := range sw.IncidentEdges(v) {
			if u, ok := present(eid, v); ok {
				deg[u]--
				if deg[u] <= 1 && u != inlet && !sinks[u] && inRegion[u] {
					queue = append(queue, u)
				}
			}
		}
	}
	var out []int
	for _, v := range wetV {
		if inRegion[v] {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func sortEvents(evts []Event) {
	sort.SliceStable(evts, func(a, b int) bool {
		if evts[a].Set != evts[b].Set {
			return evts[a].Set < evts[b].Set
		}
		if evts[a].Kind != evts[b].Kind {
			return evts[a].Kind < evts[b].Kind
		}
		if evts[a].Fluid != evts[b].Fluid {
			return evts[a].Fluid < evts[b].Fluid
		}
		if evts[a].Where != evts[b].Where {
			return evts[a].Where < evts[b].Where
		}
		return evts[a].Other < evts[b].Other
	})
}
