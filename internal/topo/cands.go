package topo

import (
	"math"
	"slices"
)

// Cand is one routing choice for a flow: an (inlet pin, outlet pin, path)
// triple, with In and Out given as clockwise pin orders and Path pointing
// into the owning PathTable's ByPair[In][Out][PathIdx].
type Cand struct {
	In, Out int
	PathIdx int
	Path    *Path
}

// compareCands is the canonical candidate order: ascending (path length,
// In, Out, PathIdx). The integer triple is unique per candidate, so the
// order is strict and total and needs no stable sort.
func compareCands(a, b Cand) int {
	switch {
	case a.Path.Length < b.Path.Length:
		return -1
	case a.Path.Length > b.Path.Length:
		return 1
	case a.In != b.In:
		return a.In - b.In
	case a.Out != b.Out:
		return a.Out - b.Out
	default:
		return a.PathIdx - b.PathIdx
	}
}

// CandTable holds every candidate of a path table presorted in the
// canonical order, together with its restrictions to one inlet pin, one
// outlet pin and one pin pair. Each restriction is a subsequence of All,
// so any of them filtered by a free-pin mask is still in canonical order:
// a search enumerating candidates only filters, it never sorts.
type CandTable struct {
	All    []Cand
	ByIn   [][]Cand   // [inlet pin order]
	ByOut  [][]Cand   // [outlet pin order]
	ByPair [][][]Cand // [inlet pin order][outlet pin order]

	// StubEdges holds every pin's stub edge. A path's interior is its
	// edge mask without them; interior and stub edges are disjoint.
	StubEdges Bits
	// MaxInterior is the largest interior length of any candidate, each
	// summed over its edges in ascending ID order.
	MaxInterior float64
	// MinInterior is the length of the shortest interior edge (0 when
	// the switch has none).
	MinInterior float64

	// Junction facts. A pin's stub ends at one junction, the vertex
	// Junction[p]; JunctionPins[p] holds the pins whose stubs end there
	// (p included). SharedPins holds the pins whose junction carries
	// another pin too (the FPVA grid's corners): only a route between two
	// such pins can go stub to stub with no interior edge. InteriorEnds[e]
	// holds the two end vertices of interior edge e (empty for a stub).
	Junction     []int
	JunctionPins []Bits
	SharedPins   Bits
	InteriorEnds []Bits
}

// buildCandTable sorts pt's candidates once; BuildPathTable calls it, so
// every shared path table carries its candidate tables with it.
func buildCandTable(pt *PathTable) CandTable {
	n := len(pt.ByPair)
	ct := CandTable{
		All:    make([]Cand, 0, len(pt.All)),
		ByIn:   make([][]Cand, n),
		ByOut:  make([][]Cand, n),
		ByPair: make([][][]Cand, n),
	}
	for in := range pt.ByPair {
		ct.ByPair[in] = make([][]Cand, n)
		for out, paths := range pt.ByPair[in] {
			for i := range paths {
				ct.All = append(ct.All, Cand{in, out, i, &paths[i]})
			}
		}
	}
	slices.SortFunc(ct.All, compareCands)
	for _, c := range ct.All {
		ct.ByIn[c.In] = append(ct.ByIn[c.In], c)
		ct.ByOut[c.Out] = append(ct.ByOut[c.Out], c)
		ct.ByPair[c.In][c.Out] = append(ct.ByPair[c.In][c.Out], c)
	}
	sw := pt.Switch
	for p := range n {
		ct.StubEdges.Set(sw.PinStubEdge(p))
	}
	for _, c := range ct.All {
		var interior float64
		for _, e := range c.Path.EdgeMask.AndNot(ct.StubEdges).Indices() {
			interior += sw.Edges[e].Length
		}
		ct.MaxInterior = max(ct.MaxInterior, interior)
	}
	ct.MinInterior = math.Inf(1)
	for _, e := range sw.Edges {
		if !ct.StubEdges.Has(e.ID) {
			ct.MinInterior = min(ct.MinInterior, e.Length)
		}
	}
	if math.IsInf(ct.MinInterior, 1) {
		ct.MinInterior = 0 // no interior edge: every route is stub to stub
	}
	buildJunctions(&ct, sw)
	return ct
}

// buildJunctions fills ct's junction facts from the switch's stubs.
func buildJunctions(ct *CandTable, sw *Switch) {
	n := sw.NumPins
	ct.Junction = make([]int, n)
	ct.JunctionPins = make([]Bits, n)
	for p := range n {
		ct.Junction[p] = sw.Edges[sw.PinStubEdge(p)].Other(sw.PinVertex(p))
	}
	for p := range n {
		for q := range n {
			if ct.Junction[q] == ct.Junction[p] {
				ct.JunctionPins[p].Set(q)
			}
		}
		if ct.JunctionPins[p].OnesCount() > 1 {
			ct.SharedPins.Set(p)
		}
	}
	ct.InteriorEnds = make([]Bits, len(sw.Edges))
	for _, e := range sw.Edges {
		if !ct.StubEdges.Has(e.ID) {
			ct.InteriorEnds[e.ID] = BitsOf(e.U, e.V)
		}
	}
}
