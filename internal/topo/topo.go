// Package topo models the flow-layer topology of microfluidic switches.
//
// The paper's reconfigurable switch comes in three sizes — 8-pin, 12-pin and
// 16-pin — built as a crossbar-like structure. We model the N-pin switch
// (m = N/4 pins per side) as an (m+1)×(m+1) grid of junction nodes with one
// flow-pin stub per border node. For the 8-pin switch this yields exactly the
// structure described in the text: 9 junctions (centre C, edge-midpoints
// T/R/B/L and corners TL/TR/BR/BL), 20 flow segments including T1–TL and
// TL–T, and the clockwise pin order T1, T2, R1, R2, B2, B1, L2, L1.
//
// The package also models the spine-with-junctions switch used by the
// Columba family of synthesis tools, which serves as the contamination
// baseline, and enumerates all shortest flow paths between pin pairs.
package topo

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"switchsynth/internal/geom"
)

// VertexKind distinguishes junction nodes from flow pins.
type VertexKind int

const (
	// NodeVertex is an interior junction of flow segments.
	NodeVertex VertexKind = iota
	// PinVertex is a flow-channel end that connects to another module.
	PinVertex
)

// Side identifies the border of the switch a pin exits from.
type Side int

// Sides in clockwise order starting at the top.
const (
	Top Side = iota
	Right
	Bottom
	Left
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Top:
		return "T"
	case Right:
		return "R"
	case Bottom:
		return "B"
	case Left:
		return "L"
	}
	return "?"
}

// Vertex is a node or pin of the switch flow graph.
type Vertex struct {
	ID   int
	Kind VertexKind
	Name string
	Pos  geom.Point

	// Row, Col locate node vertices on the junction grid (nodes only).
	Row, Col int

	// PinSide and PinIndex identify pin vertices: PinIndex is the 1-based
	// index along the side (T1, T2, ...). Pins only.
	PinSide  Side
	PinIndex int

	// PinOrder is the 0-based clockwise position of a pin around the
	// switch (T1=0, ..., L1=last). -1 for nodes.
	PinOrder int
}

// Edge is a flow segment between two vertices.
type Edge struct {
	ID     int
	U, V   int // vertex IDs, U < V for determinism
	Name   string
	Length float64 // millimetres
}

// Other returns the endpoint of e opposite v.
func (e Edge) Other(v int) int {
	if e.U == v {
		return e.V
	}
	return e.U
}

// Switch is an immutable flow-layer topology: the full (unreduced)
// reconfigurable switch model from which application-specific switches are
// synthesized, or a baseline spine.
//
// A Switch is sealed by its constructor and never mutated afterwards;
// accessors return copies or read-only views. One instance may therefore
// be read by any number of goroutines concurrently without locking —
// SharedGrid hands out exactly such shared instances.
type Switch struct {
	// Kind describes the topology family ("grid", "spine", "fpva").
	Kind string
	// NumPins is the number of flow pins.
	NumPins int
	// PerSide is the number of pins per side (grid switches only).
	PerSide int
	// RotStep is the clockwise pin-order shift of the topology's smallest
	// rotational automorphism: rotating the physical switch by that
	// symmetry maps pin order p to (p+RotStep) mod NumPins while
	// preserving every edge length. The crossbar grid has a 90° rotation
	// (RotStep = PerSide); the FPVA grid only a 180° one (RotStep =
	// Rows+Cols = NumPins/2). Zero disables rotational symmetry breaking
	// (the spine has no rotational symmetry).
	RotStep int
	// Rows and Cols are the junction-grid dimensions of an FPVA switch
	// (fpva only; zero otherwise).
	Rows, Cols int

	Vertices []Vertex
	Edges    []Edge

	adj     [][]int // vertex ID -> incident edge IDs
	pins    []int   // clockwise pin order -> vertex ID
	byName  map[string]int
	edgeAt  map[[2]int]int // (u,v) u<v -> edge ID
	nodeIDs []int
}

// MaxVertices and MaxEdges bound the topology size so that vertex and edge
// sets fit in the fixed-size Bits masks used throughout the synthesis
// engines (64·BitsWords indices each).
const (
	MaxVertices = 64 * BitsWords
	MaxEdges    = 64 * BitsWords
)

// NewGrid constructs the reconfigurable crossbar-like switch model with
// numPins flow pins. numPins must be a positive multiple of 4; the paper's
// sizes are 8, 12 and 16.
func NewGrid(numPins int) (*Switch, error) {
	if numPins <= 0 || numPins%4 != 0 {
		return nil, fmt.Errorf("topo: numPins must be a positive multiple of 4, got %d", numPins)
	}
	m := numPins / 4
	n := m + 1 // grid dimension
	sw := &Switch{
		Kind:    "grid",
		NumPins: numPins,
		PerSide: m,
		RotStep: m,
		byName:  make(map[string]int),
		edgeAt:  make(map[[2]int]int),
	}

	// Junction nodes at (row, col), row 0 at the top, pitch geom.GridPitch.
	nodeID := make([][]int, n)
	for r := 0; r < n; r++ {
		nodeID[r] = make([]int, n)
		for c := 0; c < n; c++ {
			v := Vertex{
				ID:       len(sw.Vertices),
				Kind:     NodeVertex,
				Name:     gridNodeName(n, r, c),
				Pos:      geom.Pt(float64(c)*geom.GridPitch, float64(r)*geom.GridPitch),
				Row:      r,
				Col:      c,
				PinOrder: -1,
			}
			nodeID[r][c] = v.ID
			sw.Vertices = append(sw.Vertices, v)
			sw.nodeIDs = append(sw.nodeIDs, v.ID)
		}
	}

	// Grid edges.
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				sw.addEdge(nodeID[r][c], nodeID[r][c+1])
			}
			if r+1 < n {
				sw.addEdge(nodeID[r][c], nodeID[r+1][c])
			}
		}
	}

	// Pins: one per border node, distributed rotationally. Clockwise order
	// T1..Tm, R1..Rm, Bm..B1, Lm..L1 (matching the paper's 8-pin order
	// T1, T2, R1, R2, B2, B1, L2, L1).
	type pinSpec struct {
		side  Side
		index int // 1-based along the side
		node  int // attached node vertex ID
		pos   geom.Point
	}
	var specs []pinSpec
	stub := geom.PinStubLength
	for i := 0; i < m; i++ { // T1..Tm at top row, cols 0..m-1
		id := nodeID[0][i]
		specs = append(specs, pinSpec{Top, i + 1, id, sw.Vertices[id].Pos.Add(geom.Pt(0, -stub))})
	}
	for i := 0; i < m; i++ { // R1..Rm at right col, rows 0..m-1
		id := nodeID[i][m]
		specs = append(specs, pinSpec{Right, i + 1, id, sw.Vertices[id].Pos.Add(geom.Pt(stub, 0))})
	}
	for i := 0; i < m; i++ { // clockwise along the bottom: Bm..B1 at cols m..1
		idx := m - i
		id := nodeID[m][idx]
		specs = append(specs, pinSpec{Bottom, idx, id, sw.Vertices[id].Pos.Add(geom.Pt(0, stub))})
	}
	for i := 0; i < m; i++ { // clockwise along the left: Lm..L1 at rows m..1
		idx := m - i
		id := nodeID[idx][0]
		specs = append(specs, pinSpec{Left, idx, id, sw.Vertices[id].Pos.Add(geom.Pt(-stub, 0))})
	}
	for order, ps := range specs {
		v := Vertex{
			ID:       len(sw.Vertices),
			Kind:     PinVertex,
			Name:     fmt.Sprintf("%s%d", ps.side, ps.index),
			Pos:      ps.pos,
			Row:      -1,
			Col:      -1,
			PinSide:  ps.side,
			PinIndex: ps.index,
			PinOrder: order,
		}
		sw.Vertices = append(sw.Vertices, v)
		sw.pins = append(sw.pins, v.ID)
		sw.addEdge(v.ID, ps.node)
	}

	if err := sw.finish(); err != nil {
		return nil, err
	}
	return sw, nil
}

// gridNodeName names junction nodes. The 8-pin (3×3) switch uses the paper's
// names C, T, R, B, L, TL, TR, BL, BR; larger grids use coordinates.
func gridNodeName(n, r, c int) string {
	if n == 3 {
		switch {
		case r == 1 && c == 1:
			return "C"
		case r == 0 && c == 0:
			return "TL"
		case r == 0 && c == 1:
			return "T"
		case r == 0 && c == 2:
			return "TR"
		case r == 1 && c == 0:
			return "L"
		case r == 1 && c == 2:
			return "R"
		case r == 2 && c == 0:
			return "BL"
		case r == 2 && c == 1:
			return "B"
		case r == 2 && c == 2:
			return "BR"
		}
	}
	return fmt.Sprintf("n%d_%d", r, c)
}

// NewSpine constructs the Columba-style spine-with-junctions baseline switch:
// a horizontal spine of junction nodes with pin stubs alternating above and
// below. Valves sit only at the stub ends in the real Columba module; this
// model keeps a valve slot on every segment so the same analyses apply, but
// the routing structure (every path shares the spine) is what matters.
func NewSpine(numPins int) (*Switch, error) {
	if numPins < 2 {
		return nil, fmt.Errorf("topo: spine needs at least 2 pins, got %d", numPins)
	}
	nJunc := (numPins + 1) / 2
	sw := &Switch{
		Kind:    "spine",
		NumPins: numPins,
		byName:  make(map[string]int),
		edgeAt:  make(map[[2]int]int),
	}
	juncs := make([]int, nJunc)
	for j := 0; j < nJunc; j++ {
		v := Vertex{
			ID:       len(sw.Vertices),
			Kind:     NodeVertex,
			Name:     fmt.Sprintf("J%d", j+1),
			Pos:      geom.Pt(float64(j)*geom.GridPitch, 0),
			Row:      0,
			Col:      j,
			PinOrder: -1,
		}
		juncs[j] = v.ID
		sw.Vertices = append(sw.Vertices, v)
		sw.nodeIDs = append(sw.nodeIDs, v.ID)
	}
	for j := 0; j+1 < nJunc; j++ {
		sw.addEdge(juncs[j], juncs[j+1])
	}
	stub := geom.PinStubLength
	for p := 0; p < numPins; p++ {
		j := p / 2
		dy := -stub // even pins above the spine
		side := Top
		if p%2 == 1 {
			dy = stub
			side = Bottom
		}
		v := Vertex{
			ID:       len(sw.Vertices),
			Kind:     PinVertex,
			Name:     fmt.Sprintf("p%d", p+1),
			Pos:      sw.Vertices[juncs[j]].Pos.Add(geom.Pt(0, dy)),
			Row:      -1,
			Col:      -1,
			PinSide:  side,
			PinIndex: p + 1,
			PinOrder: p,
		}
		sw.Vertices = append(sw.Vertices, v)
		sw.pins = append(sw.pins, v.ID)
		sw.addEdge(v.ID, juncs[j])
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *Switch) addEdge(u, v int) {
	if u > v {
		u, v = v, u
	}
	e := Edge{
		ID:     len(sw.Edges),
		U:      u,
		V:      v,
		Name:   sw.Vertices[u].Name + "-" + sw.Vertices[v].Name,
		Length: sw.Vertices[u].Pos.Dist(sw.Vertices[v].Pos),
	}
	sw.Edges = append(sw.Edges, e)
	sw.edgeAt[[2]int{u, v}] = e.ID
}

func (sw *Switch) finish() error {
	if len(sw.Vertices) > MaxVertices {
		return fmt.Errorf("topo: %d vertices exceeds the %d-vertex bitmask limit", len(sw.Vertices), MaxVertices)
	}
	if len(sw.Edges) > MaxEdges {
		return fmt.Errorf("topo: %d edges exceeds the %d-edge bitmask limit", len(sw.Edges), MaxEdges)
	}
	sw.adj = make([][]int, len(sw.Vertices))
	for _, e := range sw.Edges {
		sw.adj[e.U] = append(sw.adj[e.U], e.ID)
		sw.adj[e.V] = append(sw.adj[e.V], e.ID)
	}
	for _, v := range sw.Vertices {
		if _, dup := sw.byName[v.Name]; dup {
			return fmt.Errorf("topo: duplicate vertex name %q", v.Name)
		}
		sw.byName[v.Name] = v.ID
	}
	return nil
}

// Pins returns the pin vertex IDs in clockwise order.
func (sw *Switch) Pins() []int {
	out := make([]int, len(sw.pins))
	copy(out, sw.pins)
	return out
}

// NodeIDs returns the junction-node vertex IDs.
func (sw *Switch) NodeIDs() []int {
	out := make([]int, len(sw.nodeIDs))
	copy(out, sw.nodeIDs)
	return out
}

// PinVertex returns the vertex ID of the pin at the given clockwise order.
func (sw *Switch) PinVertex(order int) int { return sw.pins[order] }

// VertexByName returns the vertex with the given name.
func (sw *Switch) VertexByName(name string) (Vertex, bool) {
	id, ok := sw.byName[name]
	if !ok {
		return Vertex{}, false
	}
	return sw.Vertices[id], true
}

// EdgeBetween returns the edge connecting u and v, if any.
func (sw *Switch) EdgeBetween(u, v int) (Edge, bool) {
	if u > v {
		u, v = v, u
	}
	id, ok := sw.edgeAt[[2]int{u, v}]
	if !ok {
		return Edge{}, false
	}
	return sw.Edges[id], true
}

// IncidentEdges returns the IDs of the edges incident to vertex v.
func (sw *Switch) IncidentEdges(v int) []int {
	out := make([]int, len(sw.adj[v]))
	copy(out, sw.adj[v])
	return out
}

// PinStubEdge returns the ID of the stub segment of the pin at the given
// clockwise order: a pin is a channel dead-end, so it is its only edge.
func (sw *Switch) PinStubEdge(order int) int { return sw.adj[sw.pins[order]][0] }

// Degree returns the number of edges incident to vertex v.
func (sw *Switch) Degree(v int) int { return len(sw.adj[v]) }

// TotalLength returns the summed length of all flow segments (mm).
func (sw *Switch) TotalLength() float64 {
	var sum float64
	for _, e := range sw.Edges {
		sum += e.Length
	}
	return sum
}

// MaskLength sums the lengths of the edges in mask but not in minus in
// ascending edge-ID order. Every plan length is summed in this one order,
// so a length recomputed anywhere is bit-identical to the solver's.
func (sw *Switch) MaskLength(mask, minus *Bits) float64 {
	var sum float64
	for wi := range mask {
		w := mask[wi] &^ minus[wi]
		base := wi * 64
		for w != 0 {
			sum += sw.Edges[base+bits.TrailingZeros64(w)].Length
			w &= w - 1
		}
	}
	return sum
}

// Bounds returns the bounding box of the full switch.
func (sw *Switch) Bounds() geom.Rect {
	pts := make([]geom.Point, len(sw.Vertices))
	for i, v := range sw.Vertices {
		pts[i] = v.Pos
	}
	return geom.Bounds(pts)
}

// Path is a simple flow path between two pins.
type Path struct {
	// In and Out are the inlet and outlet pin vertex IDs.
	In, Out int
	// Verts lists the vertex IDs from In to Out inclusive.
	Verts []int
	// EdgeIDs lists the traversed edge IDs, len(Verts)-1 of them.
	EdgeIDs []int
	// Length is the total path length in mm.
	Length float64
	// VertMask and EdgeMask are bitsets over vertex and edge IDs.
	VertMask, EdgeMask Bits
}

// UsesVertex reports whether p passes through vertex v.
func (p Path) UsesVertex(v int) bool { return p.VertMask.Has(v) }

// UsesEdge reports whether p traverses edge e.
func (p Path) UsesEdge(e int) bool { return p.EdgeMask.Has(e) }

// SharesEdge reports whether p and q traverse a common edge.
func (p Path) SharesEdge(q Path) bool { return p.EdgeMask.Intersects(q.EdgeMask) }

// String renders the path as a dash-separated vertex-name list.
func (p Path) String() string { return fmt.Sprintf("path(%d verts, %.2fmm)", len(p.Verts), p.Length) }

// Reverse returns the same path traversed Out→In.
func (p Path) Reverse() Path {
	r := Path{
		In:       p.Out,
		Out:      p.In,
		Verts:    make([]int, len(p.Verts)),
		EdgeIDs:  make([]int, len(p.EdgeIDs)),
		Length:   p.Length,
		VertMask: p.VertMask,
		EdgeMask: p.EdgeMask,
	}
	for i, v := range p.Verts {
		r.Verts[len(p.Verts)-1-i] = v
	}
	for i, e := range p.EdgeIDs {
		r.EdgeIDs[len(p.EdgeIDs)-1-i] = e
	}
	return r
}

// PopCountVerts returns the number of vertices in the path mask.
func (p Path) PopCountVerts() int { return p.VertMask.OnesCount() }

// AllShortestPaths enumerates every minimum-length simple path from pin
// vertex in to pin vertex out. Paths never pass through a third pin (pins
// are channel dead-ends connected to modules). The result is deterministic:
// paths are sorted by their vertex sequences.
func (sw *Switch) AllShortestPaths(in, out int) []Path {
	if in == out {
		return nil
	}
	dist := sw.distancesFrom(out, in)
	if math.IsInf(dist[in], 1) {
		return nil
	}
	var (
		paths []Path
		verts []int
		edges []int
	)
	var walk func(v int)
	walk = func(v int) {
		verts = append(verts, v)
		if v == out {
			p := Path{
				In:      in,
				Out:     out,
				Verts:   append([]int(nil), verts...),
				EdgeIDs: append([]int(nil), edges...),
				Length:  dist[in],
			}
			for _, u := range p.Verts {
				p.VertMask.Set(u)
			}
			for _, e := range p.EdgeIDs {
				p.EdgeMask.Set(e)
			}
			paths = append(paths, p)
		} else {
			for _, eid := range sw.adj[v] {
				e := sw.Edges[eid]
				u := e.Other(v)
				if math.Abs(dist[v]-(e.Length+dist[u])) < 1e-9 {
					edges = append(edges, eid)
					walk(u)
					edges = edges[:len(edges)-1]
				}
			}
		}
		verts = verts[:len(verts)-1]
	}
	walk(in)
	sort.Slice(paths, func(i, j int) bool {
		a, b := paths[i].Verts, paths[j].Verts
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return paths
}

// distancesFrom computes shortest distances from src to every vertex,
// refusing to route *through* pin vertices other than src and allow.
func (sw *Switch) distancesFrom(src, allow int) []float64 {
	const inf = math.MaxFloat64
	dist := make([]float64, len(sw.Vertices))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	// Dijkstra with a simple linear scan: the graphs are tiny (≤64 verts).
	done := make([]bool, len(sw.Vertices))
	for {
		best, bestD := -1, inf
		for v := range dist {
			if !done[v] && dist[v] < bestD {
				best, bestD = v, dist[v]
			}
		}
		if best == -1 {
			break
		}
		done[best] = true
		// Pins are dead-ends for through-routing: do not relax out of a pin
		// unless it is the source itself.
		if sw.Vertices[best].Kind == PinVertex && best != src {
			continue
		}
		for _, eid := range sw.adj[best] {
			e := sw.Edges[eid]
			u := e.Other(best)
			if sw.Vertices[u].Kind == PinVertex && u != src && u != allow {
				continue
			}
			if d := dist[best] + e.Length; d < dist[u]-1e-12 {
				dist[u] = d
			}
		}
	}
	return dist
}

// PathTable holds all shortest paths for every ordered pin pair of a switch.
// Like Switch it is immutable once BuildPathTable returns and safe for
// unsynchronized concurrent reads; SharedGrid shares one instance per pin
// count across all solver goroutines.
type PathTable struct {
	Switch *Switch
	// ByPair maps [inOrder][outOrder] to the candidate paths, indexed by the
	// clockwise pin orders.
	ByPair [][][]Path
	// All is the flattened, deterministic path list; Path d of the paper's
	// x_{i,d} variables refers to All[d].
	All []Path
	// Cands lists the same paths as search candidates in canonical order
	// (see CandTable), sorted once when the table is built so a search
	// only ever filters them.
	Cands CandTable
}

// BuildPathTable enumerates all shortest paths between every ordered pin
// pair of sw.
func BuildPathTable(sw *Switch) *PathTable {
	n := len(sw.pins)
	pt := &PathTable{Switch: sw, ByPair: make([][][]Path, n)}
	for i := range pt.ByPair {
		pt.ByPair[i] = make([][]Path, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			var paths []Path
			if j < i {
				// Reuse the reverse direction for determinism and speed.
				for _, p := range pt.ByPair[j][i] {
					paths = append(paths, p.Reverse())
				}
			} else {
				paths = sw.AllShortestPaths(sw.pins[i], sw.pins[j])
			}
			pt.ByPair[i][j] = paths
			pt.All = append(pt.All, paths...)
		}
	}
	pt.Cands = buildCandTable(pt)
	return pt
}

// PathsBetween returns the candidate paths from pin order in to pin order out.
func (pt *PathTable) PathsBetween(in, out int) []Path { return pt.ByPair[in][out] }

// NumPaths returns the total number of enumerated paths.
func (pt *PathTable) NumPaths() int { return len(pt.All) }
