package topo

import (
	"fmt"
	"testing"

	"switchsynth/internal/geom"
)

// TestCrossbarJunctionFacts states the facts the search's junction cover
// rests on for the paper's 8-, 12- and 16-pin crossbars: every pin's stub
// ends at a junction of its own, every interior edge is MinInterior long,
// and every candidate route leaves its inlet's junction and enters its
// outlet's by interior edges.
func TestCrossbarJunctionFacts(t *testing.T) {
	for _, pins := range []int{8, 12, 16} {
		t.Run(fmt.Sprint(pins), func(t *testing.T) {
			sw, err := NewGrid(pins)
			if err != nil {
				t.Fatal(err)
			}
			ct := &BuildPathTable(sw).Cands
			seen := map[int]int{}
			for p := range pins {
				j := sw.Edges[sw.PinStubEdge(p)].Other(sw.PinVertex(p))
				if sw.Vertices[j].Kind != NodeVertex {
					t.Fatalf("pin %d: stub ends at %s, not a junction", p, sw.Vertices[j].Name)
				}
				if q, dup := seen[j]; dup {
					t.Errorf("pins %d and %d share junction %s", q, p, sw.Vertices[j].Name)
				}
				seen[j] = p
				if ct.Junction[p] != j || ct.JunctionPins[p] != BitsOf(p) {
					t.Errorf("pin %d: junction %d with pins %v, want %d with only itself",
						p, ct.Junction[p], ct.JunctionPins[p].Indices(), j)
				}
			}
			if !ct.SharedPins.IsZero() {
				t.Errorf("shared pins %v, want none", ct.SharedPins.Indices())
			}
			if ct.MinInterior != geom.GridPitch {
				t.Errorf("MinInterior = %v, want the grid pitch %v", ct.MinInterior, geom.GridPitch)
			}
			for _, e := range sw.Edges {
				if !ct.StubEdges.Has(e.ID) && e.Length != ct.MinInterior {
					t.Errorf("interior edge %s is %v mm, want MinInterior %v", e.Name, e.Length, ct.MinInterior)
				}
			}
			checkRoutesLeaveJunctions(t, ct)
		})
	}
}

// TestFPVAJunctionPorts: on FPVA grids exactly the four corner junctions
// carry two ports, and the only routes without an interior edge are the
// ones between the two ports of one corner.
func TestFPVAJunctionPorts(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {2, 3}, {3, 3}, {3, 4}, {4, 4}} {
		rows, cols := dims[0], dims[1]
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			sw, err := NewFPVA(rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			ct := &BuildPathTable(sw).Cands
			corners := 0
			for p := range sw.NumPins {
				j := sw.Vertices[sw.Edges[sw.PinStubEdge(p)].Other(sw.PinVertex(p))]
				corner := (j.Row == 0 || j.Row == rows-1) && (j.Col == 0 || j.Col == cols-1)
				want := 1
				if corner {
					want = 2
					corners++
				}
				if got := ct.JunctionPins[p].OnesCount(); got != want {
					t.Errorf("pin %d at %s: junction carries %d ports, want %d", p, j.Name, got, want)
				}
				if ct.SharedPins.Has(p) != corner {
					t.Errorf("pin %d at %s: shared = %v, want %v", p, j.Name, ct.SharedPins.Has(p), corner)
				}
				if ct.Junction[p] != j.ID {
					t.Errorf("pin %d: Junction %d, want %s", p, ct.Junction[p], j.Name)
				}
			}
			if corners != 8 {
				t.Errorf("%d corner ports, want 8", corners)
			}
			if ct.MinInterior != geom.GridPitch {
				t.Errorf("MinInterior = %v, want the grid pitch %v", ct.MinInterior, geom.GridPitch)
			}
			checkRoutesLeaveJunctions(t, ct)
		})
	}
}

// checkRoutesLeaveJunctions: every candidate between pins of two
// junctions uses an interior edge at each, and a candidate between two
// pins of one junction uses no interior edge at all.
func checkRoutesLeaveJunctions(t *testing.T, ct *CandTable) {
	t.Helper()
	for _, c := range ct.All {
		interior := c.Path.EdgeMask.AndNot(ct.StubEdges)
		if ct.JunctionPins[c.In].Has(c.Out) {
			if !interior.IsZero() {
				t.Errorf("route %d->%d within one junction uses interior edges %v", c.In, c.Out, interior.Indices())
			}
			continue
		}
		var ends Bits
		for _, e := range interior.Indices() {
			ends = ends.Or(ct.InteriorEnds[e])
		}
		if !ends.Has(ct.Junction[c.In]) || !ends.Has(ct.Junction[c.Out]) {
			t.Errorf("route %d->%d does not leave and enter its pins' junctions by interior edges", c.In, c.Out)
		}
	}
}
