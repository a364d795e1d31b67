package topo

import (
	"testing"
	"testing/quick"
)

func TestBitsBasics(t *testing.T) {
	var b Bits
	if !b.IsZero() {
		t.Error("zero value should be empty")
	}
	b.Set(3)
	b.Set(64)
	b.Set(200)
	for _, i := range []int{3, 64, 200} {
		if !b.Has(i) {
			t.Errorf("missing bit %d", i)
		}
	}
	if b.Has(4) || b.Has(63) || b.Has(199) {
		t.Error("spurious bits")
	}
	if b.OnesCount() != 3 {
		t.Errorf("OnesCount = %d", b.OnesCount())
	}
	got := b.Indices()
	want := []int{3, 64, 200}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Indices = %v, want %v", got, want)
	}
	b.Clear(64)
	if b.Has(64) || b.OnesCount() != 2 {
		t.Error("Clear failed")
	}
}

func TestBitsSetOps(t *testing.T) {
	a := BitsOf(1, 65, 130)
	b := BitsOf(65, 200)
	if !a.Intersects(b) {
		t.Error("should intersect at 65")
	}
	if got := a.And(b); got != BitsOf(65) {
		t.Errorf("And = %v", got.Indices())
	}
	if got := a.Or(b); got != BitsOf(1, 65, 130, 200) {
		t.Errorf("Or = %v", got.Indices())
	}
	if got := a.AndNot(b); got != BitsOf(1, 130) {
		t.Errorf("AndNot = %v", got.Indices())
	}
	if a.Intersects(BitsOf(2, 66)) {
		t.Error("spurious intersection")
	}
}

func TestBitsRange(t *testing.T) {
	for lo := -1; lo <= 64*BitsWords; lo++ {
		for hi := lo - 1; hi <= 64*BitsWords+1; hi++ {
			var want Bits
			for i := max(lo, 0); i < min(hi, 64*BitsWords); i++ {
				want.Set(i)
			}
			if got := BitsRange(lo, hi); got != want {
				t.Fatalf("BitsRange(%d, %d) = %v, want %v", lo, hi, got.Indices(), want.Indices())
			}
		}
	}
}

func TestBitsPropertyAgainstMapModel(t *testing.T) {
	// Model-based property test: Bits behaves like a set of small ints.
	f := func(xs, ys []uint8) bool {
		var a, b Bits
		ma, mb := map[int]bool{}, map[int]bool{}
		for _, x := range xs {
			a.Set(int(x))
			ma[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			mb[int(y)] = true
		}
		if a.OnesCount() != len(ma) {
			return false
		}
		inter := false
		for k := range ma {
			if mb[k] {
				inter = true
			}
			if !a.Has(k) {
				return false
			}
		}
		if a.Intersects(b) != inter {
			return false
		}
		union := a.Or(b)
		for k := range ma {
			if !union.Has(k) {
				return false
			}
		}
		for k := range mb {
			if !union.Has(k) {
				return false
			}
		}
		if union.OnesCount() != len(ma)+len(mb)-a.And(b).OnesCount() {
			return false
		}
		diff := a.AndNot(b)
		for k := range ma {
			if diff.Has(k) == mb[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsIndicesSorted(t *testing.T) {
	f := func(xs []uint8) bool {
		var b Bits
		for _, x := range xs {
			b.Set(int(x))
		}
		idx := b.Indices()
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				return false
			}
		}
		return len(idx) == b.OnesCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLargeGridSizes(t *testing.T) {
	// The future-work sizes enabled by the multi-word masks.
	tests := []struct {
		pins, nodes, edges int
	}{
		{20, 36, 80},  // 6×6 grid + 20 stubs
		{24, 49, 108}, // 7×7 grid + 24 stubs
	}
	for _, tc := range tests {
		sw, err := NewGrid(tc.pins)
		if err != nil {
			t.Fatalf("NewGrid(%d): %v", tc.pins, err)
		}
		if got := len(sw.NodeIDs()); got != tc.nodes {
			t.Errorf("%d-pin: nodes = %d, want %d", tc.pins, got, tc.nodes)
		}
		if got := len(sw.Edges); got != tc.edges {
			t.Errorf("%d-pin: edges = %d, want %d", tc.pins, got, tc.edges)
		}
		// Paths across the large switch still enumerate and mask correctly.
		paths := sw.AllShortestPaths(sw.PinVertex(0), sw.PinVertex(tc.pins/2))
		if len(paths) == 0 {
			t.Fatalf("%d-pin: no corner paths", tc.pins)
		}
		for _, p := range paths {
			if p.PopCountVerts() != len(p.Verts) {
				t.Fatalf("%d-pin: mask mismatch", tc.pins)
			}
		}
	}
}
