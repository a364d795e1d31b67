package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -1)
	if got := p.Add(q); got != Pt(4, 1) {
		t.Errorf("Add = %v, want (4, 1)", got)
	}
	if got := p.Sub(q); got != Pt(-2, 3) {
		t.Errorf("Sub = %v, want (-2, 3)", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v, want (2, 4)", got)
	}
	if got := p.Mid(q); got != Pt(2, 0.5) {
		t.Errorf("Mid = %v, want (2, 0.5)", got)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, 0), Pt(2, 0), 3},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); !almostEqual(got, tc.want) {
			t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestManhattan(t *testing.T) {
	if got := Pt(0, 0).Manhattan(Pt(3, 4)); !almostEqual(got, 7) {
		t.Errorf("Manhattan = %v, want 7", got)
	}
	if got := Pt(-1, -1).Manhattan(Pt(1, 1)); !almostEqual(got, 4) {
		t.Errorf("Manhattan = %v, want 4", got)
	}
}

func TestDistPropertyNonNegativeSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		p, q := Pt(ax, ay), Pt(bx, by)
		d1, d2 := p.Dist(q), q.Dist(p)
		return d1 >= 0 && (d1 == d2 || math.IsNaN(d1) == math.IsNaN(d2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanDominatesEuclidean(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		p := Pt(float64(ax), float64(ay))
		q := Pt(float64(bx), float64(by))
		return p.Manhattan(q)+1e-9 >= p.Dist(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegment(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(0, 2))
	if !almostEqual(s.Length(), 2) {
		t.Errorf("Length = %v, want 2", s.Length())
	}
	if s.Mid() != Pt(0, 1) {
		t.Errorf("Mid = %v, want (0, 1)", s.Mid())
	}
	if !s.Vertical(1e-9) || s.Horizontal(1e-9) {
		t.Error("segment should be vertical, not horizontal")
	}
	h := Seg(Pt(0, 1), Pt(5, 1))
	if !h.Horizontal(1e-9) || h.Vertical(1e-9) {
		t.Error("segment should be horizontal, not vertical")
	}
}

func TestBounds(t *testing.T) {
	r := Bounds([]Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)})
	if r.Min != Pt(-2, -1) || r.Max != Pt(4, 5) {
		t.Errorf("Bounds = %+v", r)
	}
	if !almostEqual(r.Width(), 6) || !almostEqual(r.Height(), 6) {
		t.Errorf("Width/Height = %v/%v, want 6/6", r.Width(), r.Height())
	}
	if got := Bounds(nil); got != (Rect{}) {
		t.Errorf("Bounds(nil) = %+v, want zero", got)
	}
}

func TestChannelSpacing(t *testing.T) {
	// Two horizontal channels 0.2 mm apart centre-to-centre, width 0.1:
	// clear space is 0.1 mm — exactly at the design-rule minimum.
	a := Seg(Pt(0, 0), Pt(2, 0))
	b := Seg(Pt(1, 0.2), Pt(3, 0.2))
	if got := ChannelSpacing(a, b, FlowChannelWidth); !almostEqual(got, 0.1) {
		t.Errorf("ChannelSpacing = %v, want 0.1", got)
	}
	// Non-overlapping extents: no spacing constraint.
	c := Seg(Pt(5, 0.2), Pt(7, 0.2))
	if got := ChannelSpacing(a, c, FlowChannelWidth); !math.IsInf(got, 1) {
		t.Errorf("ChannelSpacing non-overlapping = %v, want +Inf", got)
	}
	// Perpendicular segments: not checked by this rule.
	v := Seg(Pt(1, -1), Pt(1, 1))
	if got := ChannelSpacing(a, v, FlowChannelWidth); !math.IsInf(got, 1) {
		t.Errorf("ChannelSpacing perpendicular = %v, want +Inf", got)
	}
	// Vertical pair.
	v2 := Seg(Pt(1.5, -1), Pt(1.5, 1))
	if got := ChannelSpacing(v, v2, FlowChannelWidth); !almostEqual(got, 0.4) {
		t.Errorf("ChannelSpacing vertical = %v, want 0.4", got)
	}
}

func TestDesignRuleConstants(t *testing.T) {
	// Sanity: grid pitch must leave room for a valve plus spacing on a segment.
	if GridPitch < ValveChannelWidth+2*MinChannelSpacing {
		t.Errorf("GridPitch %v too small for valve %v + spacing", GridPitch, ValveChannelWidth)
	}
	if PinStubLength <= ValveLength {
		t.Errorf("PinStubLength %v must exceed ValveLength %v", PinStubLength, ValveLength)
	}
}

func TestDistToSegment(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 0))
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 3), 3},  // above the middle
		{Pt(-3, 4), 5}, // beyond A
		{Pt(7, 4), 5},  // beyond B
		{Pt(2, 0), 0},  // on the segment
		{Pt(0, 0), 0},  // endpoint
	}
	for _, tc := range tests {
		if got := DistToSegment(tc.p, s); !almostEqual(got, tc.want) {
			t.Errorf("DistToSegment(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Degenerate segment.
	if got := DistToSegment(Pt(3, 4), Seg(Pt(0, 0), Pt(0, 0))); !almostEqual(got, 5) {
		t.Errorf("degenerate = %v, want 5", got)
	}
}

func TestSegmentDistance(t *testing.T) {
	tests := []struct {
		a, b Segment
		want float64
	}{
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(0, 2), Pt(4, 2)), 2},             // parallel
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, -1), Pt(2, 1)), 0},            // crossing
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(4, 0), Pt(6, 3)), 0},             // touching
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(3, 0), Pt(5, 0)), 2},             // collinear gap
		{Seg(Pt(0, 0), Pt(0, 1)), Seg(Pt(3, 4), Pt(3, 8)), math.Sqrt(18)}, // endpoint pair (0,1)-(3,4)
	}
	for _, tc := range tests {
		if got := SegmentDistance(tc.a, tc.b); !almostEqual(got, tc.want) {
			t.Errorf("SegmentDistance(%v-%v, %v-%v) = %v, want %v",
				tc.a.A, tc.a.B, tc.b.A, tc.b.B, got, tc.want)
		}
		if got := SegmentDistance(tc.b, tc.a); !almostEqual(got, tc.want) {
			t.Errorf("SegmentDistance not symmetric for %v", tc)
		}
	}
}

func TestSegmentDistancePropertySymmetricNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		a := Seg(Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)))
		b := Seg(Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy)))
		d1, d2 := SegmentDistance(a, b), SegmentDistance(b, a)
		return d1 >= 0 && almostEqual(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentDistanceUpperBoundedByEndpointDistance(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		a := Seg(Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)))
		b := Seg(Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy)))
		return SegmentDistance(a, b) <= a.A.Dist(b.A)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleBetweenDeg(t *testing.T) {
	// Right angle at origin.
	a := Seg(Pt(0, 0), Pt(1, 0))
	b := Seg(Pt(0, 0), Pt(0, 1))
	if got := AngleBetweenDeg(a, b); !almostEqual(got, 90) {
		t.Errorf("angle = %v, want 90", got)
	}
	// 45° (the GRU geometry the paper criticizes).
	c := Seg(Pt(0, 0), Pt(1, 1))
	if got := AngleBetweenDeg(a, c); !almostEqual(got, 45) {
		t.Errorf("angle = %v, want 45", got)
	}
	// Shared at the other endpoint.
	d := Seg(Pt(1, 0), Pt(1, 1))
	if got := AngleBetweenDeg(a, d); !almostEqual(got, 90) {
		t.Errorf("angle (shared B-A) = %v, want 90", got)
	}
	// Disjoint segments have no junction angle.
	e := Seg(Pt(5, 5), Pt(6, 6))
	if got := AngleBetweenDeg(a, e); !math.IsNaN(got) {
		t.Errorf("angle disjoint = %v, want NaN", got)
	}
}

func TestCrossDot(t *testing.T) {
	if Cross(Pt(1, 0), Pt(0, 1)) != 1 || Cross(Pt(0, 1), Pt(1, 0)) != -1 {
		t.Error("cross product wrong")
	}
	if Dot(Pt(2, 3), Pt(4, -1)) != 5 {
		t.Error("dot product wrong")
	}
}
