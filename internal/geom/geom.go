// Package geom provides the 2-D geometric primitives and microfluidic
// design-rule constants used by the switch topology models.
//
// All coordinates and lengths are in millimetres. The constants follow the
// Stanford Foundry basic design rules cited by the paper: flow channels are
// 0.1 mm wide, valves are 0.1 mm long with a 0.3 mm wide control channel
// crossing, the minimum space between channels is 0.1 mm, and a control
// inlet punch occupies roughly 1 mm².
package geom

import (
	"fmt"
	"math"
)

// Stanford Foundry basic design rules (millimetres).
const (
	// FlowChannelWidth is the width of a flow-layer channel.
	FlowChannelWidth = 0.1
	// ValveLength is the extent of a valve along the flow channel.
	ValveLength = 0.1
	// ValveChannelWidth is the width of the control channel forming a valve.
	ValveChannelWidth = 0.3
	// MinChannelSpacing is the minimum space between adjacent channels.
	MinChannelSpacing = 0.1
	// ControlInletArea is the chip area taken by one control inlet punch (mm²).
	ControlInletArea = 1.0
)

// Grid geometry of the crossbar-like switch models. The pitch is the distance
// between adjacent junction nodes; the stub is the length of the channel from
// a border node to its flow pin. Chosen so that an 8-pin switch fits in a
// ~3.2 mm square, comfortably satisfying the spacing rule at 1.0 mm pitch.
const (
	// GridPitch is the node-to-node spacing of the switch junction grid.
	GridPitch = 1.0
	// PinStubLength is the channel length from a border node to its pin.
	PinStubLength = 0.6
)

// Point is a 2-D location in millimetres.
type Point struct {
	X, Y float64
}

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3g, %.3g)", p.X, p.Y) }

// Segment is a straight channel segment between two points.
type Segment struct {
	A, B Point
}

// Seg returns the segment from a to b.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Mid returns the midpoint of s.
func (s Segment) Mid() Point { return s.A.Mid(s.B) }

// Horizontal reports whether s is horizontal within eps.
func (s Segment) Horizontal(eps float64) bool {
	return math.Abs(s.A.Y-s.B.Y) <= eps && math.Abs(s.A.X-s.B.X) > eps
}

// Vertical reports whether s is vertical within eps.
func (s Segment) Vertical(eps float64) bool {
	return math.Abs(s.A.X-s.B.X) <= eps && math.Abs(s.A.Y-s.B.Y) > eps
}

// Rect is an axis-aligned rectangle given by its min and max corners.
type Rect struct {
	Min, Max Point
}

// Bounds returns the smallest Rect containing all the given points.
// It returns the zero Rect if pts is empty.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// ChannelSpacing returns the clear space between two parallel axis-aligned
// segments of channels with the given width, or +Inf if they are not
// parallel axis-aligned segments. It is used by design-rule checks.
func ChannelSpacing(a, b Segment, width float64) float64 {
	const eps = 1e-9
	switch {
	case a.Horizontal(eps) && b.Horizontal(eps):
		if !overlap1D(a.A.X, a.B.X, b.A.X, b.B.X) {
			return math.Inf(1)
		}
		return math.Abs(a.A.Y-b.A.Y) - width
	case a.Vertical(eps) && b.Vertical(eps):
		if !overlap1D(a.A.Y, a.B.Y, b.A.Y, b.B.Y) {
			return math.Inf(1)
		}
		return math.Abs(a.A.X-b.A.X) - width
	default:
		return math.Inf(1)
	}
}

func overlap1D(a1, a2, b1, b2 float64) bool {
	lo1, hi1 := math.Min(a1, a2), math.Max(a1, a2)
	lo2, hi2 := math.Min(b1, b2), math.Max(b1, b2)
	return hi1 >= lo2 && hi2 >= lo1
}

// Dot returns the dot product of vectors p and q.
func Dot(p, q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product of vectors p and q.
func Cross(p, q Point) float64 { return p.X*q.Y - p.Y*q.X }

// DistToSegment returns the distance from point p to segment s.
func DistToSegment(p Point, s Segment) float64 {
	d := s.B.Sub(s.A)
	l2 := Dot(d, d)
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := Dot(p.Sub(s.A), d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(s.A.Add(d.Scale(t)))
}

// SegmentDistance returns the minimum distance between two segments; zero
// if they intersect or touch.
func SegmentDistance(a, b Segment) float64 {
	if segmentsIntersect(a, b) {
		return 0
	}
	d := DistToSegment(a.A, b)
	if x := DistToSegment(a.B, b); x < d {
		d = x
	}
	if x := DistToSegment(b.A, a); x < d {
		d = x
	}
	if x := DistToSegment(b.B, a); x < d {
		d = x
	}
	return d
}

func segmentsIntersect(a, b Segment) bool {
	d1 := Cross(a.B.Sub(a.A), b.A.Sub(a.A))
	d2 := Cross(a.B.Sub(a.A), b.B.Sub(a.A))
	d3 := Cross(b.B.Sub(b.A), a.A.Sub(b.A))
	d4 := Cross(b.B.Sub(b.A), a.B.Sub(b.A))
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	const eps = 1e-12
	onSeg := func(p Point, s Segment) bool {
		return math.Abs(Cross(s.B.Sub(s.A), p.Sub(s.A))) < eps &&
			p.X >= math.Min(s.A.X, s.B.X)-eps && p.X <= math.Max(s.A.X, s.B.X)+eps &&
			p.Y >= math.Min(s.A.Y, s.B.Y)-eps && p.Y <= math.Max(s.A.Y, s.B.Y)+eps
	}
	return onSeg(b.A, a) || onSeg(b.B, a) || onSeg(a.A, b) || onSeg(a.B, b)
}

// AngleBetweenDeg returns the smaller angle in degrees between two segments
// that share an endpoint, or NaN if they do not share one.
func AngleBetweenDeg(a, b Segment) float64 {
	var pivot, pa, pb Point
	switch {
	case a.A == b.A:
		pivot, pa, pb = a.A, a.B, b.B
	case a.A == b.B:
		pivot, pa, pb = a.A, a.B, b.A
	case a.B == b.A:
		pivot, pa, pb = a.B, a.A, b.B
	case a.B == b.B:
		pivot, pa, pb = a.B, a.A, b.A
	default:
		return math.NaN()
	}
	u, v := pa.Sub(pivot), pb.Sub(pivot)
	lu, lv := math.Hypot(u.X, u.Y), math.Hypot(v.X, v.Y)
	if lu == 0 || lv == 0 {
		return math.NaN()
	}
	c := Dot(u, v) / (lu * lv)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c) * 180 / math.Pi
}
