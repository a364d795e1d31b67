package topo

import "math/bits"

// BitsWords is the number of 64-bit words in a Bits set; 4 words cover 256
// vertices or edges — enough for switches well beyond the paper's 16 pins
// (a 24-pin switch has 73 vertices and 108 segments).
const BitsWords = 4

// Bits is a fixed-size bitset over vertex or edge IDs. The zero value is
// the empty set; Bits is comparable with ==.
type Bits [BitsWords]uint64

// Set adds index i to the set.
func (b *Bits) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear removes index i from the set.
func (b *Bits) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Has reports whether index i is in the set.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// IsZero reports whether the set is empty.
func (b Bits) IsZero() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share any index.
func (b Bits) Intersects(o Bits) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// And returns the intersection of b and o.
func (b Bits) And(o Bits) Bits {
	var out Bits
	for i := range b {
		out[i] = b[i] & o[i]
	}
	return out
}

// Or returns the union of b and o.
func (b Bits) Or(o Bits) Bits {
	var out Bits
	for i := range b {
		out[i] = b[i] | o[i]
	}
	return out
}

// AndNot returns b minus o.
func (b Bits) AndNot(o Bits) Bits {
	var out Bits
	for i := range b {
		out[i] = b[i] &^ o[i]
	}
	return out
}

// OnesCount returns the number of indices in the set.
func (b Bits) OnesCount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Indices returns the set indices in ascending order.
func (b Bits) Indices() []int {
	out := make([]int, 0, b.OnesCount())
	for wi, w := range b {
		for w != 0 {
			out = append(out, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// BitsRange returns the set {lo, …, hi-1}, built a word at a time; it is
// empty when hi <= lo.
func BitsRange(lo, hi int) Bits {
	var b Bits
	for i := range b {
		wlo, whi := max(lo-64*i, 0), min(hi-64*i, 64)
		if wlo < whi {
			b[i] = ^uint64(0) >> (64 - (whi - wlo)) << wlo
		}
	}
	return b
}

// BitsOf builds a set from indices.
func BitsOf(indices ...int) Bits {
	var b Bits
	for _, i := range indices {
		b.Set(i)
	}
	return b
}
