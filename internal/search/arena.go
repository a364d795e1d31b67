package search

import (
	"sync"

	"switchsynth/internal/topo"
)

// arena is the pooled backing storage for one solver's mutable state.
// Solvers are short-lived and allocate the same slice shapes on every
// call (and, on the parallel driver, once per worker), so recycling the
// buffers through a sync.Pool removes the dominant per-solve allocations.
//
// An arena is bound to exactly one solver at a time. Results never alias
// arena memory — incumbents are snapshotted into fresh slices — so
// releasing the arena after finish() is safe.
type arena struct {
	pinOf    []int
	setCount []int
	stubEdge []int
	order    []int
	seenGen  []int64

	// owned[set] is the union of the junction vertices the set's
	// placements claim; ownedBy[set*nModules+inlet] the part of it claimed
	// by one inlet module's flows.
	owned   []topo.Bits
	ownedBy []topo.Bits

	pathOf []*topo.Path
	setOf  []int

	// undo backs the LIFO placement undo log.
	undo []undoRec

	// replay backs the parallel driver's prefix replay (see runUnit).
	replay []replayFrame
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func acquireArena() *arena { return arenaPool.Get().(*arena) }

// releaseArena drops the pointer-bearing contents (path and candidate
// pointers into shared path tables) and returns the arena to the pool.
func releaseArena(a *arena) {
	clearSlice(a.pathOf)
	clearSlice(a.replay)
	arenaPool.Put(a)
}

// bind sizes the arena for one solve and points the solver's state at it.
// Every buffer is reset to its initial value; capacity is retained across
// solves.
func (a *arena) bind(s *solver, nModules, nFlows, maxSets int) {
	a.pinOf = resetInts(a.pinOf, nModules, -1)
	a.setCount = resetInts(a.setCount, maxSets, 0)
	a.stubEdge = grown(a.stubEdge, s.numPins)
	a.order = grown(a.order, nFlows)
	a.seenGen = grown(a.seenGen, nModules)
	clearSlice(a.seenGen)

	a.owned = grown(a.owned, maxSets)
	clearSlice(a.owned)
	a.ownedBy = grown(a.ownedBy, maxSets*nModules)
	clearSlice(a.ownedBy)

	a.pathOf = grown(a.pathOf, nFlows)
	clearSlice(a.pathOf)
	a.setOf = grown(a.setOf, nFlows)
	a.undo = grown(a.undo, nFlows)

	s.pinOf = a.pinOf
	s.setCount = a.setCount
	s.stubEdge = a.stubEdge
	s.order = a.order
	s.seenGen = a.seenGen
	s.owned = a.owned
	s.ownedBy = a.ownedBy
	s.pathOf = a.pathOf
	s.setOf = a.setOf
	s.undo = a.undo
}

// grown returns buf resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func resetInts(buf []int, n, fill int) []int {
	buf = grown(buf, n)
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

func clearSlice[T any](buf []T) {
	var zero T
	for i := range buf {
		buf[i] = zero
	}
}
