package search

import (
	"math"
	mathbits "math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"switchsynth/internal/topo"
)

// The parallel driver splits the canonical DFS tree at a shallow
// frontier into work units (feasible branch prefixes, numbered in
// preorder), runs them on Options.Workers solver goroutines, and shares
// one incumbent across the pool.
//
// Bit-determinism invariant: the final incumbent is exactly the leaf the
// sequential DFS would keep — the first leaf in canonical preorder
// attaining the optimal cost. Two rules enforce this regardless of how
// units interleave:
//
//   - acceptance is lexicographic on (cost, unit): a leaf replaces the
//     incumbent if it is strictly cheaper (beyond eps), or cost-tied but
//     from an earlier unit (offer);
//   - pruning is asymmetric: against an incumbent from this or an
//     earlier unit, a subtree is cut when its bound reaches cost-eps
//     (the sequential rule); against an incumbent from a LATER unit only
//     strictly worse subtrees (bound ≥ cost+eps) are cut, because an
//     equal-cost leaf here would still win the tie-break (pruneBound).
//
// Within one unit the DFS is sequential, so the first cost-c leaf of
// each unit is reached before any pruning against cost c from that same
// unit can occur; across units the incumbent order is CAS-monotone in
// (cost, unit). Together these give the sequential answer for every
// worker count and claim order.

// Frontier sizing: expand to at least minUnits units (iterative
// deepening to depth maxFrontierDepth). Both are constants — the
// frontier must not depend on the worker count, or determinism would
// only hold per configuration instead of globally.
const (
	minUnits         = 64
	maxFrontierDepth = 3
)

// maxUnit orders the "no incumbent yet" sentinel after every real unit.
const maxUnit = math.MaxInt

// Package-level solver telemetry, exported to the service layer's
// /metrics endpoint via Counters.
var totalNodes atomic.Int64

// Counters reports process-wide solver telemetry: the total number of
// branch-and-bound nodes expanded, cumulative across all solves.
func Counters() (nodes int64) {
	return totalNodes.Load()
}

// unitStep is one frozen branch decision: flow order[k] takes candidate
// c in the given set.
type unitStep struct {
	c   *topo.Cand
	set int
}

// workUnit is a feasible prefix of branch decisions for flows
// order[0..len(steps)-1]; running it means replaying the prefix and
// exhausting the subtree below it.
type workUnit struct {
	steps []unitStep
}

// sharedBest is the cross-worker incumbent: the best (cost, unit) pair
// seen so far plus the snapshotted assignment. Replaced atomically as a
// unit so readers always see a consistent triple.
type sharedBest struct {
	cost float64
	unit int
	inc  *incumbent
}

// yields reports whether a leaf of cost c from unit gives a better
// incumbent than b: strictly cheaper, or cost-tied from an earlier unit.
func (b *sharedBest) yields(c float64, unit int) bool {
	return c < b.cost-eps || (unit < b.unit && c < b.cost+eps)
}

// sharedState is the coordination block for one parallel solve.
type sharedState struct {
	best atomic.Pointer[sharedBest]
	next atomic.Int64 // claim cursor into the unit permutation

	stopped  atomic.Bool
	causeMu  sync.Mutex
	causeErr error

	workers int
	// oversub is set when workers exceed GOMAXPROCS; workers then yield
	// in their periodic poll so sibling goroutines interleave finely even
	// on fewer cores (the bound sharing needs the interleaving to pay
	// off).
	oversub bool
}

// halt requests a pool-wide stop, keeping the first cause.
func (sh *sharedState) halt(err error) {
	sh.causeMu.Lock()
	if sh.causeErr == nil {
		sh.causeErr = err
	}
	sh.causeMu.Unlock()
	sh.stopped.Store(true)
}

func (sh *sharedState) cause() error {
	sh.causeMu.Lock()
	defer sh.causeMu.Unlock()
	return sh.causeErr
}

// offer proposes the worker's current complete assignment (cost c, unit
// s.unit) as the incumbent. It wins if strictly cheaper, or cost-tied
// from an earlier unit — the lexicographic (cost, unit) order whose
// minimum is provably the sequential DFS's final incumbent.
func (sh *sharedState) offer(s *solver, c float64) {
	var inc *incumbent
	for {
		b := sh.best.Load()
		if !b.yields(c, s.unit) {
			return
		}
		if inc == nil {
			inc = s.snapshotIncumbent(c)
		}
		if sh.best.CompareAndSwap(b, &sharedBest{cost: c, unit: s.unit, inc: inc}) {
			// Publish outside the CAS loop's retry path but after the
			// install: concurrent workers may publish out of order (a
			// worse incumbent after a better one) — the hook contract
			// makes ordering the subscriber's job.
			s.publishIncumbent(inc)
			return
		}
	}
}

// expandFrontier enumerates the canonical work units by iterative
// deepening: depth 1 first, going deeper until the frontier has at least
// minUnits units or maxFrontierDepth is reached. Units are emitted in
// preorder, which is exactly the order the sequential DFS visits their
// subtrees — the unit index is the determinism tie-break.
func (s *solver) expandFrontier() []workUnit {
	maxD := maxFrontierDepth
	if len(s.order) < maxD {
		maxD = len(s.order)
	}
	var units []workUnit
	// Each deepening round re-walks the tree from the root, so without a
	// reset the shallow interior nodes would be counted once per round —
	// inflating solver_nodes_total relative to the sequential DFS, which
	// visits them exactly once. Only the final round's walk is kept.
	base := s.nodes
	for d := 1; d <= maxD; d++ {
		s.nodes = base
		units = units[:0]
		prefix := make([]unitStep, 0, d)
		s.expand(0, d, prefix, &units)
		if len(units) >= minUnits {
			break
		}
	}
	return units
}

// expand mirrors dfs's candidate/set enumeration — same feasibility
// checks, same canonical order — but instead of recursing to leaves it
// emits the branch prefix once pos reaches the frontier depth (or a
// complete assignment, whichever comes first). No pruning and no
// deadline checks: the frontier must be identical for every run.
func (s *solver) expand(pos, depth int, prefix []unitStep, out *[]workUnit) {
	if pos == depth || pos == len(s.order) {
		*out = append(*out, workUnit{steps: slices.Clone(prefix)})
		return
	}
	// Count the visit (an interior node the sequential DFS would also
	// count) but never poll stop sources here: truncating the expansion
	// on a deadline would make the frontier depend on timing.
	s.nodes++
	f := s.order[pos]
	ms := s.srcs[f]
	cands, flt := s.candTable(pos)
	for i := range cands {
		c := &cands[i]
		if !flt.admits(c) {
			continue
		}
		boundIn, boundOut, ok := s.bindCand(f, c)
		if !ok {
			continue
		}
		for set := range s.setChoices() {
			if !s.setFits(set, ms, c.Path) {
				continue
			}
			s.place(f, ms, set, c.Path)
			s.expand(pos+1, depth, append(prefix, unitStep{c, set}), out)
			s.unplace(f, set)
		}
		s.unbindCand(f, c, boundIn, boundOut)
	}
}

// claimOrder returns the bit-reversal permutation of 0..n-1: workers
// claim units in an order that spreads consecutive claims across the
// whole frontier. Early incumbents from diverse regions tighten the
// shared bound much faster than a left-to-right sweep — this is where
// the parallel driver's superlinear pruning comes from — and because
// acceptance is order-independent (see the determinism invariant), the
// claim order is free to optimize for exactly that.
func claimOrder(n int) []int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	order := make([]int, 0, n)
	for i := 0; i < 1<<bits; i++ {
		r := int(mathbits.Reverse64(uint64(i)) >> (64 - bits))
		if r < n {
			order = append(order, r)
		}
	}
	return order
}

// replayFrame records one replayed prefix step so runUnit can unwind it.
type replayFrame struct {
	f                 int
	c                 *topo.Cand
	boundIn, boundOut bindOutcome
	set               int
}

// runUnit replays the unit's branch prefix onto the worker's (clean)
// state, exhausts the subtree with the regular DFS, and unwinds. The
// prefix was feasible during expansion from the same clean state, so the
// replay cannot fail. The frames unwind in reverse — the LIFO order the
// placement undo log requires.
func (s *solver) runUnit(unitIdx int, u workUnit) {
	s.unit = unitIdx
	frames := grown(s.arena.replay, len(u.steps))
	s.arena.replay = frames
	for k, st := range u.steps {
		f := s.order[k]
		ms, md := s.srcs[f], s.dsts[f]
		boundIn := s.bindIfNeeded(ms, st.c.In)
		boundOut := s.bindIfNeeded(md, st.c.Out)
		s.place(f, ms, st.set, st.c.Path)
		frames[k] = replayFrame{f, st.c, boundIn, boundOut, st.set}
	}

	s.dfs(len(u.steps))

	for k := len(frames) - 1; k >= 0; k-- {
		fr := frames[k]
		s.unplace(fr.f, fr.set)
		s.unbindCand(fr.f, fr.c, fr.boundIn, fr.boundOut)
	}
}

// newWorker builds a worker solver sharing the root solver's immutable
// inputs, deadline and coordination block. Each worker owns its own
// pooled arena, so state never crosses goroutines except through sh.
func newWorker(root *solver, sh *sharedState) *solver {
	w := newSolver(root.sp, root.sw, root.pt, root.opts)
	w.deadline = root.deadline
	w.hasDL = root.hasDL
	w.ctx = root.ctx
	w.shared = sh
	// Workers never run run(), so the root bound and start time used by
	// published incumbent snapshots must be inherited explicitly.
	w.rootLB = root.rootLB
	w.started = root.started
	w.bindFixed()
	return w
}

// runParallel is the parallel driver behind run(): expand the frontier,
// fan the units out to Options.Workers workers over an atomic claim
// cursor, and adopt the shared incumbent as this solver's result so
// finish() proceeds exactly as in the sequential case.
func (s *solver) runParallel() {
	units := s.expandFrontier()
	if len(units) == 0 {
		// No feasible prefix ⇒ no feasible plan; finish() reports
		// ErrNoSolution via the regular best == nil path.
		return
	}
	workers := s.opts.Workers
	if workers > len(units) {
		workers = len(units)
	}
	sh := &sharedState{
		workers: workers,
		oversub: workers > runtime.GOMAXPROCS(0),
	}
	if s.seedBest && s.best != nil {
		// An adopted external seed becomes the shared starting incumbent.
		// Its unit is maxUnit — notionally "after every real unit" — so
		// the existing offer/prune tie-break makes every worker treat it
		// exactly like a later-unit incumbent: equal-cost leaves still
		// win, and the canonical first-optimal leaf replaces it whenever
		// the run completes. Seeded and unseeded complete runs therefore
		// emit byte-identical plans at every worker count.
		sh.best.Store(&sharedBest{cost: s.bestCost, unit: maxUnit, inc: s.best})
	} else {
		sh.best.Store(&sharedBest{cost: inf, unit: maxUnit})
	}

	order := claimOrder(len(units))
	ws := make([]*solver, workers)
	for w := range ws {
		ws[w] = newWorker(s, sh)
	}
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := ws[w]
			for !wk.timedOut {
				i := int(sh.next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				wk.runUnit(order[i], units[order[i]])
			}
		}(w)
	}
	wg.Wait()

	if b := sh.best.Load(); b.inc != nil {
		s.best = b.inc
		s.bestCost = b.cost
	}
	for _, wk := range ws {
		s.nodes += wk.nodes
		if wk.timedOut && !s.timedOut {
			s.timedOut = true
			s.stopErr = wk.stopErr
		}
		wk.release()
	}
}
