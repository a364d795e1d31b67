// Package search implements the dedicated exact synthesis engine: a
// combinatorial branch & bound over module→pin binding, flow→path assignment
// and flow→set scheduling.
//
// It optimizes exactly the paper's objective α·N_Sets + β·L_flow over exactly
// the paper's feasible region (constraints 3.1–3.13 plus the Section 4.2
// defaults), but replaces the monolithic IQP solve with problem-structured
// search: the paper reports multi-hour Gurobi runtimes on the 12- and 16-pin
// cases, and the pure-Go LP-based branch & bound in internal/milp — the
// faithful encoding, kept in internal/model — does not scale past toy sizes.
// Property tests cross-check the two engines' optima on small instances.
//
// Every node is bounded by its cost, the pin stubs the unplaced flows must
// still add, and the larger of two bounds on the interior edges they must
// still add: the junction cover (each junction they must reach and no
// used edge touches takes a fresh edge) and the longest of their least
// fresh interiors over the candidates they may still take; a flow with no
// such candidate prunes the node (forward checking). The bound is
// admissible, so it only removes subtrees without a leaf the search would
// accept: the plan, and the first optimal leaf in canonical DFS order, are
// those of the unbounded tree (see bound and DESIGN.md §5).
//
// With Options.Workers > 1 the DFS runs on a parallel driver (parallel.go):
// the canonical search-tree frontier is split into work units consumed by a
// pool of workers that share one incumbent bound. Results are bit-identical
// for every worker count; see DESIGN.md "Parallel search".
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"runtime"
	"sort"
	"time"

	"switchsynth/internal/geom"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// Options tune the search.
type Options struct {
	// TimeLimit bounds the wall-clock search time; 0 means no limit. On
	// timeout the best incumbent is returned with Result.Proven == false
	// and Result.Degraded == true (anytime solving); if no incumbent
	// exists yet the greedy first-fit fallback runs (see GreedyBudget).
	TimeLimit time.Duration
	// Ctx, when non-nil, cancels the search: on ctx expiry or
	// cancellation the best incumbent found so far is returned with
	// Result.Degraded == true, or an ErrTimeout wrapping ctx.Err() if no
	// plan was found yet. A ctx deadline and TimeLimit compose; whichever
	// fires first stops the search. Explicit cancellation (ctx.Canceled)
	// skips the greedy fallback: the caller no longer wants any result.
	Ctx context.Context
	// GreedyBudget bounds the greedy first-fit fallback that runs when a
	// deadline expires before any incumbent exists. Zero means the
	// default (100ms); negative disables the fallback entirely. The
	// fallback may therefore overrun the deadline by up to this budget.
	GreedyBudget time.Duration
	// DisableSymmetryBreaking turns off the rotational pin-symmetry cut
	// (used by ablation benchmarks).
	DisableSymmetryBreaking bool
	// Workers is the number of branch-and-bound goroutines exploring the
	// tree (0 or 1 = the sequential driver). The returned plan is
	// bit-identical for every value — parallelism only changes how fast
	// it is found — so callers may tune this freely without invalidating
	// caches or reproducibility. The greedy first-fit mode is always
	// sequential regardless of this setting.
	Workers int
	// SeedIncumbent, when non-nil, is a plan for (a spec equivalent to)
	// the same spec — an earlier incumbent or a plan to re-prove —
	// installed as the starting incumbent so the branch and bound begins
	// with a tight upper bound instead of +inf.
	// The seed is fully re-validated before adoption (flow re-indexing
	// onto this spec, contamination re-verify, objective recomputation);
	// an invalid or stale seed is counted (SeedCounters) and ignored,
	// never fatal. Seeding never changes the answer: a seeded solve that
	// runs to completion emits a byte-identical proven plan to an
	// unseeded one at every worker count — the seed ranks strictly after
	// every leaf the search itself reaches, so it only prunes provably
	// worse subtrees. On timeout the seed is returned as the degraded
	// incumbent if nothing better was found. Ignored in greedy
	// first-fit mode.
	SeedIncumbent *spec.Result
	// OnIncumbent, when non-nil, is invoked each time the search installs
	// a new best incumbent, with a self-contained snapshot Result
	// (Degraded: true, LowerBound/Gap filled from the admissible root
	// bound). This is the anytime-streaming hook: a service can forward
	// successively better plans to a waiting client while the proof is
	// still running. On the parallel driver the callback fires from
	// multiple solver goroutines — concurrently and possibly with a
	// stale (worse) incumbent racing a fresh one — so it must be safe
	// for concurrent use and must order updates itself (e.g. by
	// Objective). It must not block: the solver calls it inline.
	OnIncumbent func(*spec.Result)
}

// DefaultGreedyBudget is the fallback search budget applied when
// Options.GreedyBudget is zero.
const DefaultGreedyBudget = 100 * time.Millisecond

func (o Options) greedyBudget() time.Duration {
	switch {
	case o.GreedyBudget > 0:
		return o.GreedyBudget
	case o.GreedyBudget < 0:
		return 0
	default:
		return DefaultGreedyBudget
	}
}

// ErrTimeout is returned when the time limit expires (or Options.Ctx is
// cancelled) before any feasible plan is found.
//
// It participates in the errors.Is/As chains: errors.As matches
// *ErrTimeout through any wrapping, errors.Is(err, &ErrTimeout{})
// matches any timeout regardless of field values, and Unwrap exposes the
// cause — context.DeadlineExceeded for an expired limit, or the
// cancelled context's error — so errors.Is(err,
// context.DeadlineExceeded) also classifies deadline-driven timeouts.
type ErrTimeout struct {
	SpecName string
	// Cause is context.DeadlineExceeded for an expired TimeLimit or ctx
	// deadline, context.Canceled for a cancelled Options.Ctx.
	Cause error
}

// Error implements error.
func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("search: time limit hit before finding a plan for %q", e.SpecName)
}

// Unwrap exposes the timeout cause (context.DeadlineExceeded unless the
// search was cancelled).
func (e *ErrTimeout) Unwrap() error {
	if e.Cause != nil {
		return e.Cause
	}
	return context.DeadlineExceeded
}

// Is makes every *ErrTimeout match every other under errors.Is, so
// callers can classify with errors.Is(err, &ErrTimeout{}) without
// knowing the spec name.
func (e *ErrTimeout) Is(target error) bool {
	var other *ErrTimeout
	return errors.As(target, &other)
}

// Solve synthesizes an application-specific switch plan for sp. The
// switch model and path table come from the process-wide topo cache —
// crossbar or FPVA grid, selected by the spec's topology — so repeated
// solves on the same substrate share one immutable topology.
func Solve(sp *spec.Spec, opts Options) (*spec.Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sw, pt, err := sp.SharedTopology()
	if err != nil {
		return nil, err
	}
	return SolveOn(sp, sw, pt, opts)
}

// SolveOn synthesizes on a prebuilt switch and path table so that callers
// running many cases can share them. The switch must match the spec's
// topology and port count.
func SolveOn(sp *spec.Spec, sw *topo.Switch, pt *topo.PathTable, opts Options) (*spec.Result, error) {
	if err := matchTopology(sp, sw); err != nil {
		return nil, err
	}
	s := newSolver(sp, sw, pt, opts)
	return s.run()
}

// matchTopology rejects a prebuilt switch that does not model the
// spec's substrate: the port counts must agree and a crossbar spec must
// never run on an FPVA grid (or vice versa) — an FPVA grid can expose
// the same port count as a crossbar (2×2 → 8 ports), so the kind check
// is load-bearing, not cosmetic.
func matchTopology(sp *spec.Spec, sw *topo.Switch) error {
	if sw.NumPins != sp.Ports() {
		return fmt.Errorf("search: switch has %d pins, spec wants %d", sw.NumPins, sp.Ports())
	}
	if (sw.Kind == "fpva") != sp.IsFPVA() {
		return fmt.Errorf("search: %s switch does not match the spec's topology %q", sw.Kind, sp.Topology)
	}
	return nil
}

type incumbent struct {
	routes []spec.Route
	pinOf  []int
	cost   float64
}

// undoRec is one placement's entry in the LIFO undo log: the used-edge
// union and length from before the placement, and the junction vertices
// it newly claimed for its set. Placements are always undone in reverse
// order, so restoring these values is an exact undo.
type undoRec struct {
	edges   topo.Bits
	length  float64
	claimed topo.Bits
}

type solver struct {
	sp    *spec.Spec
	sw    *topo.Switch
	pt    *topo.PathTable
	opts  Options
	alpha float64
	beta  float64

	order    []int   // DFS position -> flow index
	srcs     []int   // flow -> source module index
	dsts     []int   // flow -> destination module index
	conf     [][]int // flow -> conflicting flows
	inlets   int     // distinct inlet modules
	maxSets  int
	numPins  int
	rotStep  int
	stubEdge []int // pin order -> stub edge ID
	stubLen  float64

	allPins  topo.Bits // pin orders 0..numPins-1
	pinVerts topo.Bits // vertex IDs of the pins

	// Mutable state.
	pinOf    []int        // module -> pin order, -1 unbound
	freePins topo.Bits    // pin orders no module is bound to
	pathOf   []*topo.Path // per flow: chosen path, nil while unassigned
	setOf    []int        // per flow: chosen set; valid while assigned
	// owned[set] holds the junction vertices the set's placements claim,
	// ownedBy[set*len(pinOf)+inlet] the ones claimed by one inlet module.
	owned     []topo.Bits
	ownedBy   []topo.Bits
	setCount  []int
	usedSets  int
	usedEdges topo.Bits
	curLen    float64

	// LIFO undo log: undo[f] restores flow f's placement.
	undo []undoRec
	// remainingLB scratch: stamp array instead of a per-node map.
	seenGen []int64
	gen     int64

	arena *arena // backing storage for the slices above; pooled

	best     *incumbent
	bestCost float64
	// seedBest marks that the current incumbent is an externally adopted
	// seed (Options.SeedIncumbent) rather than a leaf this search
	// reached. A seed ranks strictly after every native leaf: acceptLeaf
	// replaces it on any leaf within tolerance of its cost (not just a
	// strict improvement) and pruneBound keeps equal-cost subtrees open,
	// so a completed seeded solve lands on exactly the same canonical
	// leaf as an unseeded one. Cleared on the first acceptance.
	seedBest bool
	deadline time.Time
	hasDL    bool
	ctx      context.Context
	nodes    int64
	timedOut bool
	stopErr  error // context/deadline cause when timedOut

	// Parallel-driver fields: shared is the cross-worker incumbent and
	// stop state (nil on the sequential driver), unit the canonical index
	// of the frontier unit this worker is currently exploring.
	shared *sharedState
	unit   int

	// stopAtFirst makes the DFS return at the first feasible leaf (the
	// greedy first-fit mode); done records that it fired.
	stopAtFirst bool
	done        bool
	// rootLB is the admissible objective lower bound established at the
	// root, reported as Result.LowerBound for degraded plans.
	rootLB float64
	// started is the solve start time, stamped onto streamed incumbent
	// snapshots as their Runtime (parallel workers inherit the root's).
	started time.Time
}

// halted reports whether the DFS must unwind (deadline, cancellation, or
// the first-fit stop).
func (s *solver) halted() bool {
	return s.timedOut || s.done
}

func newSolver(sp *spec.Spec, sw *topo.Switch, pt *topo.PathTable, opts Options) *solver {
	s := &solver{
		sp:       sp,
		sw:       sw,
		pt:       pt,
		opts:     opts,
		alpha:    sp.EffectiveAlpha(),
		beta:     sp.EffectiveBeta(),
		srcs:     sp.Sources(),
		dsts:     sp.Destinations(),
		conf:     sp.ConflictsWith(),
		maxSets:  sp.EffectiveMaxSets(),
		numPins:  sw.NumPins,
		rotStep:  sw.RotStep,
		allPins:  topo.BitsRange(0, sw.NumPins),
		stubLen:  geom.PinStubLength,
		bestCost: inf,
		unit:     maxUnit,
	}
	nFlows := len(sp.Flows)
	a := acquireArena()
	s.arena = a
	a.bind(s, len(sp.Modules), nFlows, s.maxSets)
	s.freePins = s.allPins
	s.gen++
	for _, m := range s.srcs {
		if s.seenGen[m] != s.gen {
			s.seenGen[m] = s.gen
			s.inlets++
		}
	}

	for p := 0; p < s.numPins; p++ {
		s.stubEdge[p] = sw.PinStubEdge(p)
		s.pinVerts.Set(sw.PinVertex(p))
	}

	// Flow ordering: conflicted flows first (most constrained), then by
	// flow index for determinism.
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		ca, cb := len(s.conf[s.order[a]]), len(s.conf[s.order[b]])
		if ca != cb {
			return ca > cb
		}
		return s.order[a] < s.order[b]
	})
	return s
}

const (
	inf = 1e18
	// eps is the float tolerance separating genuinely better objective
	// values from reordering noise. Objective values are quantized far
	// above it: edge lengths are multiples of the grid pitch and stub
	// length, so distinct costs differ by ≥ β·0.1 while float summation
	// order perturbs them by ~1e-12.
	eps = 1e-9
)

// startClock arms the deadline from TimeLimit and the optional context.
func (s *solver) startClock(start time.Time) {
	if s.opts.TimeLimit > 0 {
		s.deadline = start.Add(s.opts.TimeLimit)
		s.hasDL = true
	}
	if s.opts.Ctx != nil {
		s.ctx = s.opts.Ctx
		if dl, ok := s.ctx.Deadline(); ok && (!s.hasDL || dl.Before(s.deadline)) {
			s.deadline = dl
			s.hasDL = true
		}
	}
}

// bindFixed applies the spec's fixed module→pin binding up front;
// infeasible cyclic constraints cannot occur for fixed bindings (the
// spec validated distinctness).
func (s *solver) bindFixed() {
	if s.sp.Binding != spec.Fixed {
		return
	}
	for mi, name := range s.sp.Modules {
		p := s.sp.FixedPins[name]
		s.pinOf[mi] = p
		s.freePins.Clear(p)
	}
}

func (s *solver) run() (*spec.Result, error) {
	start := time.Now()
	s.started = start
	s.startClock(start)
	s.bindFixed()

	// Admissible root bound: at least one flow set plus the node bound at
	// the root. Reported as LowerBound on degraded plans.
	s.rootLB = s.alpha + s.bound(0, math.Inf(1))

	// Adopt the external seed (root solver only — parallel workers
	// inherit it through the shared incumbent, never re-adopt). Greedy
	// first-fit ignores seeds: its contract is "first feasible leaf".
	if s.opts.SeedIncumbent != nil && !s.stopAtFirst {
		if inc := s.adoptSeed(); inc != nil {
			s.best = inc
			s.bestCost = inc.cost
			s.seedBest = true
			s.publishIncumbent(inc)
		}
	}

	// A stop source that has already fired ends the solve before the
	// search: a small tree could otherwise finish before the first
	// periodic poll and ignore a dead context.
	switch {
	case s.poll():
	case s.opts.Workers > 1 && !s.stopAtFirst && len(s.order) > 0:
		s.runParallel()
	default:
		s.dfs(0)
	}
	return s.finish(start)
}

// finish turns the search outcome into a Result (or error), releases the
// pooled solver state, and flushes the node counter into the package
// telemetry.
func (s *solver) finish(start time.Time) (*spec.Result, error) {
	totalNodes.Add(s.nodes)
	defer s.release()

	rt := time.Since(start)
	if s.best == nil {
		if !s.timedOut {
			return nil, &spec.ErrNoSolution{SpecName: s.sp.Name, Policy: s.sp.Binding}
		}
		// Anytime contract: the deadline expired before any incumbent.
		// Unless the caller explicitly cancelled (it no longer wants any
		// result) or this run IS the fallback, degrade to greedy
		// first-fit instead of failing with ErrTimeout.
		if !s.stopAtFirst && !errors.Is(s.stopErr, context.Canceled) {
			if budget := s.opts.greedyBudget(); budget > 0 {
				res, gerr := greedyOn(s.sp, s.sw, s.pt, s.opts, budget)
				if gerr == nil {
					res.Runtime = time.Since(start)
					return res, nil
				}
				var nosol *spec.ErrNoSolution
				if errors.As(gerr, &nosol) {
					// The fallback exhausted the tree inside its budget:
					// a genuine infeasibility proof.
					return nil, gerr
				}
			}
		}
		return nil, &ErrTimeout{SpecName: s.sp.Name, Cause: s.stopErr}
	}
	proven := !s.timedOut && !s.stopAtFirst
	return s.result(s.best, s.best.routes, proven, rt), nil
}

// result builds the Result of incumbent inc over routes, normalized
// (spec.Result.Normalize) and with its bound metadata filled in.
func (s *solver) result(inc *incumbent, routes []spec.Route, proven bool, rt time.Duration) *spec.Result {
	res := &spec.Result{
		Spec:     s.sp,
		Switch:   s.sw,
		PinOf:    make(map[string]int, len(s.sp.Modules)),
		Routes:   routes,
		Proven:   proven,
		Degraded: !proven,
		Runtime:  rt,
		Engine:   "search",
	}
	for mi, name := range s.sp.Modules {
		if p := inc.pinOf[mi]; p >= 0 {
			res.PinOf[name] = p
		}
	}
	res.Normalize()
	s.fillBound(res)
	return res
}

// release returns the solver's pooled state. The Result never aliases
// arena memory: incumbent routes and pin assignments are fresh copies.
func (s *solver) release() {
	if s.arena == nil {
		return
	}
	releaseArena(s.arena)
	s.arena = nil
}

// fillBound records the optimality-gap metadata: proven plans are their
// own bound; degraded plans report the admissible root bound and the
// relative gap to it.
func (s *solver) fillBound(res *spec.Result) {
	if res.Proven {
		res.LowerBound = res.Objective
		res.Gap = 0
		return
	}
	lb := s.rootLB
	if lb > res.Objective {
		lb = res.Objective
	}
	res.LowerBound = lb
	if res.Objective > 0 {
		res.Gap = (res.Objective - lb) / res.Objective
	}
}

// expired counts a search node and, every 256 nodes, polls the stop
// sources: the shared stop flag (parallel driver), the context, and the
// deadline. Oversubscribed parallel runs also yield the processor here
// so that sibling workers interleave finely even on a single core.
func (s *solver) expired() bool {
	s.nodes++
	if s.nodes&255 != 0 {
		return s.timedOut
	}
	if sh := s.shared; sh != nil {
		if sh.stopped.Load() {
			s.timedOut = true
			s.stopErr = sh.cause()
			return true
		}
		if sh.oversub {
			runtime.Gosched()
		}
	}
	return s.poll()
}

// poll checks the context and the deadline, halting the solver when
// either has fired.
func (s *solver) poll() bool {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.halt(err)
			return true
		}
	}
	if s.hasDL && time.Now().After(s.deadline) {
		s.halt(context.DeadlineExceeded)
	}
	return s.timedOut
}

// halt marks this solver timed out and, on the parallel driver,
// propagates the stop to the sibling workers.
func (s *solver) halt(causeErr error) {
	s.timedOut = true
	s.stopErr = causeErr
	if s.shared != nil {
		s.shared.halt(causeErr)
	}
}

func (s *solver) cost() float64 {
	return s.costOf(s.usedSets, s.curLen)
}

// costOf is the objective α·sets + β·length; cost and leaf evaluate every
// objective through it, so a leaf's cost computed before placing it is
// bit-identical to the cost after.
func (s *solver) costOf(sets int, length float64) float64 {
	return s.alpha*float64(sets) + s.beta*length
}

// remainingLB is an admissible lower bound on the extra stub length the
// unassigned flows must add: every unassigned flow ends at a distinct
// outlet pin whose stub cannot be in use yet, and each distinct unassigned
// inlet module whose stub is unused adds its stub too. It prices stub
// edges only; bound adds the interior edges on top of it.
func (s *solver) remainingLB(pos int) float64 {
	var extra float64
	s.gen++
	gen := s.gen
	for k := pos; k < len(s.order); k++ {
		f := s.order[k]
		extra += s.stubLen // outlet stub is always fresh (outlet-once rule)
		ms := s.srcs[f]
		if s.seenGen[ms] == gen {
			continue
		}
		s.seenGen[ms] = gen
		if p := s.pinOf[ms]; p >= 0 {
			if !s.usedEdges.Has(s.stubEdge[p]) {
				extra += s.stubLen
			}
		} else {
			extra += s.stubLen // unbound module's pin is free, stub unused
		}
	}
	return s.beta * extra
}

// bound is the one node bound: dfs cuts a node whose bound reaches the
// prune bound, and run takes the root's, with no cut, for the LowerBound
// of degraded plans. It is cost + remainingLB plus β times the larger of
// two lower bounds on the fresh interior length — path edges neither in
// use nor pin stubs — the unplaced flows must still add: the junction
// cover (see cover), and the largest, over the unplaced flows, of the
// least fresh interior among each flow's admissible candidates. It is
// +inf when some flow has no admissible candidate (forward checking). A
// candidate is admissible when its pins pass the node's pin filter
// without the root symmetry cut, it clashes with no routed conflicting
// flow, and some set can take it. Every test only fails more often down
// the subtree, so the path a flow finally takes is admissible here and
// adds at least its fresh interior; interior and stub edges are disjoint,
// so those lengths add to the stubs remainingLB counts.
//
// With a finite cut the evaluation stops as soon as its side of the cut
// is known, so only that side is exact: the cover is priced first, and a
// node it alone cuts skips the candidate walk; when even the longest
// interior cannot reach the cut only the feasibility exit can, so each
// flow stops at its first admissible candidate; a flow's scan stops once
// its least value cannot raise the running maximum, which starts at the
// cover; and the bound returns as soon as it reaches the cut. With cut =
// +inf the value is exact.
func (s *solver) bound(pos int, cut float64) float64 {
	lb := s.cost() + s.remainingLB(pos)
	if lb >= cut {
		return lb
	}
	worst := s.cover(pos)
	if lb+s.beta*worst >= cut {
		return lb + s.beta*worst
	}
	ct := &s.pt.Cands
	first := !math.IsInf(cut, 1) && lb+s.beta*ct.MaxInterior < cut
	minus := s.usedEdges.Or(ct.StubEdges)
	for k := pos; k < len(s.order); k++ {
		least, ok := s.leastFresh(s.order[k], &minus, worst, first)
		if !ok {
			return math.Inf(1)
		}
		if least > worst {
			worst = least
			if lb+s.beta*worst >= cut {
				break
			}
		}
	}
	return lb + s.beta*worst
}

// cover is the junction cover: a lower bound on the fresh interior edges
// the unplaced flows must still add, times the shortest interior edge. A
// route leaves its inlet's junction and enters its outlet's by interior
// edges unless both pins share one junction. So a junction no used
// interior edge touches yet, at which some unplaced flow must end, takes
// a fresh interior edge. u counts two kinds of such junction:
//   - the junctions of the bound modules of the unplaced flows, except
//     where the flow's other module is on, or may take, another pin of
//     the same junction (sharedJunction);
//   - the fewest the unbound modules of the unplaced flows can land on
//     (landings). Those hold no bound module, so the two kinds are
//     disjoint.
//
// The fresh edges number at least ⌈u/2⌉, since one edge touches at most
// two junctions. They also number at least V − I − E: the finished
// plan's interior edges touch V ≥ (junctions touched now) + u junctions,
// every connected piece of them holds an inlet's junction (each route is
// connected and a module's routes share its junction), so there are at
// least V − I of them with I the number of inlet modules, and E of them
// are in use already.
func (s *solver) cover(pos int) float64 {
	ct := &s.pt.Cands
	used := s.usedEdges.AndNot(ct.StubEdges)
	var touched topo.Bits // junctions a used interior edge touches
	for wi, w := range used {
		for ; w != 0; w &= w - 1 {
			touched = touched.Or(ct.InteriorEnds[wi*64+mathbits.TrailingZeros64(w)])
		}
	}
	var need topo.Bits   // junctions of bound modules that take a fresh edge
	var paired topo.Bits // unbound inlets with an unplaced flow to an unbound outlet
	unbound := 0
	s.gen++
	gen := s.gen
	for k := pos; k < len(s.order); k++ {
		f := s.order[k]
		ends := [2]int{s.srcs[f], s.dsts[f]}
		if s.pinOf[ends[0]] < 0 && s.pinOf[ends[1]] < 0 {
			paired.Set(ends[0])
		}
		for i, m := range ends {
			p := s.pinOf[m]
			switch {
			case p < 0:
				if s.seenGen[m] != gen {
					s.seenGen[m] = gen
					unbound++
				}
			case !touched.Has(ct.Junction[p]) && !s.sharedJunction(p, ends[1-i]):
				need.Set(ct.Junction[p])
			}
		}
	}
	u := need.OnesCount() + s.landings(unbound, paired.OnesCount(), &touched)
	edges := max((u+1)/2, touched.OnesCount()+u-s.inlets-used.OnesCount())
	return float64(edges) * ct.MinInterior
}

// landings is a lower bound on the untouched junctions the unbound
// modules of the unplaced flows will sit at and leave by a fresh
// interior edge, given unbound such modules. Each takes its own free pin. A pin costs nothing when its
// junction is touched, or is shared with a bound module or with more
// than one other pin. A pair of pins that alone make up an untouched
// junction costs nothing when both ends of one flow take it (at most
// pairs flows can: one per unbound inlet), and one junction for one or
// two modules otherwise; any other pin costs one junction per module.
func (s *solver) landings(unbound, pairs int, touched *topo.Bits) int {
	ct := &s.pt.Cands
	twin := 0 // free pins of untouched two-pin junctions with both pins free
	for wi, w := range s.freePins {
		for ; w != 0; w &= w - 1 {
			p := wi*64 + mathbits.TrailingZeros64(w)
			switch {
			case touched.Has(ct.Junction[p]):
				unbound--
			case !ct.SharedPins.Has(p):
			case ct.JunctionPins[p].OnesCount() == 2 && ct.JunctionPins[p].AndNot(s.freePins).IsZero():
				twin++
			default:
				unbound--
			}
		}
	}
	if unbound <= 0 {
		return 0
	}
	twins := twin / 2
	q := min(pairs, twins)
	if unbound -= 2 * q; unbound <= 0 {
		return 0
	}
	if twins -= q; unbound <= 2*twins {
		return (unbound + 1) / 2
	}
	return unbound - twins
}

// sharedJunction reports whether module o, the other end of a flow with
// a module on pin p, is on or may take another pin of p's junction, so
// the flow may run stub to stub with no interior edge.
func (s *solver) sharedJunction(p, o int) bool {
	ct := &s.pt.Cands
	if !ct.SharedPins.Has(p) {
		return false
	}
	others := ct.JunctionPins[p]
	others.Clear(p)
	if q := s.pinOf[o]; q >= 0 {
		return others.Has(q)
	}
	return others.Intersects(s.freePins)
}

// leastFresh returns the least length outside minus of flow f's
// admissible candidates (see bound), and false when f has none. It walks
// the pin-pair tables of the pins the flow's modules may take, so pins the
// filter rejects cost nothing. With first it returns 0 at the first
// admissible candidate; otherwise it stops once the least value is at
// most floor.
func (s *solver) leastFresh(f int, minus *topo.Bits, floor float64, first bool) (float64, bool) {
	ms := s.srcs[f]
	ins, outs := s.pinChoices(ms), s.pinChoices(s.dsts[f])
	var least float64
	found := false
	for wi := range ins {
		for w := ins[wi]; w != 0; w &= w - 1 {
			byOut := s.pt.Cands.ByPair[wi*64+mathbits.TrailingZeros64(w)]
			for wo := range outs {
				for v := outs[wo]; v != 0; v &= v - 1 {
					cands := byOut[wo*64+mathbits.TrailingZeros64(v)]
					for i := range cands {
						path := cands[i].Path
						var fresh float64
						if !first {
							fresh = s.sw.MaskLength(&path.EdgeMask, minus)
							if found && fresh >= least {
								continue
							}
						}
						if s.conflictClash(f, path) || !s.fitsSomeSet(ms, path) {
							continue
						}
						least, found = fresh, true
						if first || least <= floor {
							return least, true
						}
					}
				}
			}
		}
	}
	return least, found
}

// pinChoices returns the pins module m may take: its own when bound, its
// landing pins otherwise.
func (s *solver) pinChoices(m int) topo.Bits {
	if p := s.pinOf[m]; p >= 0 {
		return topo.BitsOf(p)
	}
	return s.landing(m)
}

// fitsSomeSet reports whether some set can take a placement of path for
// inletModule: an empty one, or an open one setFits admits.
func (s *solver) fitsSomeSet(inletModule int, path *topo.Path) bool {
	if s.usedSets < s.maxSets {
		return true
	}
	for set := range s.usedSets {
		if s.setFits(set, inletModule, path) {
			return true
		}
	}
	return false
}

// acceptLeaf records the complete assignment at the current leaf if it
// beats the incumbent. On the parallel driver the decision is delegated
// to the shared (cost, unit) order; sequentially a strict improvement is
// required, so among equal-cost optima the first one in canonical DFS
// order wins — the tie-break the parallel driver reproduces exactly.
func (s *solver) acceptLeaf() {
	c := s.cost()
	if s.shared != nil {
		s.shared.offer(s, c)
		return
	}
	if s.takes(c) {
		s.seedBest = false
		s.bestCost = c
		s.best = s.snapshotIncumbent(c)
		if s.stopAtFirst {
			s.done = true
		}
		s.publishIncumbent(s.best)
	}
}

// takes reports whether the acceptance rule would install a leaf of cost
// c: sequentially a strict improvement, or any leaf within tolerance of an
// adopted seed; on the parallel driver the shared (cost, unit) order as
// of now. The shared incumbent only ever moves down that order, so a leaf
// it refuses now, offer would refuse later too.
func (s *solver) takes(c float64) bool {
	if sh := s.shared; sh != nil {
		return sh.best.Load().yields(c, s.unit)
	}
	return c < s.bestCost-eps || (s.seedBest && c < s.bestCost+eps)
}

// publishIncumbent hands a fresh incumbent snapshot to the OnIncumbent
// hook as a self-contained degraded Result. The routes are copied —
// normalization relabels sets in place, and finish normalizes the same
// incumbent again — so the published plan never aliases solver state.
// Greedy first-fit runs never publish: the deadline fallback is a fresh
// solver with its own Options and no hook.
func (s *solver) publishIncumbent(inc *incumbent) {
	cb := s.opts.OnIncumbent
	if cb == nil || s.stopAtFirst {
		return
	}
	cb(s.result(inc, append([]spec.Route(nil), inc.routes...), false, time.Since(s.started)))
}

// snapshotIncumbent copies the current assignment out of the (pooled,
// mutable) solver state into a standalone incumbent.
func (s *solver) snapshotIncumbent(c float64) *incumbent {
	routes := make([]spec.Route, len(s.pathOf))
	for f, p := range s.pathOf {
		routes[f] = spec.Route{Flow: f, Set: s.setOf[f], Path: *p}
	}
	return &incumbent{
		routes: routes,
		pinOf:  append([]int(nil), s.pinOf...),
		cost:   c,
	}
}

// pruneBound returns the value a node's cost-plus-lower-bound must stay
// below to be worth exploring. Sequentially that is the incumbent cost
// (minus tolerance). On the parallel driver the bound depends on where
// the incumbent came from: against an incumbent from this or an earlier
// unit the sequential rule applies unchanged, but against one from a
// later unit only strictly worse subtrees may be cut — an equal-cost
// leaf here would still win the (cost, unit) tie-break.
func (s *solver) pruneBound() float64 {
	if s.shared == nil {
		if s.seedBest {
			// The incumbent is an external seed: an equal-cost leaf
			// must still be reachable so the seeded run lands on the
			// same canonical leaf as an unseeded one.
			return s.bestCost + eps
		}
		return s.bestCost - eps
	}
	b := s.shared.best.Load()
	if s.unit < b.unit {
		return b.cost + eps
	}
	return b.cost - eps
}

func (s *solver) dfs(pos int) {
	if s.halted() {
		return
	}
	if pos == len(s.order) {
		s.acceptLeaf()
		return
	}
	if s.expired() {
		return
	}
	if cut := s.pruneBound(); s.bound(pos, cut) >= cut {
		return // no leaf below the acceptance rule would take
	}

	f := s.order[pos]
	ms := s.srcs[f]
	last := pos == len(s.order)-1
	cands, flt := s.candTable(pos)
	for i := range cands {
		c := &cands[i]
		if !flt.admits(c) {
			continue
		}
		if s.halted() {
			return
		}
		boundIn, boundOut, ok := s.bindCand(f, c)
		if !ok {
			continue
		}
		for set := range s.setChoices() {
			if !s.setFits(set, ms, c.Path) {
				continue
			}
			if last {
				s.leaf(f, ms, set, c.Path)
			} else {
				s.place(f, ms, set, c.Path)
				s.dfs(pos + 1)
				s.unplace(f, set)
			}
			if s.halted() {
				break
			}
		}
		s.unbindCand(f, c, boundIn, boundOut)
	}
}

// leaf evaluates the complete assignment that placing the last flow f in
// set would make, without placing it: the leaf's cost comes from the set
// count, the current length and the path's new edges through the same
// float operations place and cost perform. Only a leaf the acceptance
// rule would take is placed, accepted and unplaced. Leaves are not search
// nodes (dfs counts a node only below the leaf check), so evaluating them
// here leaves the node count unchanged.
func (s *solver) leaf(f, inlet, set int, path *topo.Path) {
	sets := s.usedSets
	if s.setCount[set] == 0 {
		sets++
	}
	length := s.curLen + s.sw.MaskLength(&path.EdgeMask, &s.usedEdges)
	if !s.takes(s.costOf(sets, length)) {
		return
	}
	s.place(f, inlet, set, path)
	s.acceptLeaf()
	s.unplace(f, set)
}

// setChoices is the number of sets a placement may try: every non-empty
// set plus exactly one empty set, since empty sets are interchangeable and
// trying more than one is pure symmetry. Placements only ever open the
// first empty set and are undone in LIFO order, so the non-empty sets
// are always exactly 0..usedSets-1 and the one empty set is usedSets.
func (s *solver) setChoices() int {
	return min(s.usedSets+1, s.maxSets)
}

// candFilter selects, from a presorted candidate table, the candidates
// whose endpoints land on admissible pins: in and out are the pins the
// flow's inlet and outlet may take. A bound endpoint admits every pin (the
// table is already restricted to its pin); an unbound one admits the free
// pins it may be bound to, which under clockwise binding is its winding
// arc and, with nothing bound yet, for the inlet only the pins below the
// rotational-symmetry cut.
type candFilter struct {
	in, out topo.Bits
}

func (fl *candFilter) admits(c *topo.Cand) bool {
	return fl.in.Has(c.In) && fl.out.Has(c.Out)
}

// candTable returns flow pos's candidates in canonical order as a
// presorted table plus the filter that keeps the admissible ones: the
// pin-pair table when both endpoints are bound, the inlet- or outlet-pin
// table when one is, and the full table when neither is. Filtering a
// sorted table keeps it sorted, so no node ever sorts. The filter's masks
// are computed once per node from the node's binding; each candidate's
// bindings are undone before the next one is tested.
//
// With nothing bound yet, the rotational symmetry cut restricts the
// inlet — the module bound first — to one orbit representative per
// rotation class: the topology's smallest rotational automorphism shifts
// every pin order by Switch.RotStep (90° → PerSide on the crossbar, 180°
// → Rows+Cols on the FPVA grid), so the inlet only needs the first
// RotStep pins. A topology without rotational symmetry reports RotStep 0
// and disables the cut.
func (s *solver) candTable(pos int) ([]topo.Cand, candFilter) {
	f := s.order[pos]
	ms, md := s.srcs[f], s.dsts[f]
	pIn, pOut := s.pinOf[ms], s.pinOf[md]
	ct := &s.pt.Cands
	switch {
	case pIn >= 0 && pOut >= 0:
		return ct.ByPair[pIn][pOut], candFilter{in: s.allPins, out: s.allPins}
	case pIn >= 0:
		return ct.ByIn[pIn], candFilter{in: s.allPins, out: s.landing(md)}
	case pOut >= 0:
		return ct.ByOut[pOut], candFilter{in: s.landing(ms), out: s.allPins}
	}
	in := s.landing(ms)
	if !s.opts.DisableSymmetryBreaking && s.freePins == s.allPins && s.rotStep > 0 {
		in = in.And(topo.BitsRange(0, s.rotStep))
	}
	return ct.All, candFilter{in: in, out: s.landing(md)}
}

// landing returns the free pins unbound module m may be bound to given the
// current binding: all of them, or under clockwise binding its winding
// arc. When a candidate binds both of a flow's modules, the outlet's arc
// is taken before the inlet is bound; binding more modules only narrows
// an arc, so it stays a sound pre-filter and bindCand checks the outlet
// again once the inlet is bound.
func (s *solver) landing(m int) topo.Bits {
	if s.sp.Binding == spec.Clockwise {
		return s.clockwiseArc(m)
	}
	return s.freePins
}

type bindOutcome int

const (
	bindAlready  bindOutcome = iota // module was already on this pin
	bindDone                        // module newly bound here (undo needed)
	bindConflict                    // impossible (other pin / pin taken)
)

// bindCand binds flow f's inlet and outlet modules to the pins of
// candidate c, which the node's candFilter admitted, and applies the
// per-candidate feasibility rules the filter cannot: the clockwise winding
// of an outlet bound together with its inlet (the filter's arcs predate
// both binds), then the conflict clash of c's path. On failure every
// binding it made is undone and ok is false; on success the caller undoes
// them with unbindCand.
func (s *solver) bindCand(f int, c *topo.Cand) (boundIn, boundOut bindOutcome, ok bool) {
	ms, md := s.srcs[f], s.dsts[f]
	boundIn = s.bindIfNeeded(ms, c.In)
	boundOut = s.bindIfNeeded(md, c.Out)
	if boundIn == bindConflict || boundOut == bindConflict ||
		(boundIn == bindDone && boundOut == bindDone &&
			s.sp.Binding == spec.Clockwise && !s.clockwiseAdmits(md)) ||
		s.conflictClash(f, c.Path) {
		s.unbindCand(f, c, boundIn, boundOut)
		return boundIn, boundOut, false
	}
	return boundIn, boundOut, true
}

// unbindCand undoes bindCand's bindings, outlet first.
func (s *solver) unbindCand(f int, c *topo.Cand, boundIn, boundOut bindOutcome) {
	s.unbind(s.dsts[f], c.Out, boundOut)
	s.unbind(s.srcs[f], c.In, boundIn)
}

func (s *solver) bindIfNeeded(module, pin int) bindOutcome {
	if s.pinOf[module] == pin {
		return bindAlready
	}
	if s.pinOf[module] != -1 || !s.freePins.Has(pin) {
		return bindConflict
	}
	s.pinOf[module] = pin
	s.freePins.Clear(pin)
	return bindDone
}

func (s *solver) unbind(module, pin int, oc bindOutcome) {
	if oc != bindDone {
		return
	}
	s.pinOf[module] = -1
	s.freePins.Set(pin)
}

// conflictClash reports whether routing flow f over path would make it share
// a vertex (hence possibly a segment) with an already-routed conflicting flow.
func (s *solver) conflictClash(f int, path *topo.Path) bool {
	for _, g := range s.conf[f] {
		if p := s.pathOf[g]; p != nil && p.VertMask.Intersects(path.VertMask) {
			return true
		}
	}
	return false
}

// setFits reports whether every junction on the path is free or already
// owned by the same inlet module in the given set: no interior vertex may
// lie in the set's owned mask outside the inlet's own. A path's interior
// is its vertex mask without its two pins, and a path touches no other
// pin, so masking out every pin vertex derives it.
func (s *solver) setFits(set, inletModule int, path *topo.Path) bool {
	own, mine := &s.owned[set], &s.ownedBy[set*len(s.pinOf)+inletModule]
	for w := range path.VertMask {
		if path.VertMask[w]&^s.pinVerts[w]&own[w]&^mine[w] != 0 {
			return false
		}
	}
	return true
}

// place routes flow f over path in set and logs its undo record: the prior
// edge union and length, and the junctions it newly claims for the set
// (and for its inlet within the set).
func (s *solver) place(f, inletModule, set int, path *topo.Path) {
	u := &s.undo[f]
	u.edges, u.length = s.usedEdges, s.curLen
	own, mine := &s.owned[set], &s.ownedBy[set*len(s.pinOf)+inletModule]
	for w := range path.VertMask {
		claim := path.VertMask[w] &^ s.pinVerts[w] &^ own[w]
		u.claimed[w] = claim
		own[w] |= claim
		mine[w] |= claim
	}
	if s.setCount[set] == 0 {
		s.usedSets++
	}
	s.setCount[set]++
	s.curLen += s.sw.MaskLength(&path.EdgeMask, &s.usedEdges)
	for w := range path.EdgeMask {
		s.usedEdges[w] |= path.EdgeMask[w]
	}
	s.pathOf[f] = path
	s.setOf[f] = set
}

// unplace undoes place(f, ·, set, ·). It must be the most recent live
// placement (LIFO): the junctions it claimed are still owned by its inlet
// in this set, and every junction it found already owned still belongs to
// an earlier placement of the same inlet in this set.
func (s *solver) unplace(f, set int) {
	u := &s.undo[f]
	own, mine := &s.owned[set], &s.ownedBy[set*len(s.pinOf)+s.srcs[f]]
	for w := range u.claimed {
		own[w] &^= u.claimed[w]
		mine[w] &^= u.claimed[w]
	}
	s.usedEdges, s.curLen = u.edges, u.length
	s.setCount[set]--
	if s.setCount[set] == 0 {
		s.usedSets--
	}
	s.pathOf[f] = nil
}

// clockwiseAdmits reports whether module m, just bound, keeps the partial
// binding completable into one where the module list order winds exactly
// once clockwise around the switch (constraints 3.12–3.13). The binding
// without m must be completable; feasibility is monotone under unbinding,
// so checking each new bind this way accepts exactly the bindings a full
// recheck would. Most binds never get here — candFilter only admits pins
// inside clockwiseArc — so it runs only for the outlet of a candidate
// that binds both of its flow's modules.
//
// In a completable binding the bound pins appear in module order around
// the switch, so the clockwise pin arc between two module-order
// neighbours holds only free pins. Binding m between its nearest bound
// neighbours a and b therefore only needs pin(m) strictly inside the arc
// from pin(a) to pin(b), and each of the two sub-arcs to hold at least as
// many free pins — plain cyclic distances — as there are unbound modules
// between its ends.
func (s *solver) clockwiseAdmits(m int) bool {
	a, b, ok := s.boundNeighbours(m)
	if !ok {
		return true // m is the only bound module
	}
	n := s.numPins
	pa, pm, pb := s.pinOf[a], s.pinOf[m], s.pinOf[b]
	toM := (pm - pa + n) % n // 1..n-1: pin(m) ≠ pin(a)
	if a != b && toM >= (pb-pa+n)%n {
		return false // outside the arc; with a == b the arc is the whole ring
	}
	fromM := (pb - pm + n) % n
	nMod := len(s.pinOf)
	return (m-a+nMod)%nMod <= toM && (b-m+nMod)%nMod <= fromM
}

// clockwiseArc returns the free pins on which binding the unbound module
// m passes clockwiseAdmits: one cyclic run of pins inside the arc between
// its nearest bound module-order neighbours a and b. With toM the cyclic
// distance from pin(a) to pin(m) and arc the one from pin(a) to pin(b)
// (the whole ring when a == b), clockwiseAdmits accepts exactly
// (m−a) ≤ toM ≤ arc − (b−m), module distances taken cyclically.
func (s *solver) clockwiseArc(m int) topo.Bits {
	a, b, ok := s.boundNeighbours(m)
	if !ok {
		return s.freePins // nothing is bound: m may go anywhere
	}
	n, nMod := s.numPins, len(s.pinOf)
	pa := s.pinOf[a]
	arc := n
	if a != b {
		arc = (s.pinOf[b] - pa + n) % n
	}
	lo, hi := (m-a+nMod)%nMod, arc-(b-m+nMod)%nMod
	if lo > hi {
		return topo.Bits{}
	}
	start, end := pa+lo, pa+hi+1 // pins start..end-1, modulo n
	if start >= n {
		start, end = start-n, end-n
	}
	run := topo.BitsRange(start, end)
	if end > n {
		run = topo.BitsRange(start, n).Or(topo.BitsRange(0, end-n))
	}
	return run.And(s.freePins)
}

// boundNeighbours returns m's nearest bound modules in module order, a
// before it and b after it cyclically (a == b when one other module is
// bound); ok is false when no module other than m is bound.
func (s *solver) boundNeighbours(m int) (a, b int, ok bool) {
	nMod := len(s.pinOf)
	a = m
	for {
		if a = (a + nMod - 1) % nMod; a == m {
			return 0, 0, false
		}
		if s.pinOf[a] >= 0 {
			break
		}
	}
	b = (m + 1) % nMod
	for s.pinOf[b] < 0 {
		b = (b + 1) % nMod
	}
	return a, b, true
}
