package search

import (
	"time"

	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// GreedyEngine names the engine recorded on plans produced by the greedy
// first-fit fallback.
const GreedyEngine = "search+greedy"

// GreedyFirstFit synthesizes the first feasible plan the DFS encounters,
// without optimizing: module→pin candidates, paths and sets are still
// tried in the deterministic shortest-first order, but the search stops
// at the first feasible leaf. The returned plan satisfies every
// feasibility rule (it is produced by the same placement machinery as
// the exact search, so it passes contam.Verify) and is tagged
// Degraded with Proven == false.
//
// An exhausted tree here is still a genuine infeasibility proof, although
// the forward-checking bound cuts nodes before any incumbent exists:
// with no incumbent the cutoff is +inf, and the bound reaches +inf only
// at a node where some unplaced flow has no admissible candidate, so it
// cuts only subtrees that contain no leaf. GreedyFirstFit returns
// *spec.ErrNoSolution exactly when no plan exists.
func GreedyFirstFit(sp *spec.Spec, opts Options) (*spec.Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sw, pt, err := sp.SharedTopology()
	if err != nil {
		return nil, err
	}
	return GreedyFirstFitOn(sp, sw, pt, opts)
}

// GreedyFirstFitOn is GreedyFirstFit on a prebuilt switch and path table.
func GreedyFirstFitOn(sp *spec.Spec, sw *topo.Switch, pt *topo.PathTable, opts Options) (*spec.Result, error) {
	if err := matchTopology(sp, sw); err != nil {
		return nil, err
	}
	s := newSolver(sp, sw, pt, opts)
	s.stopAtFirst = true
	res, err := s.run()
	if err != nil {
		return nil, err
	}
	res.Engine = GreedyEngine
	return res, nil
}

// greedyOn runs the deadline-fallback flavor of the first-fit search: a
// fresh solver with its own budget, deliberately detached from the
// caller's already-expired deadline and context.
func greedyOn(sp *spec.Spec, sw *topo.Switch, pt *topo.PathTable, opts Options, budget time.Duration) (*spec.Result, error) {
	gopts := Options{
		TimeLimit:               budget,
		GreedyBudget:            -1, // the fallback has no fallback
		DisableSymmetryBreaking: opts.DisableSymmetryBreaking,
	}
	return GreedyFirstFitOn(sp, sw, pt, gopts)
}
