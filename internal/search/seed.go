package search

import (
	"sync/atomic"

	"switchsynth/internal/contam"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// Seed adoption telemetry: how many external seeds (Options.SeedIncumbent)
// were validated and installed as starting incumbents, and how many were
// rejected as stale, infeasible, or mismatched. Rejection is never fatal —
// the solve simply starts cold — but a nonzero rejected count means the
// similarity index handed out plans that no longer verify.
var (
	seedAdopted  atomic.Int64
	seedRejected atomic.Int64
)

// SeedCounters returns the process-lifetime seed adoption counters.
func SeedCounters() (adopted, rejected int64) {
	return seedAdopted.Load(), seedRejected.Load()
}

// adoptSeed validates Options.SeedIncumbent against the solver's spec and,
// if it survives, returns it as an incumbent ready to install. The seed is
// never trusted: flows are re-indexed onto this spec by (From, To) — legal
// because the outlet-once rule makes To unique per flow — the pin binding
// is rebuilt by module name, sets are renumbered, length and objective are
// recomputed from this solver's switch geometry, and the reconstructed plan
// must pass the full contamination verifier. A recomputed objective that
// drifts from the seed's recorded one beyond float tolerance marks the
// seed stale (it was computed against different geometry or a mutated
// plan) and rejects it. Any failure increments the rejected counter and
// returns nil.
func (s *solver) adoptSeed() *incumbent {
	inc := s.buildSeedIncumbent()
	if inc == nil {
		seedRejected.Add(1)
		return nil
	}
	seedAdopted.Add(1)
	return inc
}

func (s *solver) buildSeedIncumbent() *incumbent {
	seed := s.opts.SeedIncumbent
	if seed == nil || seed.Spec == nil {
		return nil
	}
	// The seed must come from the same substrate: equal port counts are
	// not enough, since an FPVA grid can expose the same port count as a
	// crossbar (2×2 → 8), and its paths would reference foreign geometry.
	if seed.Spec.SwitchPins != s.sp.SwitchPins ||
		seed.Spec.IsFPVA() != s.sp.IsFPVA() ||
		seed.Spec.GridRows != s.sp.GridRows || seed.Spec.GridCols != s.sp.GridCols {
		return nil
	}
	nFlows := len(s.sp.Flows)
	if len(seed.Routes) == 0 || len(seed.Routes) != nFlows {
		return nil
	}

	// Re-index seed routes onto this spec's flow order. The outlet-once
	// rule guarantees To is unique per flow, so (From, To) → index is a
	// bijection when the flow sets match.
	byTo := make(map[string]int, nFlows)
	for fi, f := range s.sp.Flows {
		byTo[f.To] = fi
	}
	routes := make([]spec.Route, nFlows)
	covered := make([]bool, nFlows)
	for _, rt := range seed.Routes {
		if rt.Flow < 0 || rt.Flow >= len(seed.Spec.Flows) || rt.Set < 0 {
			return nil
		}
		sf := seed.Spec.Flows[rt.Flow]
		fi, ok := byTo[sf.To]
		if !ok || s.sp.Flows[fi].From != sf.From || covered[fi] {
			return nil
		}
		covered[fi] = true
		routes[fi] = spec.Route{Flow: fi, Set: rt.Set, Path: rt.Path}
	}

	// Rebuild the pin binding by module name; every module of this spec
	// must be bound in the seed. Pin validity, distinctness, fixed-pin
	// agreement, and clockwise winding are all checked by the verifier.
	pinOf := make([]int, len(s.sp.Modules))
	pins := make(map[string]int, len(s.sp.Modules))
	for mi, name := range s.sp.Modules {
		p, ok := seed.PinOf[name]
		if !ok {
			return nil
		}
		pinOf[mi] = p
		pins[name] = p
	}

	// Recompute every derived quantity from this solver's geometry; the
	// seed's own numbers are only consulted for the staleness check.
	var edges = routes[0].Path.EdgeMask
	for _, rt := range routes[1:] {
		edges = edges.Or(rt.Path.EdgeMask)
	}
	res := &spec.Result{
		Spec:         s.sp,
		Switch:       s.sw,
		PinOf:        pins,
		Routes:       routes,
		UsedEdgeMask: edges,
	}
	renumberSets(res)
	if res.NumSets > s.maxSets {
		return nil
	}
	res.Length = s.edgeMaskLen(&edges, &topo.Bits{})
	cost := s.costOf(res.NumSets, res.Length)
	res.Objective = cost
	if diff := cost - seed.Objective; diff > 1e-6 || diff < -1e-6 {
		return nil // stale: recorded objective disagrees with the plan
	}
	if err := contam.Verify(res); err != nil {
		return nil
	}
	return &incumbent{
		routes: routes,
		pinOf:  pinOf,
		cost:   cost,
		sets:   res.NumSets,
		length: res.Length,
		edges:  edges,
	}
}
