package search

import (
	"sync/atomic"

	"switchsynth/internal/contam"
)

// Seed adoption telemetry: how many external seeds (Options.SeedIncumbent)
// were validated and installed as starting incumbents, and how many were
// rejected as stale, infeasible, or mismatched. Rejection is never fatal —
// the solve simply starts cold — but a nonzero rejected count means a
// caller handed out plans that no longer verify.
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
// never trusted: it is relabeled onto this spec (spec.Result.Relabel) on
// this solver's switch geometry, and the relabeled plan must pass the full
// contamination verifier. A recomputed objective that drifts from the
// seed's recorded one beyond float tolerance marks the seed stale (it was
// computed against different geometry or a mutated plan) and rejects it.
// Any failure increments the rejected counter and returns nil.
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
	if len(seed.Routes) != len(s.sp.Flows) {
		return nil
	}
	onSwitch := *seed
	onSwitch.Switch = s.sw
	res, err := onSwitch.Relabel(s.sp)
	if err != nil {
		return nil
	}
	if diff := res.Objective - seed.Objective; diff > 1e-6 || diff < -1e-6 {
		return nil // stale: recorded objective disagrees with the plan
	}
	if err := contam.Verify(res); err != nil {
		return nil
	}
	pinOf := make([]int, len(s.sp.Modules))
	for mi, name := range s.sp.Modules {
		pinOf[mi] = res.PinOf[name]
	}
	return &incumbent{routes: res.Routes, pinOf: pinOf, cost: res.Objective}
}
