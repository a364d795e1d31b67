package model

import (
	"testing"

	"switchsynth/internal/cases"
)

// TestMILPOracleOnCampaignSpecs keeps the exact MILP encoding as an
// independent oracle for the branch and bound on the seed-7 campaign
// specs the CI determinism gates solve: every crossbar and FPVA case of
// those campaigns that the MILP proves within 2 s (each takes well under
// half a second). On each one the two engines must agree on
// feasibility and, when feasible, on the optimal cost within 1e-6.
func TestMILPOracleOnCampaignSpecs(t *testing.T) {
	want := map[string]bool{
		"artificial-00": true, "artificial-03": true, "artificial-06": true,
		"artificial-12": true, "artificial-15": true, "artificial-18": true,
		"artificial-21": true, "artificial-24": true, "artificial-27": true,
		"fpva-00": true, "fpva-03": true, "fpva-06": true, "fpva-09": true,
	}
	found := 0
	for _, c := range append(cases.Artificial(30, 7), cases.ArtificialFPVA(12, 7)...) {
		if !want[c.Spec.Name] {
			continue
		}
		found++
		t.Run(c.Spec.Name, func(t *testing.T) { crossCheck(t, c.Spec) })
	}
	if found != len(want) {
		t.Fatalf("found %d of the %d oracle cases; the case generators changed", found, len(want))
	}
}
