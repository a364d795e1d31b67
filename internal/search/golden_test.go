package search

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"switchsynth/internal/cases"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// goldenNodes freezes the search tree: the number of nodes the
// sequential DFS visits on each instance, recorded before the presorted
// candidate tables, the LIFO undo log and the incremental clockwise check
// replaced per-node sorting, unplace rescans and full clockwise rechecks.
// Those are bookkeeping changes, so every count must stay exactly the
// same; a change that means to alter the tree must re-record them.
//
// The instances are the Table 4.1/4.3 cases under every binding policy
// and the first 30 cases of `casegen -n 90 -seed 42` and `casegen -fpva
// -n 90 -seed 42`, keeping those that solve in at most 300k nodes so the
// suite stays fast under the race detector.
var goldenNodes = map[string]int64{
	"chip-sw1/fixed":           76,
	"chip-sw1/clockwise":       38974,
	"nucleic-acid/fixed":       4,
	"nucleic-acid/clockwise":   40,
	"nucleic-acid/unfixed":     6486,
	"mrna-isolation/fixed":     5,
	"mrna-isolation/clockwise": 26,
	"chip-sw2/fixed":           24801,
	"kinase-sw1/fixed":         11,
	"kinase-sw1/clockwise":     120,
	"kinase-sw1/unfixed":       127,
	"kinase-sw2/fixed":         229,
	"kinase-sw2/clockwise":     5002,
	"kinase-sw2/unfixed":       77395,
	"artificial-00":            31,
	"artificial-01":            21084,
	"artificial-02":            16904,
	"artificial-03":            4,
	"artificial-04":            107,
	"artificial-05":            55215,
	"artificial-06":            24,
	"artificial-07":            6926,
	"artificial-08":            77246,
	"artificial-09":            16,
	"artificial-10":            131,
	"artificial-11":            1243,
	"artificial-12":            2,
	"artificial-13":            1822,
	"artificial-14":            4346,
	"artificial-15":            187,
	"artificial-16":            255,
	"artificial-17":            250527,
	"artificial-18":            25,
	"artificial-19":            2403,
	"artificial-20":            30,
	"artificial-21":            213,
	"artificial-22":            17,
	"artificial-24":            8,
	"artificial-25":            117,
	"artificial-26":            47750,
	"artificial-27":            7,
	"artificial-28":            282,
	"fpva-00":                  48,
	"fpva-01":                  259,
	"fpva-03":                  2,
	"fpva-04":                  1407,
	"fpva-05":                  2989,
	"fpva-06":                  2,
	"fpva-07":                  5356,
	"fpva-08":                  243834,
	"fpva-09":                  2,
	"fpva-10":                  62802,
	"fpva-12":                  6,
	"fpva-13":                  111,
	"fpva-14":                  43317,
	"fpva-15":                  14,
	"fpva-16":                  4216,
	"fpva-17":                  20573,
	"fpva-18":                  26,
	"fpva-19":                  125,
	"fpva-20":                  1832,
	"fpva-21":                  3,
	"fpva-22":                  9971,
	"fpva-23":                  117,
	"fpva-24":                  4,
	"fpva-25":                  448,
	"fpva-27":                  437,
	"fpva-28":                  570,
	"fpva-29":                  37,
}

// goldenSpecs returns the frozen instance set keyed by name.
func goldenSpecs() map[string]*spec.Spec {
	out := map[string]*spec.Spec{}
	for _, c := range append(cases.Table41(), cases.Table43()...) {
		for _, b := range []spec.BindingPolicy{spec.Fixed, spec.Clockwise, spec.Unfixed} {
			sp := c.WithBinding(b)
			sp.Name = fmt.Sprintf("%s/%s", c.Spec.Name, b)
			out[sp.Name] = sp
		}
	}
	for _, c := range append(cases.Artificial(90, 42)[:30], cases.ArtificialFPVA(90, 42)[:30]...) {
		out[c.Spec.Name] = c.Spec
	}
	return out
}

// TestGoldenTree checks that the sequential search visits exactly the
// frozen node count on every golden instance and that the plan it emits
// is byte-identical at 1, 2 and 8 workers.
func TestGoldenTree(t *testing.T) {
	specs := goldenSpecs()
	for name, want := range goldenNodes {
		sp := specs[name]
		if sp == nil {
			t.Fatalf("golden instance %q is not in the instance set", name)
		}
		sw, pt, err := sp.SharedTopology()
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(sp, sw, pt, Options{})
		seqRes, seqErr := s.run()
		if s.nodes != want {
			t.Errorf("%s: sequential search visited %d nodes, golden tree has %d", name, s.nodes, want)
		}
		seqPlan := goldenPlan(t, name, seqRes, seqErr)
		for _, w := range []int{1, 2, 8} {
			res, err := Solve(sp, Options{Workers: w})
			if got := goldenPlan(t, name, res, err); !bytes.Equal(got, seqPlan) {
				t.Errorf("%s: plan at %d workers differs from the sequential plan", name, w)
			}
		}
	}
}

// goldenPlan renders a solve outcome as comparable bytes: the binary plan
// frame of a proven plan, or a marker for a proven infeasibility.
func goldenPlan(t *testing.T, name string, res *spec.Result, err error) []byte {
	t.Helper()
	var nosol *spec.ErrNoSolution
	switch {
	case errors.As(err, &nosol):
		return []byte("no-solution")
	case err != nil:
		t.Fatalf("%s: %v", name, err)
	case !res.Proven:
		t.Fatalf("%s: plan not proven", name)
	}
	b, err := planio.EncodeBinary(res)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	return b
}
