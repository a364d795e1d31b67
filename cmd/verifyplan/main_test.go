package main

import (
	"os"
	"path/filepath"
	"testing"

	"switchsynth/internal/cases"
	"switchsynth/internal/planio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

func writePlan(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestVerifyFileAuditsFPVAPlans: the audit pipeline accepts a valid
// FPVA plan in both encodings and rejects a tampered one.
func TestVerifyFileAuditsFPVAPlans(t *testing.T) {
	sp := &spec.Spec{
		Name:     "fpva-audit",
		Topology: spec.TopologyFPVA,
		GridRows: 3,
		GridCols: 3,
		Modules:  []string{"a", "b", "x", "y"},
		Flows:    []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts: [][2]int{
			{0, 1},
		},
		Binding: spec.Unfixed,
	}
	res, err := search.Solve(sp, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	jsonData, err := planio.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := writePlan(t, dir, "fpva.json", jsonData)
	if err := verifyFile(jsonPath, true); err != nil {
		t.Errorf("valid FPVA JSON plan failed the audit: %v", err)
	}

	frame, err := planio.EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	binPath := writePlan(t, dir, "fpva.plan", frame)
	if err := verifyFile(binPath, true); err != nil {
		t.Errorf("valid FPVA binary plan failed the audit: %v", err)
	}

	// Corrupting a route vertex must fail the audit: the rewritten name
	// either breaks path contiguity or the endpoint/binding cross-check.
	tamperedStr := replaceOnce(string(jsonData), `"n0_0"`, `"n2_2"`)
	if tamperedStr == string(jsonData) {
		// The plan may not route through n0_0; corrupt a port instead.
		tamperedStr = replaceOnce(tamperedStr, `"T1"`, `"T3"`)
	}
	tamperedPath := writePlan(t, dir, "tampered.json", []byte(tamperedStr))
	if err := verifyFile(tamperedPath, true); err == nil {
		t.Error("tampered FPVA plan passed the audit")
	}

	// Directory audit picks up all three files (two good, one bad).
	paths, err := expandArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Errorf("directory audit found %d plans, want 3", len(paths))
	}
}

// TestVerifyFileCrossbarRegression: the crossbar audit path still works.
func TestVerifyFileCrossbarRegression(t *testing.T) {
	sp := &spec.Spec{
		Name:       "xbar-audit",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    spec.Unfixed,
	}
	res, err := search.Solve(sp, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := planio.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	p := writePlan(t, t.TempDir(), "xbar.json", data)
	if err := verifyFile(p, true); err != nil {
		t.Errorf("valid crossbar plan failed the audit: %v", err)
	}
}

// TestVerifyFileRejectsGappedSetLabels: a plan whose one set is labeled
// 1 instead of 0 keeps its set count but indexes past it; the audit must
// refuse it with an error before any analysis indexes sets by label.
func TestVerifyFileRejectsGappedSetLabels(t *testing.T) {
	sp := &spec.Spec{
		Name:       "xbar-gapped",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    spec.Unfixed,
	}
	res, err := search.Solve(sp, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSets != 1 {
		t.Fatalf("NumSets = %d, want 1 (the gap must stay below MaxSets)", res.NumSets)
	}
	for i := range res.Routes {
		res.Routes[i].Set = 1
	}
	frame, err := planio.EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	p := writePlan(t, t.TempDir(), "gapped.plan", frame)
	if err := verifyFile(p, true); err == nil {
		t.Error("plan with gapped set labels passed the audit")
	}
}

// TestVerifyFileAcceptsFlowLevelConflicts: five seed-42 campaign plans
// route a flow over the residue of a sibling of a conflicting flow — the
// same inlet, but not the conflicting flow itself. Contamination is a
// relation between flows (constraint 3.3), so the audit accepts them.
func TestVerifyFileAcceptsFlowLevelConflicts(t *testing.T) {
	named := map[string]bool{
		"artificial-28": true, "artificial-60": true,
		"fpva-47": true, "fpva-63": true, "fpva-82": true,
	}
	dir := t.TempDir()
	for _, c := range append(cases.Artificial(90, 42), cases.ArtificialFPVA(90, 42)...) {
		if !named[c.Spec.Name] {
			continue
		}
		res, err := search.Solve(c.Spec, search.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Spec.Name, err)
		}
		frame, err := planio.EncodeBinary(res)
		if err != nil {
			t.Fatal(err)
		}
		p := writePlan(t, dir, c.Spec.Name+".plan", frame)
		if err := verifyFile(p, true); err != nil {
			t.Errorf("%s: %v", c.Spec.Name, err)
		}
		delete(named, c.Spec.Name)
	}
	if len(named) > 0 {
		t.Errorf("cases not generated: %v", named)
	}
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}
