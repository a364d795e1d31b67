package contam_test

import (
	"strings"
	"testing"

	"switchsynth/internal/contam"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

func conflictSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "conf",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Unfixed,
	}
}

func solved(t *testing.T, sp *spec.Spec) *spec.Result {
	t.Helper()
	res, err := search.Solve(sp, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifyAcceptsValidPlan(t *testing.T) {
	if err := contam.Verify(solved(t, conflictSpec())); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	tests := []struct {
		name   string
		tamper func(*spec.Result)
		want   string
	}{
		{"missing route", func(r *spec.Result) { r.Routes = r.Routes[:1] }, "routes for"},
		{"wrong flow id", func(r *spec.Result) { r.Routes[0].Flow = 1 }, "is for flow"},
		{"bad set", func(r *spec.Result) { r.Routes[0].Set = 99 }, "beyond MaxSets"},
		{"wrong set count", func(r *spec.Result) { r.NumSets++ }, "sets in use"},
		{"gapped set labels", gapSets, "outside [0,"},
		{"edge mask tampered", func(r *spec.Result) { r.UsedEdgeMask.Set(63) }, "mask mismatch"},
		{"length tampered", func(r *spec.Result) { r.Length += 1 }, "used channels sum"},
		{"unbound module", func(r *spec.Result) { delete(r.PinOf, "a") }, "unbound"},
		{"pin collision", func(r *spec.Result) { r.PinOf["a"] = r.PinOf["b"] }, "share pin"},
		{"pin out of range", func(r *spec.Result) { r.PinOf["a"] = 99 }, "out of range"},
		{"swap paths", func(r *spec.Result) {
			r.Routes[0].Path, r.Routes[1].Path = r.Routes[1].Path, r.Routes[0].Path
		}, "does not start"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res := solved(t, conflictSpec())
			tc.tamper(res)
			err := contam.Verify(res)
			if err == nil {
				t.Fatal("tampered plan accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// gapSets moves the flows of the last set to label NumSets: the set count
// is unchanged, but the labels leave a gap below it.
func gapSets(r *spec.Result) {
	for i := range r.Routes {
		if r.Routes[i].Set == r.NumSets-1 {
			r.Routes[i].Set = r.NumSets
		}
	}
}

func TestVerifyDetectsConflictViolation(t *testing.T) {
	// Re-route both conflicting flows over the same path's switch region:
	// craft a plan where flow 1 reuses flow 0's vertices.
	res := solved(t, conflictSpec())
	sw := res.Switch
	// Bind both flows' modules to the same pins' paths: replace route 1 with
	// a path that shares vertices with route 0.
	p0 := res.Routes[0].Path
	in1 := sw.PinVertex(res.PinOf[res.Spec.Flows[1].From])
	out1 := sw.PinVertex(res.PinOf[res.Spec.Flows[1].To])
	var overlapping *topo.Path
	for _, p := range sw.AllShortestPaths(in1, out1) {
		if p.VertMask.Intersects(p0.VertMask) {
			pp := p
			overlapping = &pp
			break
		}
	}
	if overlapping == nil {
		t.Skip("no overlapping alternative path for this binding")
	}
	res.Routes[1].Path = *overlapping
	res.UsedEdgeMask = p0.EdgeMask.Or(overlapping.EdgeMask)
	res.Length = 0
	for _, e := range res.UsedEdgeMask.Indices() {
		res.Length += sw.Edges[e].Length
	}
	err := contam.Verify(res)
	if err == nil || !strings.Contains(err.Error(), "share a node") {
		t.Fatalf("err = %v, want conflicting-share error", err)
	}
}

func TestVerifyClockwiseViolation(t *testing.T) {
	sp := &spec.Spec{
		Name:       "cw",
		SwitchPins: 8,
		Modules:    []string{"m1", "m2", "m3", "m4"},
		Flows:      []spec.Flow{{From: "m1", To: "m2"}, {From: "m3", To: "m4"}},
		Binding:    spec.Clockwise,
	}
	res := solved(t, sp)
	if err := contam.Verify(res); err != nil {
		t.Fatalf("valid clockwise plan rejected: %v", err)
	}
	// Swap two modules' pins to break the cyclic order. m1→m2 and m3→m4 in
	// order; swapping m2 and m4 makes the sequence non-cyclic.
	res.PinOf["m2"], res.PinOf["m4"] = res.PinOf["m4"], res.PinOf["m2"]
	err := contam.Verify(res)
	if err == nil {
		t.Fatal("broken clockwise order accepted")
	}
	// Either the cyclic check or the path-endpoint check must fire.
	if !strings.Contains(err.Error(), "clockwise") && !strings.Contains(err.Error(), "does not") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSpineBaselineIsPolluted(t *testing.T) {
	// The nucleic-acid-style conflicts on a Columba spine: conflicting
	// flows inevitably share spine segments.
	sp := &spec.Spec{
		Name:       "spine-base",
		SwitchPins: 8,
		Modules:    []string{"M1", "M2", "M3", "RC1", "RC2", "RC3"},
		Flows: []spec.Flow{
			{From: "M1", To: "RC1"},
			{From: "M2", To: "RC2"},
			{From: "M3", To: "RC3"},
		},
		Conflicts: [][2]int{{0, 1}, {0, 2}, {1, 2}},
		Binding:   spec.Unfixed,
	}
	spine, err := topo.NewSpine(6)
	if err != nil {
		t.Fatal(err)
	}
	pinOf := contam.SequentialBinding(sp, spine)
	routes, err := contam.BaselineRoutes(sp, spine, pinOf)
	if err != nil {
		t.Fatal(err)
	}
	rep := contam.Analyze(sp, spine, routes)
	if rep.Clean() {
		t.Fatal("spine baseline should be polluted")
	}
	if len(rep.PollutedPairs) == 0 {
		t.Error("no polluted conflict pairs reported")
	}
	if len(rep.ContaminatedVertices) == 0 {
		t.Error("no contaminated junctions reported")
	}
}

func TestGridSynthesisIsCleanWhereSpineIsNot(t *testing.T) {
	// The same conflicts on the paper's switch synthesize contamination-free.
	sp := &spec.Spec{
		Name:       "grid-clean",
		SwitchPins: 8,
		Modules:    []string{"M1", "M2", "M3", "RC1", "RC2", "RC3"},
		Flows: []spec.Flow{
			{From: "M1", To: "RC1"},
			{From: "M2", To: "RC2"},
			{From: "M3", To: "RC3"},
		},
		Conflicts: [][2]int{{0, 1}, {0, 2}, {1, 2}},
		Binding:   spec.Unfixed,
	}
	res := solved(t, sp)
	rep := contam.Analyze(sp, res.Switch, res.Routes)
	if !rep.Clean() {
		t.Fatalf("synthesized plan polluted: %+v", rep)
	}
}

func TestBaselineRoutesErrors(t *testing.T) {
	sp := &spec.Spec{
		Name:       "x",
		SwitchPins: 8,
		Modules:    []string{"a", "b"},
		Flows:      []spec.Flow{{From: "a", To: "b"}},
	}
	spine, _ := topo.NewSpine(4)
	if _, err := contam.BaselineRoutes(sp, spine, map[string]int{"a": 0}); err == nil {
		t.Error("missing binding accepted")
	}
}

func TestSequentialBinding(t *testing.T) {
	sp := &spec.Spec{Modules: []string{"a", "b", "c"}}
	spine, _ := topo.NewSpine(4)
	pinOf := contam.SequentialBinding(sp, spine)
	if pinOf["a"] != 0 || pinOf["b"] != 1 || pinOf["c"] != 2 {
		t.Errorf("binding = %v", pinOf)
	}
}

func TestSourceFirstBinding(t *testing.T) {
	sp := &spec.Spec{
		Modules: []string{"out1", "in1", "out2", "in2"},
		Flows:   []spec.Flow{{From: "in1", To: "out1"}, {From: "in2", To: "out2"}},
	}
	spine, _ := topo.NewSpine(4)
	pinOf := contam.SourceFirstBinding(sp, spine)
	if pinOf["in1"] != 0 || pinOf["in2"] != 1 {
		t.Errorf("sources not clustered first: %v", pinOf)
	}
	if pinOf["out1"] != 2 || pinOf["out2"] != 3 {
		t.Errorf("destinations not after sources: %v", pinOf)
	}
}

func TestSpineBaselineChIPLikePollution(t *testing.T) {
	// Inlet-clustered spine binding: the two conflicting sample streams of
	// a ChIP-like case share the spine stretch between inlets and mixers.
	sp := &spec.Spec{
		Name:       "chip-like",
		SwitchPins: 12,
		Modules:    []string{"i10", "M1", "i11", "M2", "M3"},
		Flows: []spec.Flow{
			{From: "i10", To: "M1"},
			{From: "i11", To: "M2"},
			{From: "i11", To: "M3"},
		},
		Conflicts: [][2]int{{0, 1}, {0, 2}},
	}
	spine, err := topo.NewSpine(len(sp.Modules))
	if err != nil {
		t.Fatal(err)
	}
	routes, err := contam.BaselineRoutes(sp, spine, contam.SourceFirstBinding(sp, spine))
	if err != nil {
		t.Fatal(err)
	}
	rep := contam.Analyze(sp, spine, routes)
	if len(rep.PollutedPairs) == 0 {
		t.Error("inlet-clustered spine should pollute the ChIP-like conflicts")
	}
}
