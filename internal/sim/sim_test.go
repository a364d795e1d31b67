package sim

import (
	"slices"
	"testing"
	"time"

	"switchsynth/internal/cases"
	"switchsynth/internal/clique"
	"switchsynth/internal/contam"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
	"switchsynth/internal/valve"
)

func solve(t *testing.T, sp *spec.Spec) (*spec.Result, *valve.Analysis) {
	t.Helper()
	res, err := search.Solve(sp, search.Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	va, err := valve.Analyze(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, va
}

func crossingSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "sim-crossing",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    spec.Fixed,
		FixedPins:  map[string]int{"a": 1, "x": 5, "b": 7, "y": 3},
	}
}

func TestSynthesizedPlanSimulatesClean(t *testing.T) {
	res, va := solve(t, crossingSpec())
	rep, err := Run(res, Options{Valves: va})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, e := range rep.Events {
			t.Log(e)
		}
		t.Fatal("verified plan must simulate clean")
	}
	// Every fluid reached something in its set.
	for s, reach := range rep.FluidReach {
		for fluid, verts := range reach {
			if len(verts) == 0 {
				t.Errorf("set %d: fluid %s reached nothing", s, fluid)
			}
		}
	}
}

func TestSharedPressureSequencesStillRouteCorrectly(t *testing.T) {
	// Resolving X states through the merged group sequences must not break
	// routing: the shared control inlet closes a valve in sets where its
	// own status was don't-care.
	res, va := solve(t, crossingSpec())
	cover := clique.MinCover(valve.CompatibilityMatrix(va.EssentialValves()))
	rep, err := Run(res, Options{Valves: va, Pressure: &cover})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, e := range rep.Events {
			t.Log(e)
		}
		t.Fatal("pressure-shared plan must simulate clean")
	}
}

func TestValvelessSpineMisroutesParallelFlows(t *testing.T) {
	// The paper's Figure 4.2(d) argument: without valves along the spine,
	// parallel flows misroute ("some of the fluids from RC1 may go to
	// p_c2"). Simulate two parallel flows on a spine with every valve open.
	sp := &spec.Spec{
		Name:       "sim-spine",
		SwitchPins: 8,
		Modules:    []string{"RC1", "RC2", "p_c1", "p_c2"},
		Flows: []spec.Flow{
			{From: "RC1", To: "p_c1"},
			{From: "RC2", To: "p_c2"},
		},
		Binding: spec.Unfixed,
	}
	spine, err := topo.NewSpine(4)
	if err != nil {
		t.Fatal(err)
	}
	pinOf := contam.SourceFirstBinding(sp, spine)
	routes, err := contam.BaselineRoutes(sp, spine, pinOf)
	if err != nil {
		t.Fatal(err)
	}
	// Execute them in parallel (one set), all valves open.
	for i := range routes {
		routes[i].Set = 0
	}
	res := &spec.Result{
		Spec: sp, Switch: spine, PinOf: pinOf, Routes: routes, NumSets: 1,
	}
	for _, rt := range routes {
		res.UsedEdgeMask = res.UsedEdgeMask.Or(rt.Path.EdgeMask)
	}
	rep, err := Run(res, Options{Valves: nil})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(Misroute) == 0 {
		t.Error("valve-less spine should misroute parallel flows")
	}
	if rep.Count(Collision) == 0 {
		t.Error("parallel spine flows should collide")
	}
}

func TestSpineResidueContamination(t *testing.T) {
	// Sequential conflicting flows over a shared spine leave residue that
	// contaminates the later flow.
	sp := &spec.Spec{
		Name:       "sim-residue",
		SwitchPins: 8,
		Modules:    []string{"M1", "M2", "RC1", "RC2"},
		Flows: []spec.Flow{
			{From: "M1", To: "RC1"},
			{From: "M2", To: "RC2"},
		},
		Conflicts: [][2]int{{0, 1}},
		Binding:   spec.Unfixed,
	}
	spine, err := topo.NewSpine(4)
	if err != nil {
		t.Fatal(err)
	}
	pinOf := contam.SourceFirstBinding(sp, spine)
	routes, err := contam.BaselineRoutes(sp, spine, pinOf)
	if err != nil {
		t.Fatal(err)
	}
	res := &spec.Result{
		Spec: sp, Switch: spine, PinOf: pinOf, Routes: routes, NumSets: 2,
	}
	for _, rt := range routes {
		res.UsedEdgeMask = res.UsedEdgeMask.Or(rt.Path.EdgeMask)
	}
	rep, err := Run(res, Options{Valves: nil})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(Contamination) == 0 {
		t.Error("conflicting flows sharing the spine must contaminate")
	}
}

func TestSabotagedValveCausesContamination(t *testing.T) {
	// Three fluids: a and c conflict and are routed fully apart, but b's
	// channel bridges their regions (harmless: b conflicts with nobody and
	// runs in its own set; the closed valves on the bridge protect a and
	// c). Sabotaging the closed valves open lets fluid a wet c's channels
	// through the bridge, so c later touches a's residue.
	sw, err := topo.NewGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec.Spec{
		Name:       "sabotage",
		SwitchPins: 8,
		Modules:    []string{"a", "x", "b", "y", "c", "z"},
		Flows: []spec.Flow{
			{From: "a", To: "x"},
			{From: "b", To: "y"},
			{From: "c", To: "z"},
		},
		Conflicts: [][2]int{{0, 2}},
		Binding:   spec.Fixed,
		FixedPins: map[string]int{
			"a": 1, "x": 5, // T2 → B1: path T-C-B
			"b": 3, "y": 6, // R2 → L2(BL): bridge path R-C-L-BL
			"c": 7, "z": 0, // L1 → T1: path L-TL
		},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	pathWith := func(inPin, outPin int, mustUse ...string) topo.Path {
		t.Helper()
		for _, p := range sw.AllShortestPaths(sw.PinVertex(inPin), sw.PinVertex(outPin)) {
			ok := true
			for _, name := range mustUse {
				v, _ := sw.VertexByName(name)
				if !p.UsesVertex(v.ID) {
					ok = false
					break
				}
			}
			if ok {
				return p
			}
		}
		t.Fatalf("no shortest path %d→%d through %v", inPin, outPin, mustUse)
		return topo.Path{}
	}
	res := &spec.Result{
		Spec:   sp,
		Switch: sw,
		PinOf:  map[string]int{"a": 1, "x": 5, "b": 3, "y": 6, "c": 7, "z": 0},
		Routes: []spec.Route{
			{Flow: 0, Set: 0, Path: pathWith(1, 5, "C")},
			{Flow: 1, Set: 1, Path: pathWith(3, 6, "C", "L")},
			{Flow: 2, Set: 2, Path: pathWith(7, 0, "L", "TL")},
		},
		NumSets: 3,
	}
	for _, rt := range res.Routes {
		res.UsedEdgeMask = res.UsedEdgeMask.Or(rt.Path.EdgeMask)
	}
	for _, e := range res.UsedEdgeMask.Indices() {
		res.Length += sw.Edges[e].Length
	}
	if err := contam.Verify(res); err != nil {
		t.Fatalf("hand-built plan invalid: %v", err)
	}
	va, err := valve.Analyze(res)
	if err != nil {
		t.Fatal(err)
	}
	// Honest valves: the simulation is clean.
	rep, err := Run(res, Options{Valves: va})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, e := range rep.Events {
			t.Log(e)
		}
		t.Fatal("honest plan should simulate clean")
	}
	// Sabotage: force every closed valve open.
	for i := range va.Valves {
		for s := range va.Valves[i].Sequence {
			if va.Valves[i].Sequence[s] == valve.Closed {
				va.Valves[i].Sequence[s] = valve.Open
			}
		}
	}
	rep, err = Run(res, Options{Valves: va})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(Contamination) == 0 {
		for _, e := range rep.Events {
			t.Log(e)
		}
		t.Error("sabotaged valves must contaminate the conflicting fluids")
	}
}

func TestOverClosedValveCausesUnreached(t *testing.T) {
	res, va := solve(t, crossingSpec())
	// Close every valve in every set: nothing can flow.
	for i := range va.Valves {
		for s := range va.Valves[i].Sequence {
			va.Valves[i].Sequence[s] = valve.Closed
		}
	}
	rep, err := Run(res, Options{Valves: va})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(Unreached) == 0 {
		t.Error("fully closed switch must report unreached outlets")
	}
}

func TestWashFlushPreventsContamination(t *testing.T) {
	// Conflicting flows over shared channels, executed with a wash between
	// the sets: the flush must remove the residue events.
	sp := crossingSpec()
	sp.Conflicts = [][2]int{{0, 1}}
	// The strict synthesizer would refuse (crossing conflict on fixed
	// pins); build the relaxed routing directly as wash scheduling does.
	relaxed := *sp
	relaxed.Conflicts = nil
	res, err := search.Solve(&relaxed, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Spec = sp
	va, err := valve.Analyze(res)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Run(res, Options{Valves: va})
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Count(Contamination) == 0 {
		t.Fatal("without washes the shared centre must contaminate")
	}
	clean, err := Run(res, Options{Valves: va, WashAfter: []bool{true, false}})
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.Count(Contamination); got != 0 {
		t.Errorf("wash flush left %d contamination events", got)
	}
}

func TestApplicationCasesSimulateClean(t *testing.T) {
	// The paper's headline, dynamically: every synthesizable benchmark plan
	// passes the conservative flood simulation.
	for _, c := range []cases.Case{cases.ChIPSw1(), cases.NucleicAcid(), cases.MRNAIsolation(), cases.SchedulingExample()} {
		sp := c.WithBinding(spec.Unfixed)
		if c.Spec.Name == "scheduling-example" {
			sp = c.Spec
		}
		res, err := search.Solve(sp, search.Options{TimeLimit: 30 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		va, err := valve.Analyze(res)
		if err != nil {
			t.Fatal(err)
		}
		cover := clique.MinCover(valve.CompatibilityMatrix(va.EssentialValves()))
		rep, err := Run(res, Options{Valves: va, Pressure: &cover})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range rep.Events {
			t.Errorf("%s: %v", sp.Name, e)
		}
	}
}

func TestRunRejectsMismatchedOrder(t *testing.T) {
	res, _ := solve(t, crossingSpec())
	if _, err := Run(res, Options{SetOrder: []int{0}}); err == nil {
		t.Error("short SetOrder accepted")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: Contamination, Set: 1, Fluid: "a", Other: "b", Where: "C"}
	if s := e.String(); s == "" {
		t.Error("empty event string")
	}
	for _, k := range []EventKind{Misroute, Collision, Unreached, Contamination} {
		if k.String() == "?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestArtificialCampaignSimulatesClean(t *testing.T) {
	// End-to-end invariant over a deterministic batch of random cases:
	// every synthesizable plan, with its analyzed valve states resolved
	// through shared pressure sequences, passes the conservative fluidic
	// simulation.
	for _, c := range cases.Artificial(15, 99) {
		res, err := search.Solve(c.Spec, search.Options{TimeLimit: 10 * time.Second})
		if err != nil {
			continue // infeasible or timed-out random cases are fine
		}
		va, err := valve.Analyze(res)
		if err != nil {
			t.Fatalf("%s: %v", c.Spec.Name, err)
		}
		cover := clique.MinCover(valve.CompatibilityMatrix(va.EssentialValves()))
		rep, err := Run(res, Options{Valves: va, Pressure: &cover})
		if err != nil {
			t.Fatalf("%s: %v", c.Spec.Name, err)
		}
		for _, e := range rep.Events {
			t.Errorf("%s: %v", c.Spec.Name, e)
		}
	}
}

// TestSeed42CampaignsSimulateClean is the oracle for the flow-level
// contamination model: every proven plan of the 90-case crossbar and FPVA
// campaigns at seed 42 simulates clean with its valve analysis and the
// minimum pressure cover, exactly as verifyplan audits it. The five named
// plans pin the model: lifting conflicts to whole inlet modules rejects
// all five, and charging every wetted element to all of an inlet's active
// flows (instead of the flows routed through it) rejects fpva-47 and
// fpva-63.
func TestSeed42CampaignsSimulateClean(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 180 campaign cases")
	}
	named := map[string]bool{
		"artificial-28": false, "artificial-60": false,
		"fpva-47": false, "fpva-63": false, "fpva-82": false,
	}
	proven := 0
	for _, c := range append(cases.Artificial(90, 42), cases.ArtificialFPVA(90, 42)...) {
		// No time limit, so the proven count does not depend on the
		// host's speed; the slowest case takes ~4 s on 2 vCPUs.
		res, err := search.Solve(c.Spec, search.Options{})
		if err != nil {
			continue // infeasible under the case's binding policy
		}
		proven++
		if _, ok := named[c.Spec.Name]; ok {
			named[c.Spec.Name] = true
		}
		va, err := valve.Analyze(res)
		if err != nil {
			t.Fatalf("%s: %v", c.Spec.Name, err)
		}
		cover := clique.MinCover(valve.CompatibilityMatrix(va.EssentialValves()))
		rep, err := Run(res, Options{Valves: va, Pressure: &cover})
		if err != nil {
			t.Fatalf("%s: %v", c.Spec.Name, err)
		}
		for _, e := range rep.Events {
			t.Errorf("%s: %v", c.Spec.Name, e)
		}
	}
	if proven != 158 {
		t.Errorf("%d proven plans, want 158", proven)
	}
	for name, seen := range named {
		if !seen {
			t.Errorf("%s is not among the proven plans", name)
		}
	}
}

// TestContaminationEventOrderIsDeterministic: one flow meets the residue
// of two conflicting inlets at the same junctions; the report must list
// the events in the same order on every run.
func TestContaminationEventOrderIsDeterministic(t *testing.T) {
	sp := &spec.Spec{
		Name:       "sim-order",
		SwitchPins: 8,
		Modules:    []string{"M1", "M2", "M3", "RC1", "RC2", "RC3"},
		Flows: []spec.Flow{
			{From: "M1", To: "RC1"},
			{From: "M2", To: "RC2"},
			{From: "M3", To: "RC3"},
		},
		Conflicts: [][2]int{{0, 2}, {1, 2}},
		Binding:   spec.Unfixed,
	}
	spine, err := topo.NewSpine(len(sp.Modules))
	if err != nil {
		t.Fatal(err)
	}
	pinOf := contam.SourceFirstBinding(sp, spine)
	routes, err := contam.BaselineRoutes(sp, spine, pinOf)
	if err != nil {
		t.Fatal(err)
	}
	res := &spec.Result{Spec: sp, Switch: spine, PinOf: pinOf, Routes: routes, NumSets: len(routes)}
	for _, rt := range routes {
		res.UsedEdgeMask = res.UsedEdgeMask.Or(rt.Path.EdgeMask)
	}
	events := func() []string {
		rep, err := Run(res, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range rep.Events {
			out = append(out, e.String())
		}
		return out
	}
	want := events()
	if !slices.Contains(want, "set 3: contamination of M3 vs M1 at J2") ||
		!slices.Contains(want, "set 3: contamination of M3 vs M2 at J2") {
		t.Fatalf("junction J2 should hold residue of both M1 and M2: %v", want)
	}
	for i := 0; i < 50; i++ {
		if got := events(); !slices.Equal(got, want) {
			t.Fatalf("run %d: events\n%v\nwant\n%v", i, got, want)
		}
	}
}
