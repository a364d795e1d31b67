package switchsynth

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"switchsynth/internal/cases"
)

func demoSpec() *Spec {
	return &Spec{
		Name:       "demo",
		SwitchPins: 8,
		Modules:    []string{"sample", "buffer", "mix1", "mix2"},
		Flows: []Flow{
			{From: "sample", To: "mix1"},
			{From: "buffer", To: "mix2"},
		},
		Conflicts: [][2]int{{0, 1}},
		Binding:   Unfixed,
	}
}

func TestSynthesizeEndToEnd(t *testing.T) {
	syn, err := Synthesize(demoSpec(), Options{PressureSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(syn.Result); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if syn.Length <= 0 || syn.NumSets < 1 {
		t.Errorf("degenerate plan: L=%v sets=%d", syn.Length, syn.NumSets)
	}
	if syn.Pressure == nil {
		t.Fatal("pressure sharing requested but missing")
	}
	if syn.ControlInlets() > syn.NumValves() {
		t.Errorf("pressure sharing increased inlets: %d > %d", syn.ControlInlets(), syn.NumValves())
	}
	sum := syn.Summary()
	for _, want := range []string{"demo", "8-pin", "unfixed", "L=", "#v=", "#s="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
}

func TestSynthesizeInvalidSpec(t *testing.T) {
	sp := demoSpec()
	sp.SwitchPins = 9
	if _, err := Synthesize(sp, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSynthesizeNoSolutionError(t *testing.T) {
	sp := &Spec{
		Name:       "nosol",
		SwitchPins: 8,
		Modules:    []string{"in1", "in2", "out1", "out2"},
		Flows:      []Flow{{From: "in1", To: "out1"}, {From: "in2", To: "out2"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    Fixed,
		FixedPins:  map[string]int{"in1": 0, "out1": 2, "in2": 1, "out2": 3},
	}
	_, err := Synthesize(sp, Options{})
	var nosol *ErrNoSolution
	if !errors.As(err, &nosol) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestSVGAndASCIIRender(t *testing.T) {
	syn, err := Synthesize(demoSpec(), Options{PressureSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	svg := syn.SVG()
	if !strings.HasPrefix(svg, "<svg ") || !strings.Contains(svg, "</svg>") {
		t.Error("malformed SVG envelope")
	}
	for _, want := range []string{"circle", "line", "flow set 1", "sample"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	art := syn.ASCII()
	if !strings.Contains(art, "#") || !strings.Contains(art, "@") {
		t.Errorf("ASCII missing junctions or bound pins:\n%s", art)
	}
}

func TestNewSwitch(t *testing.T) {
	sw, err := NewSwitch(12)
	if err != nil {
		t.Fatal(err)
	}
	if sw.NumPins != 12 {
		t.Errorf("pins = %d", sw.NumPins)
	}
	if _, err := NewSwitch(9); err == nil {
		t.Error("bad size accepted")
	}
}

func TestScalableRenderVariant(t *testing.T) {
	sp := demoSpec()
	sp.Scalable = true
	syn, err := Synthesize(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(syn.SVG(), "polyline") {
		t.Error("scalable variant should draw horizontal pin leads")
	}
}

func TestSpineBaseline(t *testing.T) {
	rep, err := SpineBaseline(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PollutedPairs == 0 {
		t.Error("conflicting flows on a spine should pollute")
	}
	if !strings.Contains(rep.SVG, "</svg>") {
		t.Error("baseline SVG malformed")
	}
	bad := demoSpec()
	bad.SwitchPins = 9
	if _, err := SpineBaseline(bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSpineBaselinePollutesPaperCases(t *testing.T) {
	for _, c := range []cases.Case{cases.NucleicAcid(), cases.MRNAIsolation()} {
		rep, err := SpineBaseline(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PollutedPairs == 0 {
			t.Errorf("%s: spine baseline should pollute conflicting pairs", c.Spec.Name)
		}
		if !strings.Contains(rep.SVG, "</svg>") {
			t.Errorf("%s: baseline SVG malformed", c.Spec.Name)
		}
	}
}

// TestSpineFiguresMatchResults renders the spine baselines of Figure
// 4.2(c)(d) and compares them byte for byte with the committed figures,
// which `go run ./cmd/experiments -only figures -out results` rewrites.
func TestSpineFiguresMatchResults(t *testing.T) {
	for _, c := range []cases.Case{cases.ChIPSw1(), cases.MRNAIsolation(), cases.NucleicAcid()} {
		rep, err := SpineBaseline(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join("results", "fig4.2-spine-"+c.Spec.Name+".svg")
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SVG != string(want) {
			t.Errorf("%s differs from the rendered spine baseline (%d polluted pairs)", name, rep.PollutedPairs)
		}
	}
}

func TestSynthesizeWithControlRouting(t *testing.T) {
	sp := &Spec{
		Name:       "ctrl-e2e",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    Fixed,
		FixedPins:  map[string]int{"a": 1, "x": 5, "b": 7, "y": 3},
	}
	syn, err := Synthesize(sp, Options{PressureSharing: true, RouteControl: true})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Control == nil {
		t.Fatal("control plan missing")
	}
	if len(syn.Control.Nets) != syn.ControlInlets() {
		t.Errorf("nets = %d, control inlets = %d", len(syn.Control.Nets), syn.ControlInlets())
	}
	if !strings.Contains(syn.SVG(), "control inlet") {
		t.Error("SVG missing the control overlay")
	}
}

func TestSynthesisSimulatesClean(t *testing.T) {
	syn, err := Synthesize(demoSpec(), Options{PressureSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := syn.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, e := range rep.Events {
			t.Log(e)
		}
		t.Fatal("verified synthesis must simulate clean")
	}
}

func TestSynthesizeWithWashesPublicAPI(t *testing.T) {
	sp := &Spec{
		Name:       "wash-api",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    Fixed,
		FixedPins:  map[string]int{"a": 1, "x": 5, "b": 7, "y": 3},
	}
	plan, err := SynthesizeWithWashes(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumWashes != 1 {
		t.Errorf("washes = %d, want 1", plan.NumWashes)
	}
	bad := *sp
	bad.SwitchPins = 9
	if _, err := SynthesizeWithWashes(&bad, Options{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestControlInletsWithoutPressureSharing(t *testing.T) {
	sp := &Spec{
		Name:       "no-pressure",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    Fixed,
		FixedPins:  map[string]int{"a": 1, "x": 5, "b": 7, "y": 3},
	}
	syn, err := Synthesize(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Without pressure sharing, every essential valve needs its own inlet.
	if syn.ControlInlets() != syn.NumValves() {
		t.Errorf("inlets = %d, valves = %d", syn.ControlInlets(), syn.NumValves())
	}
}

func TestAlphaDominantObjectivePrefersFewerSets(t *testing.T) {
	// With α ≫ β the optimizer must avoid opening flow sets even at the
	// cost of longer, disjoint channels; with the paper's defaults (β
	// dominates) the same case may prefer shorter shared channels.
	sp := &Spec{
		Name:       "alpha-dom",
		SwitchPins: 12,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    Unfixed,
		Alpha:      1e6,
		Beta:       1,
	}
	syn, err := Synthesize(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if syn.NumSets != 1 {
		t.Errorf("α-dominant objective produced %d sets, want 1", syn.NumSets)
	}
}

func TestMaxSetsIsRespected(t *testing.T) {
	sp := &Spec{
		Name:       "maxsets",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Binding:    Fixed,
		FixedPins:  map[string]int{"a": 1, "x": 5, "b": 7, "y": 3},
		MaxSets:    1,
	}
	if _, err := Synthesize(sp, Options{}); err == nil {
		t.Error("crossing flows with MaxSets=1 should be infeasible")
	}
}

func TestTwentyFourPinEndToEnd(t *testing.T) {
	sp := &Spec{
		Name:       "24pin",
		SwitchPins: 24,
		Modules:    []string{"in", "o1", "o2", "o3"},
		Flows: []Flow{
			{From: "in", To: "o1"},
			{From: "in", To: "o2"},
			{From: "in", To: "o3"},
		},
		Binding: Unfixed,
	}
	syn, err := Synthesize(sp, Options{TimeLimit: 30 * time.Second, PressureSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(syn.Result); err != nil {
		t.Fatal(err)
	}
	rep, err := syn.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Error("24-pin plan simulated dirty")
	}
}

func TestSynthesizeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SynthesizeContext(ctx, demoSpec(), Options{})
	if !errors.Is(err, &ErrTimeout{}) {
		t.Errorf("err = %v, want *ErrTimeout", err)
	}
	var te *ErrTimeout
	if !errors.As(err, &te) || te.SpecName != "demo" {
		t.Errorf("spec name not carried: %+v", te)
	}
}

func TestCanonicalKeyPublicAPI(t *testing.T) {
	k1, err := CanonicalKey(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	renamed := demoSpec()
	renamed.Name = "something-else"
	k2, err := CanonicalKey(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("renamed spec changed the canonical key")
	}
	bad := demoSpec()
	bad.SwitchPins = 9
	if _, err := CanonicalKey(bad); err == nil {
		t.Error("invalid spec got a canonical key")
	}
}
