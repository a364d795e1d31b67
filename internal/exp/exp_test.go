package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"switchsynth/internal/report"
)

var fast = Config{TimeLimit: 8 * time.Second}

func TestRunTable41ShapeMatchesPaper(t *testing.T) {
	rows, plans := RunTable41(fast)
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 cases × 3 policies)", len(rows))
	}
	if err := VerifyPlans(plans); err != nil {
		t.Fatal(err)
	}
	// Paper shape: ChIP solvable everywhere; the other two only unfixed.
	for _, r := range rows {
		wantNoSolution := r.App != "chip-sw1" && r.Binding != "unfixed"
		if r.NoSolution != wantNoSolution {
			t.Errorf("%s/%s: NoSolution=%v, want %v", r.App, r.Binding, r.NoSolution, wantNoSolution)
		}
		if !r.NoSolution && !r.Timeout && r.L <= 0 {
			t.Errorf("%s/%s: empty solution row", r.App, r.Binding)
		}
	}
}

func TestRunTable42MatchesPaperShape(t *testing.T) {
	ex, syn, err := RunTable42(fast)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumSets != 3 {
		t.Errorf("sets = %d, want 3", ex.NumSets)
	}
	// The paper reports 15 valves and 21.2 mm on this example; the
	// reconstruction must land in the same regime.
	if ex.NumValves < 10 || ex.NumValves > 20 {
		t.Errorf("#valves = %d, want ≈15", ex.NumValves)
	}
	if ex.L < 15 || ex.L > 27 {
		t.Errorf("L = %.1f, want ≈21", ex.L)
	}
	if ex.ControlInlets <= 0 || ex.ControlInlets > ex.NumValves {
		t.Errorf("control inlets = %d with %d valves", ex.ControlInlets, ex.NumValves)
	}
	if len(ex.ScheduledFlows) != ex.NumSets {
		t.Errorf("scheduled flow lines = %d, want %d", len(ex.ScheduledFlows), ex.NumSets)
	}
	if syn == nil || syn.NumSets != 3 {
		t.Error("synthesis missing or inconsistent")
	}
}

func TestRunTable43ShapeMatchesPaper(t *testing.T) {
	rows, plans := RunTable43(fast)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	if err := VerifyPlans(plans); err != nil {
		t.Fatal(err)
	}
	// Paper shape: per case, fixed runtime is the smallest and fixed length
	// the largest; clockwise length matches unfixed length.
	byApp := map[string]map[string]int{}
	for i, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]int{}
		}
		byApp[r.App][r.Binding] = i
	}
	for app, pol := range byApp {
		fx, cw, uf := rows[pol["fixed"]], rows[pol["clockwise"]], rows[pol["unfixed"]]
		if fx.NoSolution || cw.NoSolution || uf.NoSolution {
			t.Errorf("%s: unexpected no-solution row", app)
			continue
		}
		if fx.L < cw.L-1e-9 || fx.L < uf.L-1e-9 {
			t.Errorf("%s: fixed L=%.1f should be the largest (cw %.1f, unfixed %.1f)", app, fx.L, cw.L, uf.L)
		}
		if fx.T > cw.T+0.5 {
			t.Errorf("%s: fixed T=%.3f should be below clockwise T=%.3f", app, fx.T, cw.T)
		}
	}
}

func TestRunCampaign(t *testing.T) {
	res := RunCampaign(Config{TimeLimit: 5 * time.Second}, 18, 42)
	if res.Stats.Total != 18 {
		t.Fatalf("total = %d", res.Stats.Total)
	}
	if res.Stats.Solved == 0 {
		t.Fatal("campaign solved nothing")
	}
	if !res.Stats.AllScheduled {
		t.Error("solved cases must schedule every flow")
	}
	if res.Stats.Solved+res.Stats.NoSolution+res.Stats.Timeout != res.Stats.Total {
		t.Error("row accounting inconsistent")
	}
	// The Section 4.2 finding: the unfixed policy always schedules its
	// cases; no-solutions only occur under fixed/clockwise binding.
	if res.Stats.NoSolutionByPolicy["unfixed"] != 0 {
		t.Errorf("unfixed produced %d no-solutions", res.Stats.NoSolutionByPolicy["unfixed"])
	}
}

func TestWriteFigures(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{TimeLimit: 8 * time.Second, OutDir: dir}
	_, plans := RunTable41(cfg)
	_, syn42, err := RunTable42(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, err := WriteFigures(cfg, plans, syn42)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("only %d figure files written", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "</svg>") {
			t.Errorf("%s: not an SVG", filepath.Base(f))
		}
	}
	// Figure 4.4 must be among them.
	found := false
	for _, f := range files {
		if strings.Contains(f, "fig4.4") {
			found = true
		}
	}
	if !found {
		t.Error("figure 4.4 missing")
	}
}

func TestWriteFiguresNoOutDir(t *testing.T) {
	files, err := WriteFigures(Config{}, nil, nil)
	if err != nil || files != nil {
		t.Errorf("empty OutDir should be a no-op, got %v, %v", files, err)
	}
}

func TestRunStressBounded(t *testing.T) {
	start := time.Now()
	row := RunStress(Config{TimeLimit: 3 * time.Second})
	if el := time.Since(start); el > time.Minute {
		t.Fatalf("stress run ignored the limit: %v", el)
	}
	// Within 3 s the engine may or may not prove optimality; either a plan
	// or a timeout is acceptable, a proven no-solution is not (the case is
	// feasible).
	if row.NoSolution {
		t.Error("stress case wrongly proven infeasible")
	}
}

func TestRunGRUComparison(t *testing.T) {
	cmp, err := RunGRUComparison(Config{TimeLimit: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.GridFeasible {
		t.Error("grid should route the TL/T conflict apart")
	}
	if cmp.GRUFeasible {
		t.Error("GRU should be unable to separate flows from TL and T (both pass node N)")
	}
	if cmp.GRUDRC == 0 {
		t.Error("GRU layout should violate the angular clearance rule")
	}
	if cmp.GridDRC != 0 {
		t.Errorf("grid layout has %d DRC violations", cmp.GridDRC)
	}
}

func TestRunScalingRuntimeGrowsWithModules(t *testing.T) {
	pts := RunScaling(Config{TimeLimit: 10 * time.Second}, []int{4, 6, 8, 10})
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if !p.Proven {
			t.Errorf("scaling point %d modules did not solve", p.Modules)
		}
	}
	// The Section 4.3 observation: larger inputs take longer. Require the
	// largest case to be slower than the smallest (monotonicity per point
	// would be flaky on CI noise).
	if pts[len(pts)-1].Seconds < pts[0].Seconds {
		t.Errorf("runtime did not grow: %v", pts)
	}
}

// TestRunCampaignDeterministicAcrossWorkers is the reproducibility
// contract behind results/campaign.txt: sequential and parallel runs
// must render byte-identical deterministic reports.
func TestRunCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{TimeLimit: 5 * time.Second}
	cfg.Workers = 1
	seq := RunCampaign(cfg, 12, 42)
	cfg.Workers = 4
	par := RunCampaign(cfg, 12, 42)

	seqText := seq.Stats.DeterministicString() + "\n" + report.CampaignTable(seq.Rows)
	parText := par.Stats.DeterministicString() + "\n" + report.CampaignTable(par.Rows)
	if seqText != parText {
		t.Errorf("worker count changed the deterministic report:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seqText, parText)
	}
	if par.Service == nil || par.Service.Workers != 4 {
		t.Error("parallel run did not expose engine metrics")
	}
	for i, r := range seq.Rows {
		if r.ID != i+1 {
			t.Fatalf("row %d has ID %d, want %d (IDs must be assigned and ordered)", i, r.ID, i+1)
		}
	}
}

func TestRunFPVACampaign(t *testing.T) {
	res := RunFPVACampaign(Config{TimeLimit: 5 * time.Second}, 9, 42)
	if res.Stats.Total != 9 {
		t.Fatalf("total = %d", res.Stats.Total)
	}
	if res.Stats.Solved == 0 {
		t.Fatal("FPVA campaign solved nothing")
	}
	if !res.Stats.AllScheduled {
		t.Error("solved cases must schedule every flow")
	}
	if res.Stats.Solved+res.Stats.NoSolution+res.Stats.Timeout != res.Stats.Total {
		t.Error("row accounting inconsistent")
	}
	// SwitchSize carries the derived port count for grid cases, so the
	// per-size means key on real dimensions rather than collapsing to 0.
	for _, r := range res.Rows {
		if r.SwitchSize < 8 {
			t.Fatalf("row %d: switch size %d; FPVA ports must be >= 8", r.ID, r.SwitchSize)
		}
	}
}

func TestRunFPVACampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{TimeLimit: 5 * time.Second}
	cfg.Workers = 1
	seq := RunFPVACampaign(cfg, 6, 42)
	cfg.Workers = 4
	par := RunFPVACampaign(cfg, 6, 42)

	seqText := seq.Stats.DeterministicString() + "\n" + report.CampaignTable(seq.Rows)
	parText := par.Stats.DeterministicString() + "\n" + report.CampaignTable(par.Rows)
	if seqText != parText {
		t.Errorf("worker count changed the FPVA report:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seqText, parText)
	}
}

func TestRunFPVAScaling(t *testing.T) {
	points, err := RunFPVAScaling(Config{TimeLimit: 10 * time.Second}, [][2]int{{2, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	for _, p := range points {
		if !p.Proven {
			t.Errorf("%dx%d: canonical sweep spec did not solve", p.Rows, p.Cols)
		}
		if p.Patterns == 0 || p.Patterns > 2*(p.Rows+p.Cols)-2 {
			t.Errorf("%dx%d: %d patterns, want 1..%d", p.Rows, p.Cols, p.Patterns, 2*(p.Rows+p.Cols)-2)
		}
		if p.Faults != 2*p.Valves {
			t.Errorf("%dx%d: %d faults for %d valves", p.Rows, p.Cols, p.Faults, p.Valves)
		}
	}
	table := FPVAScalingTable(points)
	if !strings.Contains(table, "2x2") || !strings.Contains(table, "3x4") {
		t.Errorf("scaling table missing grid rows:\n%s", table)
	}
}
