// Package exp runs the paper's evaluation: every table and figure of the
// thesis' Section 4 is regenerated by one of the Run functions here. The
// cmd/experiments binary and the repository-level benchmarks are thin
// wrappers around this package.
package exp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"switchsynth"
	"switchsynth/client"
	"switchsynth/internal/cases"
	"switchsynth/internal/contam"
	"switchsynth/internal/drc"
	"switchsynth/internal/fpva"
	"switchsynth/internal/model"
	"switchsynth/internal/planio"
	"switchsynth/internal/render"
	"switchsynth/internal/report"
	"switchsynth/internal/search"
	"switchsynth/internal/service"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// Config controls the experiment runs.
type Config struct {
	// TimeLimit bounds each individual synthesis (default 30s). The paper
	// let Gurobi run for hours on the unfixed cases; bounded runs report
	// the best plan found with a star.
	TimeLimit time.Duration
	// OutDir receives figures and table files when non-empty.
	OutDir string
	// IQP solves with the paper's IQP encoding (internal/model) instead
	// of the branch and bound. Its campaigns run each case directly,
	// without a service.Engine, and cannot use DaemonURL.
	IQP bool
	// Workers is the number of concurrent syntheses the campaign runs
	// through the service engine (0 = GOMAXPROCS, 1 = sequential). The
	// campaign report is byte-identical for every worker count.
	Workers int
	// SolverWorkers is the branch-and-bound parallelism inside each
	// individual solve (0 = sequential). Plans — and therefore every table
	// and the deterministic campaign report — are bit-identical for every
	// value; only runtimes differ.
	SolverWorkers int
	// DaemonURL routes the campaign through a remote synthd daemon
	// instead of an in-process engine. Requests go through the retrying
	// client, and every returned plan is re-verified locally before it
	// counts as solved.
	DaemonURL string
}

func (c Config) timeLimit() time.Duration {
	if c.TimeLimit > 0 {
		return c.TimeLimit
	}
	return 30 * time.Second
}

func (c Config) workers() int {
	switch {
	case c.Workers > 0:
		return c.Workers
	case c.Workers < 0:
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// runOne synthesizes one case under one policy and converts it to a table
// row plus the synthesis (nil when no solution).
func runOne(c cases.Case, policy spec.BindingPolicy, cfg Config) (report.ResultRow, *switchsynth.Synthesis) {
	sp := c.WithBinding(policy)
	row := caseRow(c, policy)
	start := time.Now()
	syn, err := synthesize(sp, switchsynth.Options{
		TimeLimit:       cfg.timeLimit(),
		PressureSharing: true,
		SolverWorkers:   cfg.SolverWorkers,
	}, cfg)
	row.T = time.Since(start).Seconds()
	if !fillRow(&row, syn, err) {
		return row, nil
	}
	return row, syn
}

// synthesize runs one synthesis with cfg's engine: the branch and bound
// through switchsynth, or the paper's IQP solved by internal/model and
// then given the same analyses.
func synthesize(sp *spec.Spec, opts switchsynth.Options, cfg Config) (*switchsynth.Synthesis, error) {
	if !cfg.IQP {
		return switchsynth.Synthesize(sp, opts)
	}
	res, err := model.Solve(sp, model.Options{TimeLimit: opts.TimeLimit})
	if err != nil {
		return nil, err
	}
	return switchsynth.Analyze(res, opts)
}

// fillRow records one synthesis outcome in row and reports whether a
// plan exists.
func fillRow(row *report.ResultRow, syn *switchsynth.Synthesis, err error) bool {
	if err != nil {
		var nosol *spec.ErrNoSolution
		if errors.As(err, &nosol) {
			row.NoSolution = true
		} else {
			row.Timeout = true
		}
		return false
	}
	row.L = syn.Length
	row.Valves = syn.NumValves()
	row.Sets = syn.NumSets
	row.Proven = syn.Proven
	return true
}

// RunTable41 reproduces Table 4.1: the three contamination-avoidance cases
// under all three binding policies. Returned synthesis plans are keyed by
// "<case>/<policy>".
func RunTable41(cfg Config) ([]report.ResultRow, map[string]*switchsynth.Synthesis) {
	var rows []report.ResultRow
	plans := map[string]*switchsynth.Synthesis{}
	for _, c := range cases.Table41() {
		for _, policy := range []spec.BindingPolicy{spec.Clockwise, spec.Fixed, spec.Unfixed} {
			row, syn := runOne(c, policy, cfg)
			rows = append(rows, row)
			if syn != nil {
				plans[c.Spec.Name+"/"+policy.String()] = syn
			}
		}
	}
	return rows, plans
}

// RunTable42 reproduces the Table 4.2 scheduling example and Figure 4.4.
func RunTable42(cfg Config) (report.Example42, *switchsynth.Synthesis, error) {
	c := cases.SchedulingExample()
	syn, err := synthesize(c.Spec, switchsynth.Options{
		TimeLimit:       cfg.timeLimit(),
		PressureSharing: true,
		SolverWorkers:   cfg.SolverWorkers,
	}, cfg)
	if err != nil {
		return report.Example42{}, nil, err
	}
	ex := report.Example42{
		InputFlows:      flowsByInlet(c.Spec),
		ModuleOrder:     strings.Join(c.Spec.Modules, ","),
		Conflicts:       "none",
		SwitchSize:      c.Spec.SwitchPins,
		Binding:         c.Spec.Binding.String(),
		ScheduledFlows:  scheduledFlows(syn),
		NumSets:         syn.NumSets,
		NumValves:       syn.NumValves(),
		L:               syn.Length,
		PressureSharing: true,
		ControlInlets:   syn.ControlInlets(),
	}
	return ex, syn, nil
}

// flowsByInlet renders "1→(7,10,11), 2→(5,8,9)" style flow lists.
func flowsByInlet(sp *spec.Spec) string {
	byInlet := map[string][]string{}
	var inlets []string
	for _, f := range sp.Flows {
		if len(byInlet[f.From]) == 0 {
			inlets = append(inlets, f.From)
		}
		byInlet[f.From] = append(byInlet[f.From], f.To)
	}
	sort.Strings(inlets)
	parts := make([]string, len(inlets))
	for i, in := range inlets {
		parts[i] = fmt.Sprintf("%s→(%s)", in, strings.Join(byInlet[in], ","))
	}
	return strings.Join(parts, ", ")
}

// scheduledFlows renders one "[inlet→(outlets)]" line per flow set.
func scheduledFlows(syn *switchsynth.Synthesis) []string {
	out := make([]string, syn.NumSets)
	for s, routes := range syn.SetOf() {
		byInlet := map[string][]string{}
		var inlets []string
		for _, rt := range routes {
			f := syn.Spec.Flows[rt.Flow]
			if len(byInlet[f.From]) == 0 {
				inlets = append(inlets, f.From)
			}
			byInlet[f.From] = append(byInlet[f.From], f.To)
		}
		sort.Strings(inlets)
		parts := make([]string, len(inlets))
		for i, in := range inlets {
			parts[i] = fmt.Sprintf("[%s→(%s)]", in, strings.Join(byInlet[in], ","))
		}
		out[s] = strings.Join(parts, " ")
	}
	return out
}

// RunTable43 reproduces Table 4.3: the four conflict-light cases under all
// three binding policies, reporting runtime and channel length.
func RunTable43(cfg Config) ([]report.ResultRow, map[string]*switchsynth.Synthesis) {
	var rows []report.ResultRow
	plans := map[string]*switchsynth.Synthesis{}
	for _, c := range cases.Table43() {
		for _, policy := range []spec.BindingPolicy{spec.Clockwise, spec.Fixed, spec.Unfixed} {
			row, syn := runOne(c, policy, cfg)
			rows = append(rows, row)
			if syn != nil {
				plans[c.Spec.Name+"/"+policy.String()] = syn
			}
		}
	}
	return rows, plans
}

// CampaignResult pairs the per-case rows with the aggregate statistics.
type CampaignResult struct {
	Rows  []report.ResultRow
	Stats report.CampaignStats
	// Service holds the engine metrics of a parallel run (nil when the
	// campaign ran sequentially): cache hits show how many artificial
	// cases were isomorphic to earlier ones.
	Service *service.Snapshot
}

// RunCampaign reproduces the Section 4.2 artificial scheduling campaign
// (90 deterministic cases by default). The cases run concurrently
// through a service.Engine with cfg.Workers solver goroutines; because
// the engine solves canonical presentations, the rows (and therefore
// report.CampaignTable / Stats.DeterministicString) are identical for
// every worker count — only the wall-clock runtimes differ.
func RunCampaign(cfg Config, count int, seed int64) CampaignResult {
	return runCampaignCases(cfg, cases.Artificial(count, seed))
}

// RunFPVACampaign is the FPVA counterpart of RunCampaign: randomized
// grid cases (cases.ArtificialFPVA) through the same service engine,
// with the same determinism guarantee — the rows are identical for
// every worker count and solver parallelism.
func RunFPVACampaign(cfg Config, count int, seed int64) CampaignResult {
	return runCampaignCases(cfg, cases.ArtificialFPVA(count, seed))
}

// runCampaignCases runs any case list concurrently through a
// service.Engine (or, with cfg.DaemonURL set, a remote daemon; with
// cfg.IQP, one direct IQP solve per case).
func runCampaignCases(cfg Config, cs []cases.Case) CampaignResult {
	switch {
	case cfg.DaemonURL != "":
		return runCampaignDaemon(cfg, cs)
	case cfg.IQP:
		rows, scheduled := campaignEach(cfg, cs, func(c cases.Case) (report.ResultRow, bool) {
			row, syn := runOne(c, c.Spec.Binding, cfg)
			return row, syn != nil && len(syn.Routes) == len(syn.Spec.Flows)
		})
		return CampaignResult{Rows: rows, Stats: campaignStats(rows, scheduled)}
	}
	rows := make([]report.ResultRow, len(cs))
	scheduled := make([]bool, len(cs))

	eng := service.New(service.Config{
		Workers:          cfg.workers(),
		SolverWorkers:    cfg.SolverWorkers,
		DefaultTimeLimit: cfg.timeLimit(),
	})
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], scheduled[i] = campaignOneEngine(eng, cs[i], cfg)
		}(i)
	}
	wg.Wait()
	snap := eng.Snapshot()
	eng.Close()

	return CampaignResult{
		Rows:    rows,
		Stats:   campaignStats(rows, scheduled),
		Service: &snap,
	}
}

// runCampaignDaemon runs the campaign against a remote synthd daemon.
// cfg.Workers bounds the number of in-flight requests; the daemon's own
// worker pool bounds the actual solve concurrency. The row semantics
// match the in-process path, so the deterministic campaign report stays
// byte-identical whether the solves happened locally or remotely.
func runCampaignDaemon(cfg Config, cs []cases.Case) CampaignResult {
	cl, err := client.New(client.Config{BaseURL: cfg.DaemonURL})
	if err != nil {
		// A malformed URL fails every case the same way a dead daemon
		// would: all rows time out, nothing is scheduled.
		rows, scheduled := make([]report.ResultRow, len(cs)), make([]bool, len(cs))
		for i, c := range cs {
			rows[i] = caseRow(c, c.Spec.Binding)
			rows[i].Timeout = true
		}
		return CampaignResult{Rows: rows, Stats: campaignStats(rows, scheduled)}
	}

	rows, scheduled := campaignEach(cfg, cs, func(c cases.Case) (report.ResultRow, bool) {
		return campaignOneDaemon(cl, c, cfg)
	})
	res := CampaignResult{Rows: rows, Stats: campaignStats(rows, scheduled)}
	if snap, err := cl.Metrics(context.Background()); err == nil {
		res.Service = snap
	}
	return res
}

// campaignEach runs one per case, at most cfg.workers() at a time, and
// collects the rows and scheduled flags in case order.
func campaignEach(cfg Config, cs []cases.Case, one func(cases.Case) (report.ResultRow, bool)) ([]report.ResultRow, []bool) {
	rows := make([]report.ResultRow, len(cs))
	scheduled := make([]bool, len(cs))
	sem := make(chan struct{}, cfg.workers())
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], scheduled[i] = one(cs[i])
		}(i)
	}
	wg.Wait()
	return rows, scheduled
}

// caseRow is the static (pre-solve) part of the table row for c under
// policy. SwitchSize is the port count, which equals SwitchPins on a
// crossbar and 2(rows+cols) on an FPVA grid.
func caseRow(c cases.Case, policy spec.BindingPolicy) report.ResultRow {
	sp := c.WithBinding(policy)
	return report.ResultRow{
		ID:         c.ID,
		App:        sp.Name,
		Modules:    len(sp.Modules),
		SwitchSize: sp.Ports(),
		Binding:    policy.String(),
	}
}

// campaignOneDaemon runs one campaign case through the remote daemon and
// re-verifies the returned plan locally before trusting it.
func campaignOneDaemon(cl *client.Client, c cases.Case, cfg Config) (report.ResultRow, bool) {
	sp := c.WithBinding(c.Spec.Binding)
	row := caseRow(c, c.Spec.Binding)
	resp, err := cl.Synthesize(context.Background(), sp, service.RequestOptions{
		TimeLimitMS:     cfg.timeLimit().Milliseconds(),
		PressureSharing: true,
		SolverWorkers:   cfg.SolverWorkers,
	})
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Kind == service.KindNoSolution {
			row.NoSolution = true
		} else {
			row.Timeout = true
		}
		return row, false
	}
	row.T = resp.SolveSeconds
	row.L = resp.LengthMM
	row.Valves = resp.NumValves
	row.Sets = resp.NumSets
	row.Proven = resp.Proven
	// Don't take the daemon's word for it: decode the wire plan and run
	// the full contamination verifier on this side of the network.
	plan, err := planio.Decode(resp.Plan)
	if err != nil || contam.Verify(plan) != nil {
		return row, false
	}
	return row, len(plan.Routes) == len(sp.Flows)
}

// campaignOneEngine runs one campaign case through the shared engine.
func campaignOneEngine(eng *service.Engine, c cases.Case, cfg Config) (report.ResultRow, bool) {
	sp := c.WithBinding(c.Spec.Binding)
	row := caseRow(c, c.Spec.Binding)
	start := time.Now()
	resp, err := eng.Do(context.Background(), sp, switchsynth.Options{
		TimeLimit:       cfg.timeLimit(),
		PressureSharing: true,
		SolverWorkers:   cfg.SolverWorkers,
	})
	// Report the optimizer time, not the Do wall time: with few workers
	// the latter is dominated by queue wait.
	row.T = time.Since(start).Seconds()
	var syn *switchsynth.Synthesis
	if resp != nil {
		row.T = resp.SolveTime.Seconds()
		syn = resp.Synthesis
	}
	ok := fillRow(&row, syn, err) && len(syn.Routes) == len(sp.Flows)
	return row, ok
}

// campaignStats aggregates rows into the campaign summary. It is a pure
// function of the rows, so sequential and parallel runs agree.
func campaignStats(rows []report.ResultRow, scheduled []bool) report.CampaignStats {
	stats := report.CampaignStats{
		Total:              len(rows),
		ByPolicy:           map[string]int{},
		NoSolutionByPolicy: map[string]int{},
		MeanRuntimeBySize:  map[int]float64{},
		MeanLengthBySize:   map[int]float64{},
		AllScheduled:       true,
	}
	sumT := map[int]float64{}
	sumL := map[int]float64{}
	nBySize := map[int]int{}
	for i, row := range rows {
		switch {
		case row.NoSolution:
			stats.NoSolution++
			stats.NoSolutionByPolicy[row.Binding]++
		case row.Timeout:
			stats.Timeout++
		default:
			stats.Solved++
			stats.ByPolicy[row.Binding]++
			sumT[row.SwitchSize] += row.T
			sumL[row.SwitchSize] += row.L
			nBySize[row.SwitchSize]++
			if !scheduled[i] {
				stats.AllScheduled = false
			}
		}
	}
	for size, n := range nBySize {
		stats.MeanRuntimeBySize[size] = sumT[size] / float64(n)
		stats.MeanLengthBySize[size] = sumL[size] / float64(n)
	}
	return stats
}

// FPVAScalingPoint is one measurement of the FPVA sweep: synthesis
// runtime on an R×C grid plus the size of the minimal test-pattern set
// that detects every single stuck-open/stuck-closed valve fault.
type FPVAScalingPoint struct {
	Rows, Cols int
	Ports      int
	Valves     int // valve (edge) count of the grid
	Faults     int // single stuck-at faults: two per valve
	Patterns   int // minimal detecting pattern set from fpva.TestPatterns
	Seconds    float64
	Proven     bool
}

// RunFPVAScaling sweeps grid sizes: each (rows, cols) synthesizes a
// canonical two-inlet/three-outlet spec and generates the
// fault-detecting test-pattern set, reporting how both scale. The
// pattern set is re-verified here — every fault must be detected — so a
// regression in the generator fails the sweep rather than skewing it.
func RunFPVAScaling(cfg Config, dims [][2]int) ([]FPVAScalingPoint, error) {
	var out []FPVAScalingPoint
	for _, d := range dims {
		sp := &spec.Spec{
			Name:     fmt.Sprintf("fpva-scaling-%dx%d", d[0], d[1]),
			Topology: spec.TopologyFPVA,
			GridRows: d[0],
			GridCols: d[1],
			Modules:  []string{"in1", "in2", "out1", "out2", "out3"},
			Flows: []spec.Flow{
				{From: "in1", To: "out1"},
				{From: "in2", To: "out2"},
				{From: "in1", To: "out3"},
			},
			// Unfixed binding: on small grids a conflicting inlet pair
			// under a fixed clockwise layout can be pinned to the same
			// attachment junction, which is infeasible by construction.
			Conflicts: [][2]int{{0, 1}},
			Binding:   spec.Unfixed,
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		sw, err := sp.SharedSwitch()
		if err != nil {
			return nil, err
		}
		pt := FPVAScalingPoint{
			Rows:   d[0],
			Cols:   d[1],
			Ports:  sp.Ports(),
			Valves: len(sw.Edges),
		}
		faults := fpva.AllFaults(sw)
		pt.Faults = len(faults)
		patterns, err := fpva.TestPatterns(sw)
		if err != nil {
			return nil, err
		}
		pt.Patterns = len(patterns)
		for _, f := range faults {
			detected := false
			for _, p := range patterns {
				if fpva.Detects(sw, p, f) {
					detected = true
					break
				}
			}
			if !detected {
				return nil, fmt.Errorf("%dx%d: pattern set misses fault %v", d[0], d[1], f)
			}
		}
		start := time.Now()
		_, err = synthesize(sp, switchsynth.Options{
			TimeLimit:     cfg.timeLimit(),
			SolverWorkers: cfg.SolverWorkers,
		}, cfg)
		pt.Seconds = time.Since(start).Seconds()
		pt.Proven = err == nil
		out = append(out, pt)
	}
	return out, nil
}

// FPVAScalingTable renders the sweep without the runtime column, so the
// output is byte-identical across runs and machines.
func FPVAScalingTable(points []FPVAScalingPoint) string {
	t := report.NewTable("grid", "ports", "valves", "faults", "patterns", "solved")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%dx%d", p.Rows, p.Cols),
			fmt.Sprintf("%d", p.Ports),
			fmt.Sprintf("%d", p.Valves),
			fmt.Sprintf("%d", p.Faults),
			fmt.Sprintf("%d", p.Patterns),
			fmt.Sprintf("%v", p.Proven),
		)
	}
	return t.String()
}

// WriteFigures renders the synthesized switches of Figures 4.1–4.4 plus the
// spine baselines of Figure 4.2 into cfg.OutDir. It returns the written
// file names.
func WriteFigures(cfg Config, plans41 map[string]*switchsynth.Synthesis, syn42 *switchsynth.Synthesis) ([]string, error) {
	if cfg.OutDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	save := func(name, content string) error {
		p := filepath.Join(cfg.OutDir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			return err
		}
		written = append(written, p)
		return nil
	}

	// Figure 4.1(a–c): ChIP under the three policies; Figure 4.3: the
	// scalable variants.
	for _, policy := range []string{"fixed", "clockwise", "unfixed"} {
		if syn, ok := plans41["chip-sw1/"+policy]; ok {
			if err := save("fig4.1-chip-"+policy+".svg", syn.SVG()); err != nil {
				return written, err
			}
			scalable := render.SVG(syn.Result, syn.Valves, syn.Pressure, render.SVGOptions{
				ShowRemoved: true, Scalable: true,
				Title: "ChIP (" + policy + "), Columba-S-compatible variant",
			})
			if err := save("fig4.3-chip-"+policy+"-scalable.svg", scalable); err != nil {
				return written, err
			}
		}
	}
	// Figure 4.2(a)(b): nucleic acid and mRNA synthesized switches.
	for _, name := range []string{"nucleic-acid", "mrna-isolation"} {
		if syn, ok := plans41[name+"/unfixed"]; ok {
			if err := save("fig4.2-"+name+".svg", syn.SVG()); err != nil {
				return written, err
			}
		}
	}
	// Figure 4.2(c)(d) analogues: the spine baselines.
	for _, c := range []cases.Case{cases.NucleicAcid(), cases.MRNAIsolation(), cases.ChIPSw1()} {
		rep, err := switchsynth.SpineBaseline(c.Spec)
		if err != nil {
			return written, err
		}
		if err := save("fig4.2-spine-"+c.Spec.Name+".svg", rep.SVG); err != nil {
			return written, err
		}
	}
	// Figure 4.4: the scheduling example.
	if syn42 != nil {
		if err := save("fig4.4-scheduling-example.svg", syn42.SVG()); err != nil {
			return written, err
		}
	}
	return written, nil
}

// RunStress runs the Section 5 stress case (13-module mRNA on 16-pin) with
// the configured time limit; the paper aborted it after five hours.
func RunStress(cfg Config) report.ResultRow {
	c := cases.MRNAStress16()
	row, _ := runOne(c, spec.Unfixed, cfg)
	return row
}

// VerifyPlans re-verifies every plan (defense in depth for the harness).
func VerifyPlans(plans map[string]*switchsynth.Synthesis) error {
	for name, syn := range plans {
		if err := contam.Verify(syn.Result); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// GRUComparison contrasts the predecessor GRU switch with the paper's
// crossbar grid on the same conflict workload (Section 2.1): flows from
// pins TL and T of a GRU share their only node N, so a conflict between
// them is unroutable, while the grid separates them.
type GRUComparison struct {
	GridFeasible bool
	GRUFeasible  bool
	GRUDRC       int // number of design-rule violations of the GRU layout
	GridDRC      int
}

// RunGRUComparison executes the Section 2.1 comparison.
func RunGRUComparison(cfg Config) (GRUComparison, error) {
	sp := &spec.Spec{
		Name:       "gru-vs-grid",
		SwitchPins: 8,
		Modules:    []string{"a", "b", "x", "y"},
		Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
		Conflicts:  [][2]int{{0, 1}},
		Binding:    spec.Fixed,
		// On the GRU pin order TL,T,TR,R,BR,B,BL,L this binds the two
		// conflicting sources to TL and T — the paper's example.
		FixedPins: map[string]int{"a": 0, "b": 1, "x": 5, "y": 3},
	}
	var out GRUComparison
	grid, err := topo.NewGrid(8)
	if err != nil {
		return out, err
	}
	gru, err := topo.NewGRU(1)
	if err != nil {
		return out, err
	}
	out.GridDRC = len(drc.Check(grid, drc.DefaultRules()))
	out.GRUDRC = len(drc.Check(gru, drc.DefaultRules()))

	_, errGrid := search.SolveOn(sp, grid, topo.BuildPathTable(grid), search.Options{TimeLimit: cfg.timeLimit()})
	out.GridFeasible = errGrid == nil
	_, errGRU := search.SolveOn(sp, gru, topo.BuildPathTable(gru), search.Options{TimeLimit: cfg.timeLimit()})
	out.GRUFeasible = errGRU == nil
	return out, nil
}

// ScalingPoint is one measurement of the Section 4.3 observation that
// runtime grows with the number of connected modules.
type ScalingPoint struct {
	Modules int
	Flows   int
	Seconds float64
	Proven  bool
}

// RunScaling sweeps the module count on a 12-pin switch under clockwise
// binding: two inlets alternate over n-2 outlets. Each n must be between 4
// and the pin count.
func RunScaling(cfg Config, moduleCounts []int) []ScalingPoint {
	var out []ScalingPoint
	for _, n := range moduleCounts {
		if n < 4 || n > 12 {
			continue
		}
		mods := []string{"in1", "in2"}
		var flows []spec.Flow
		for i := 0; i < n-2; i++ {
			o := fmt.Sprintf("o%d", i+1)
			mods = append(mods, o)
			from := "in1"
			if i%2 == 1 {
				from = "in2"
			}
			flows = append(flows, spec.Flow{From: from, To: o})
		}
		sp := &spec.Spec{
			Name:       fmt.Sprintf("scaling-%d", n),
			SwitchPins: 12,
			Modules:    mods,
			Flows:      flows,
			Binding:    spec.Clockwise,
		}
		start := time.Now()
		_, err := switchsynth.Synthesize(sp, switchsynth.Options{TimeLimit: cfg.timeLimit()})
		pt := ScalingPoint{Modules: len(sp.Modules), Flows: len(sp.Flows), Seconds: time.Since(start).Seconds()}
		if err == nil {
			pt.Proven = true
		}
		out = append(out, pt)
	}
	return out
}
