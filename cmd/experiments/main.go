// Command experiments regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	experiments [-out results] [-timelimit 30s] [-campaign 90] [-seed 42]
//	            [-only table4.1|table4.2|table4.3|campaign|fpva|spine|stress|figures]
//	            [-workers N] [-solver-workers N] [-daemon http://host:8080]
//	            [-fpva-campaign 30]
//
// -workers bounds how many campaign cases solve concurrently;
// -solver-workers parallelizes the branch and bound inside each solve.
// Every table and the deterministic campaign report are byte-identical
// for any value of any knob.
//
// With -daemon the campaign's solves are submitted to a remote synthd
// daemon through the retrying client; every returned plan is re-verified
// locally before it counts as solved.
//
// Output goes to stdout; figures (SVG) and table text files are written to
// the -out directory. Runtimes marked with '*' hit the time limit and
// report the best plan found (the paper let Gurobi run for hours on the
// unfixed cases; see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"switchsynth"
	"switchsynth/internal/cases"
	"switchsynth/internal/exp"
	"switchsynth/internal/report"
)

func main() {
	var (
		out       = flag.String("out", "results", "output directory for figures and tables ('' to skip files)")
		timeLimit = flag.Duration("timelimit", 30*time.Second, "per-synthesis time limit")
		campaignN = flag.Int("campaign", 90, "number of artificial campaign cases")
		fpvaN     = flag.Int("fpva-campaign", 30, "number of randomized FPVA campaign cases")
		seed      = flag.Int64("seed", 42, "campaign generator seed")
		only      = flag.String("only", "", "run a single experiment: table4.1, table4.2, table4.3, campaign, fpva, spine, gru, scaling, stress, figures")
		engine    = flag.String("engine", "", "optimizer engine: search (default) or iqp")
		workers   = flag.Int("workers", 0, "concurrent campaign syntheses (0 = GOMAXPROCS, 1 = sequential)")
		solverWrk = flag.Int("solver-workers", 0, "branch-and-bound goroutines per solve (0 = sequential; results are identical at any value)")
		daemon    = flag.String("daemon", "", "synthd base URL; campaign solves go through the remote daemon")
	)
	flag.Parse()

	cfg := exp.Config{TimeLimit: *timeLimit, OutDir: *out, Engine: *engine, Workers: *workers, SolverWorkers: *solverWrk, DaemonURL: *daemon}
	want := func(name string) bool { return *only == "" || *only == name }
	var files []string

	save := func(name, content string) {
		if *out == "" {
			return
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		p := filepath.Join(*out, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		files = append(files, p)
	}

	var plans41 map[string]*switchsynth.Synthesis
	var syn42 *switchsynth.Synthesis

	if want("table4.1") || want("figures") {
		fmt.Println("== Table 4.1: contamination avoidance ==")
		rows, plans := exp.RunTable41(cfg)
		plans41 = plans
		text := report.Table41(rows)
		fmt.Println(text)
		save("table4.1.txt", text)
	}
	if want("table4.2") || want("figures") {
		fmt.Println("== Table 4.2: flow scheduling example ==")
		ex, syn, err := exp.RunTable42(cfg)
		if err != nil {
			fatal(err)
		}
		syn42 = syn
		fmt.Println(ex.String())
		save("table4.2.txt", ex.String())
	}
	if want("table4.3") {
		fmt.Println("== Table 4.3: binding policies ==")
		rows, _ := exp.RunTable43(cfg)
		text := report.Table43(rows)
		fmt.Println(text)
		save("table4.3.txt", text)
	}
	if want("campaign") {
		fmt.Printf("== Section 4.2: artificial campaign (%d cases, seed %d) ==\n", *campaignN, *seed)
		start := time.Now()
		res := exp.RunCampaign(cfg, *campaignN, *seed)
		wall := time.Since(start)
		fmt.Println(res.Stats.String())
		if s := res.Service; s != nil {
			fmt.Printf("engine: %d workers, wall %.2fs, %d solves (%d cache hits, %d coalesced)\n",
				s.Workers, wall.Seconds(), s.SolveCount, s.CacheHits, s.DedupCoalesced)
		}
		// The saved file is byte-identical across runs and worker counts:
		// no wall-clock values, rows in case-ID order.
		save("campaign.txt", res.Stats.DeterministicString()+"\n"+report.CampaignTable(res.Rows))
	}
	if want("fpva") {
		fmt.Printf("== FPVA: randomized grid campaign (%d cases, seed %d) + scaling sweep ==\n", *fpvaN, *seed)
		start := time.Now()
		res := exp.RunFPVACampaign(cfg, *fpvaN, *seed)
		wall := time.Since(start)
		fmt.Println(res.Stats.String())
		if s := res.Service; s != nil {
			fmt.Printf("engine: %d workers, wall %.2fs, %d solves (%d cache hits, %d coalesced)\n",
				s.Workers, wall.Seconds(), s.SolveCount, s.CacheHits, s.DedupCoalesced)
		}
		points, err := exp.RunFPVAScaling(cfg, [][2]int{{2, 2}, {2, 4}, {3, 3}, {4, 4}, {6, 6}, {8, 8}})
		if err != nil {
			fatal(err)
		}
		scalingText := exp.FPVAScalingTable(points)
		fmt.Println(scalingText)
		// Like campaign.txt, the saved file carries no wall-clock values:
		// byte-identical across runs and worker counts.
		save("fpva.txt", res.Stats.DeterministicString()+"\n"+
			report.CampaignTable(res.Rows)+"\n"+scalingText)
	}
	if want("spine") {
		fmt.Println("== Columba spine baseline pollution (Figures 4.1(d), 4.2(c)(d)) ==")
		t := report.NewTable("case", "polluted conflict pairs", "contaminated nodes", "contaminated segments")
		for _, c := range []cases.Case{cases.NucleicAcid(), cases.MRNAIsolation(), cases.ChIPSw1()} {
			cmp, err := exp.RunSpineBaseline(c)
			if err != nil {
				fatal(err)
			}
			t.AddRow(cmp.Case,
				fmt.Sprint(cmp.Report.ConflictPairsPolluted),
				fmt.Sprint(len(cmp.Report.ContaminatedVertices)),
				fmt.Sprint(len(cmp.Report.ContaminatedEdges)))
		}
		fmt.Println(t.String())
		save("spine-baseline.txt", t.String())
	}
	if want("scaling") {
		fmt.Println("== Section 4.3: runtime vs module count (12-pin, clockwise) ==")
		t := report.NewTable("#modules", "#flows", "T(s)", "solved")
		for _, p := range exp.RunScaling(cfg, []int{4, 5, 6, 7, 8, 9, 10, 11, 12}) {
			t.AddRow(fmt.Sprint(p.Modules), fmt.Sprint(p.Flows),
				fmt.Sprintf("%.3f", p.Seconds), fmt.Sprint(p.Proven))
		}
		fmt.Println(t.String())
		save("scaling.txt", t.String())
	}
	if want("gru") {
		fmt.Println("== Section 2.1: GRU predecessor vs crossbar grid ==")
		cmp, err := exp.RunGRUComparison(cfg)
		if err != nil {
			fatal(err)
		}
		t := report.NewTable("topology", "TL/T conflict routable", "DRC violations")
		t.AddRow("crossbar grid (this paper)", fmt.Sprint(cmp.GridFeasible), fmt.Sprint(cmp.GridDRC))
		t.AddRow("GRU (predecessor)", fmt.Sprint(cmp.GRUFeasible), fmt.Sprint(cmp.GRUDRC))
		fmt.Println(t.String())
		save("gru-comparison.txt", t.String())
	}
	if want("stress") {
		fmt.Println("== Section 5 stress case: 13-module mRNA on 16-pin ==")
		row := exp.RunStress(cfg)
		text := report.Table41([]report.ResultRow{row})
		fmt.Println(text)
		save("stress.txt", text)
	}
	if want("figures") && *out != "" {
		figs, err := exp.WriteFigures(cfg, plans41, syn42)
		if err != nil {
			fatal(err)
		}
		files = append(files, figs...)
	}

	if len(files) > 0 {
		fmt.Println("written:")
		for _, f := range files {
			fmt.Println("  " + f)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
