// Command switchsynth synthesizes a contamination-free application-specific
// switch from a JSON case description.
//
// Usage:
//
//	switchsynth [-svg out.svg] [-ascii] [-pressure] [-engine search|iqp]
//	            [-timelimit 30s] case.json
//
// -engine iqp solves the paper's IQP encoding (internal/model) instead of
// the branch and bound: exact, but tractable only for small specs, and
// its time limit does not bound its memory. synthd serves only the
// branch and bound.
//
// The input file is a spec.Spec in JSON, e.g.:
//
//	{
//	  "name": "demo",
//	  "switchPins": 8,
//	  "modules": ["sample", "buffer", "mix1", "mix2"],
//	  "flows": [
//	    {"from": "sample", "to": "mix1"},
//	    {"from": "buffer", "to": "mix2"}
//	  ],
//	  "conflicts": [[0, 1]],
//	  "binding": 2
//	}
//
// binding: 0 = fixed (requires "fixedPins"), 1 = clockwise, 2 = unfixed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"switchsynth"
	"switchsynth/internal/model"
	"switchsynth/internal/planio"
)

func main() {
	var (
		svgOut    = flag.String("svg", "", "write the synthesized switch as SVG to this file")
		ascii     = flag.Bool("ascii", false, "print an ASCII rendering")
		pressure  = flag.Bool("pressure", true, "run pressure sharing")
		engine    = flag.String("engine", "", "optimizer: search (branch and bound, default) or iqp (the paper's IQP, small specs only)")
		timeLimit = flag.Duration("timelimit", 30*time.Second, "optimization time limit")
		verbose   = flag.Bool("v", false, "print routes, valve sequences and pressure groups")
		planOut   = flag.String("plan", "", "write the synthesized plan as JSON to this file (re-checkable with verifyplan)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: switchsynth [flags] case.json")
		flag.PrintDefaults()
		os.Exit(2)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var sp switchsynth.Spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", flag.Arg(0), err))
	}

	opts := switchsynth.Options{TimeLimit: *timeLimit, PressureSharing: *pressure}
	var syn *switchsynth.Synthesis
	switch *engine {
	case "", "search":
		syn, err = switchsynth.Synthesize(&sp, opts)
	case "iqp":
		var res *switchsynth.Result
		if res, err = model.Solve(&sp, model.Options{TimeLimit: *timeLimit}); err == nil {
			syn, err = switchsynth.Analyze(res, opts)
		}
	default:
		fmt.Fprintf(os.Stderr, "switchsynth: unknown -engine %q (want search or iqp)\n", *engine)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Println(syn.Summary())
	if *verbose {
		fmt.Println("\nbinding:")
		for _, m := range sp.Modules {
			fmt.Printf("  %-12s -> pin %d (%s)\n", m, syn.PinOf[m],
				syn.Switch.Vertices[syn.Switch.PinVertex(syn.PinOf[m])].Name)
		}
		fmt.Println("routes:")
		for _, rt := range syn.Routes {
			f := sp.Flows[rt.Flow]
			names := make([]string, len(rt.Path.Verts))
			for i, v := range rt.Path.Verts {
				names[i] = syn.Switch.Vertices[v].Name
			}
			fmt.Printf("  flow %d %s->%s set %d: %v (%.1f mm)\n",
				rt.Flow, f.From, f.To, rt.Set+1, names, rt.Path.Length)
		}
		fmt.Println("essential valves:")
		for _, v := range syn.Valves.EssentialValves() {
			fmt.Printf("  %-12s %s\n", syn.Switch.Edges[v.Edge].Name, v.SequenceString())
		}
		if syn.Pressure != nil {
			fmt.Printf("pressure groups (%d control inlets):\n", syn.Pressure.NumGroups())
			ess := syn.Valves.EssentialValves()
			for g, members := range syn.Pressure.Groups {
				fmt.Printf("  inlet %d:", g+1)
				for _, m := range members {
					fmt.Printf(" %s", syn.Switch.Edges[ess[m].Edge].Name)
				}
				fmt.Println()
			}
		}
	}
	if *ascii {
		fmt.Println()
		fmt.Println(syn.ASCII())
	}
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(syn.SVG()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *svgOut)
	}
	if *planOut != "" {
		data, err := planio.Encode(syn.Result)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *planOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "switchsynth:", err)
	os.Exit(1)
}
