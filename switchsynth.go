// Package switchsynth synthesizes contamination-free microfluidic switches
// for continuous-flow microfluidic large-scale integration (mLSI) biochips.
//
// It reproduces the system of "Contamination-Free Switch Design and
// Synthesis for Microfluidic Large-Scale Integration" (Shen, TU München /
// DATE 2022 line of work): reconfigurable 8-, 12- and 16-pin crossbar-like
// switch models are reduced to application-specific switches by an exact
// optimizer that simultaneously
//
//   - assigns every fluid flow to a shortest routing path,
//   - keeps conflicting fluids node- and segment-disjoint at all times,
//   - schedules flows into a minimum number of parallel-executable flow
//     sets (within a set, each junction carries fluid of one inlet only),
//   - binds the connected modules to switch pins under a fixed, clockwise
//     or unfixed policy, and
//   - minimizes α·N_Sets + β·L_flow (flow-set count and channel length).
//
// After routing, the valve analysis derives per-set open/closed/don't-care
// status sequences, removes unnecessary valves (the "carry" rule), and the
// optional pressure-sharing step groups compatible valves onto shared
// control inlets via minimum clique cover.
//
// # Quick start
//
//	sp := &switchsynth.Spec{
//		Name:       "demo",
//		SwitchPins: 8,
//		Modules:    []string{"sample", "buffer", "mix1", "mix2"},
//		Flows: []switchsynth.Flow{
//			{From: "sample", To: "mix1"},
//			{From: "buffer", To: "mix2"},
//		},
//		Conflicts: [][2]int{{0, 1}},
//		Binding:   switchsynth.Unfixed,
//	}
//	syn, err := switchsynth.Synthesize(sp, switchsynth.Options{PressureSharing: true})
//	if err != nil { ... }
//	fmt.Println(syn.Summary())
//	os.WriteFile("switch.svg", []byte(syn.SVG()), 0o644)
//
// The optimizer is the dedicated branch-and-bound search. The paper's IQP,
// encoded as a MILP in internal/model, optimizes the same model and stays a
// reproduction and correctness oracle (cmd/switchsynth -engine iqp); see
// DESIGN.md for the substitution notes.
package switchsynth

import (
	"context"
	"fmt"
	"strings"
	"time"

	"switchsynth/internal/clique"
	"switchsynth/internal/contam"
	"switchsynth/internal/ctrl"
	"switchsynth/internal/render"
	"switchsynth/internal/search"
	"switchsynth/internal/sim"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
	"switchsynth/internal/valve"
	"switchsynth/internal/wash"
)

// Re-exported input types. See the spec package for field documentation.
type (
	// Spec is the synthesis input: switch size, modules, flows, conflicts
	// and binding policy.
	Spec = spec.Spec
	// Flow is one fluid transport between two modules.
	Flow = spec.Flow
	// BindingPolicy selects how modules are bound to switch pins.
	BindingPolicy = spec.BindingPolicy
	// Result is the routed, scheduled and bound switch plan.
	Result = spec.Result
	// Route is one flow's scheduled path.
	Route = spec.Route
	// ErrNoSolution reports proven infeasibility under the chosen policy.
	ErrNoSolution = spec.ErrNoSolution
	// ErrTimeout reports that the time limit (or context) expired before
	// any feasible plan was found, so callers classify timeouts with
	// errors.Is(err, &switchsynth.ErrTimeout{}) or errors.As — never by
	// matching error strings. It unwraps to context.DeadlineExceeded (or
	// the cancelled context's error).
	ErrTimeout = search.ErrTimeout
)

// CanonicalKey returns a stable content hash identifying sp's
// equivalence class under the spec's presentation symmetries: module
// order (sorted for fixed/unfixed binding, minimal rotation for the
// cyclic clockwise order), flow order, and conflict-pair order and
// orientation. Specs with equal keys describe the same synthesis
// problem and are served from one cache entry by the service layer
// (internal/service, cmd/synthd).
func CanonicalKey(sp *Spec) (string, error) { return sp.CanonicalKey() }

// Binding policies.
const (
	Fixed     = spec.Fixed
	Clockwise = spec.Clockwise
	Unfixed   = spec.Unfixed
)

// Topology selectors for Spec.Topology. The zero value (empty string)
// is the crossbar switch; TopologyFPVA selects an R×C fully
// programmable valve array with Spec.GridRows/GridCols.
const (
	TopologyCrossbar = spec.TopologyCrossbar
	TopologyFPVA     = spec.TopologyFPVA
)

// Options control synthesis.
type Options struct {
	// TimeLimit bounds the optimization; on expiry the best plan found so
	// far is returned with Result.Proven == false (or an error if none).
	// Zero means no limit.
	TimeLimit time.Duration
	// PressureSharing additionally groups the essential valves into
	// minimum pressure-sharing cliques (Section 3.5).
	PressureSharing bool
	// RouteControl additionally routes the control layer: one Manhattan
	// control net per pressure group (or per valve without pressure
	// sharing), from a border control-inlet punch to every valve it
	// drives. This implements the thesis' declared future work.
	RouteControl bool
	// SolverWorkers is the number of branch-and-bound goroutines the
	// search engine explores the tree with (0 or 1 = sequential). The
	// plan is bit-identical for every value — the worker count is a pure
	// throughput knob and never partitions result caches.
	SolverWorkers int
	// SeedIncumbent, when non-nil, warm-starts the search engine with a
	// previously found plan for an equivalent spec: the seed is
	// re-validated and installed as the starting incumbent so the branch
	// and bound opens with a tight upper bound. Seeding never changes
	// the answer — a seeded solve that completes emits a byte-identical
	// proven plan to a cold one — and an invalid seed is counted and
	// ignored, never fatal.
	SeedIncumbent *Result
	// OnIncumbent, when non-nil, receives each successively better
	// anytime incumbent while the solve is still running: a degraded
	// snapshot Result with LowerBound and Gap filled. This powers the
	// service layer's streaming-refinement mode. The callback may fire
	// concurrently from multiple solver goroutines (see
	// search.Options.OnIncumbent for the exact contract).
	OnIncumbent func(*Result)
}

// Synthesis bundles the routing plan with the control-layer analyses.
type Synthesis struct {
	// Result is the routed, scheduled and bound plan.
	*Result
	// Valves is the valve status/essentiality analysis of the plan.
	Valves *valve.Analysis
	// Pressure is the pressure-sharing clique cover over the essential
	// valves (nil unless Options.PressureSharing).
	Pressure *clique.Cover
	// Control is the routed control layer (nil unless Options.RouteControl).
	Control *ctrl.Plan
}

// NumValves returns the number of essential valves (the paper's #v).
func (s *Synthesis) NumValves() int { return s.Valves.NumValves() }

// ControlInlets returns the number of control inlets needed: the number of
// pressure-sharing groups if pressure sharing ran, else one per essential
// valve.
func (s *Synthesis) ControlInlets() int {
	if s.Pressure != nil {
		return s.Pressure.NumGroups()
	}
	return s.NumValves()
}

// SVG renders the synthesized switch (flow layer, valves, binding, and the
// control layer when routed).
func (s *Synthesis) SVG() string {
	return render.SVG(s.Result, s.Valves, s.Pressure, render.SVGOptions{
		ShowRemoved: true,
		Scalable:    s.Spec.Scalable,
		Title:       s.Spec.Name,
		Control:     s.Control,
	})
}

// ASCII renders the synthesized switch as terminal art.
func (s *Synthesis) ASCII() string { return render.ASCII(s.Result) }

// Summary returns a one-paragraph human-readable result summary with the
// paper's reported feature values (T, L, #v, #s).
func (s *Synthesis) Summary() string {
	var b strings.Builder
	substrate := fmt.Sprintf("%d-pin switch", s.Spec.SwitchPins)
	if s.Spec.IsFPVA() {
		substrate = fmt.Sprintf("%dx%d FPVA grid", s.Spec.GridRows, s.Spec.GridCols)
	}
	fmt.Fprintf(&b, "%s: %s, %s binding: ", s.Spec.Name, substrate, s.Spec.Binding)
	fmt.Fprintf(&b, "T=%.3fs L=%.1fmm #v=%d #s=%d", s.Runtime.Seconds(), s.Length, s.NumValves(), s.NumSets)
	if s.Pressure != nil {
		fmt.Fprintf(&b, " control-inlets=%d", s.Pressure.NumGroups())
	}
	if !s.Proven {
		b.WriteString(" (time limit hit; best plan found, optimality unproven)")
	}
	return b.String()
}

// Synthesize produces an application-specific switch for sp.
func Synthesize(sp *Spec, opts Options) (*Synthesis, error) {
	return SynthesizeContext(context.Background(), sp, opts)
}

// SynthesizeContext is Synthesize with cancellation: when ctx is
// cancelled or its deadline expires, the optimization stops and either
// the best incumbent found so far is returned (Result.Proven == false)
// or an *ErrTimeout wrapping ctx.Err(). The post-optimization analyses
// (verification, valves, pressure sharing, control routing) run to
// completion once a plan exists; they are fast relative to the solve.
func SynthesizeContext(ctx context.Context, sp *Spec, opts Options) (*Synthesis, error) {
	res, err := SolvePlan(ctx, sp, opts)
	if err != nil {
		return nil, err
	}
	return Analyze(res, opts)
}

// SolvePlan runs only the optimizer: routing, scheduling and binding,
// without the control-layer analyses. Long-running services cache the
// returned plan and run Analyze per request. Timeouts and cancellations
// surface as *ErrTimeout.
func SolvePlan(ctx context.Context, sp *Spec, opts Options) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &ErrTimeout{SpecName: sp.Name, Cause: err}
	}
	return search.Solve(sp, search.Options{
		TimeLimit:     opts.TimeLimit,
		Ctx:           ctx,
		Workers:       opts.SolverWorkers,
		SeedIncumbent: opts.SeedIncumbent,
		OnIncumbent:   opts.OnIncumbent,
	})
}

// Analyze derives the control layer for a solved plan: contamination
// verification, valve status/essentiality analysis, and the
// optional pressure-sharing cover and control routing. It accepts plans
// from SolvePlan as well as externally deserialized ones (internal/planio).
func Analyze(res *Result, opts Options) (*Synthesis, error) {
	if verr := contam.Verify(res); verr != nil {
		return nil, fmt.Errorf("switchsynth: internal error, plan failed verification: %w", verr)
	}
	va, err := valve.Analyze(res)
	if err != nil {
		return nil, err
	}
	syn := &Synthesis{Result: res, Valves: va}
	if opts.PressureSharing {
		cover := clique.MinCover(valve.CompatibilityMatrix(va.EssentialValves()))
		syn.Pressure = &cover
	}
	if opts.RouteControl {
		plan, err := ctrl.Route(res, va, syn.Pressure)
		if err != nil {
			return nil, err
		}
		if err := ctrl.Verify(plan, res, va); err != nil {
			return nil, fmt.Errorf("switchsynth: internal error, control plan failed verification: %w", err)
		}
		syn.Control = plan
	}
	return syn, nil
}

// Verify re-checks a plan against every contamination, collision, binding
// and structural rule. Synthesize already verifies internally; this is for
// externally constructed or deserialized plans.
func Verify(res *Result) error { return contam.Verify(res) }

// NewSwitch constructs the full (unreduced) N-pin switch model, N ∈ {8, 12,
// 16}. Useful for inspecting the topology the synthesizer reduces.
func NewSwitch(numPins int) (*topo.Switch, error) { return topo.NewGrid(numPins) }

// BaselineReport quantifies what happens to a spec's flows on a
// contamination-unaware Columba-style spine switch: the comparison behind
// the paper's Figures 4.1(d) and 4.2(c)(d).
type BaselineReport struct {
	// PollutedPairs counts the conflicting flow pairs that share a node or
	// segment on the spine.
	PollutedPairs int
	// ContaminatedNodes and ContaminatedSegments count the polluted
	// junctions and channel segments.
	ContaminatedNodes    int
	ContaminatedSegments int
	// SVG draws the polluted spine routing.
	SVG string
}

// SpineBaseline routes sp's flows on a Columba-style spine-with-junctions
// switch (modules bound sequentially, every flow on its unique spine route)
// and reports the resulting contamination. The paper's switch avoids by
// construction what this baseline cannot.
func SpineBaseline(sp *Spec) (*BaselineReport, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	spine, err := topo.NewSpine(len(sp.Modules))
	if err != nil {
		return nil, err
	}
	pinOf := contam.SourceFirstBinding(sp, spine)
	routes, err := contam.BaselineRoutes(sp, spine, pinOf)
	if err != nil {
		return nil, err
	}
	rep := contam.Analyze(sp, spine, routes)
	res := &Result{
		Spec:   sp,
		Switch: spine,
		PinOf:  pinOf,
		Routes: routes,
		Engine: "spine-baseline",
	}
	res.Normalize()
	svg := render.SVG(res, nil, nil, render.SVGOptions{
		ShowRemoved: true,
		Title:       fmt.Sprintf("%s on Columba-style spine (%d polluted pairs)", sp.Name, len(rep.PollutedPairs)),
	})
	return &BaselineReport{
		PollutedPairs:        len(rep.PollutedPairs),
		ContaminatedNodes:    len(rep.ContaminatedVertices),
		ContaminatedSegments: len(rep.ContaminatedEdges),
		SVG:                  svg,
	}, nil
}

// WashPlan is a wash-aware schedule produced by SynthesizeWithWashes.
type WashPlan = wash.Plan

// SynthesizeWithWashes is the fallback for specs that have no strictly
// contamination-free plan under their binding policy (the paper's
// "no solution" rows): flows are routed with the collision rules only, the
// flow sets get an execution order, and wash operations (full flushes) are
// inserted between sets so that every conflicting pair that shares channels
// is separated by a wash. The number of washes is minimized.
func SynthesizeWithWashes(sp *Spec, opts Options) (*WashPlan, error) {
	plan, err := wash.Schedule(sp, wash.Options{TimeLimit: opts.TimeLimit})
	if err != nil {
		return nil, err
	}
	if err := plan.Verify(); err != nil {
		return nil, fmt.Errorf("switchsynth: internal error, wash plan failed verification: %w", err)
	}
	return plan, nil
}

// SimReport is the outcome of a fluidic simulation.
type SimReport = sim.Report

// Simulate executes the synthesis on the conservative fluidic simulator:
// flow sets run in order, valves follow their analyzed statuses (resolved
// through the shared pressure sequences when pressure sharing ran), fluids
// flood every open channel, and the report lists misroutes, collisions,
// unreached outlets and residue contaminations. A verified synthesis
// simulates clean.
func (s *Synthesis) Simulate() (*SimReport, error) {
	return sim.Run(s.Result, sim.Options{Valves: s.Valves, Pressure: s.Pressure})
}
