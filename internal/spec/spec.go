// Package spec defines the synthesis problem statement — the inputs of the
// paper's problem formulation (Section 2.3) — and the synthesized plan that
// the engines return.
//
// Input: the groups of flows to execute, the conflicting flow pairs, the
// binding policy (fixed, clockwise or unfixed) and, for clockwise binding,
// the order of the connected modules.
//
// Output: the parallel-executable flow sets, contamination-free routing
// paths, module–pin binding, the used flow channels and their total length.
package spec

import (
	"fmt"
	"math"
	"time"

	"switchsynth/internal/topo"
)

// BindingPolicy selects how modules are bound to switch pins.
type BindingPolicy int

// Binding policies from the paper.
const (
	// Fixed binds every module to the pin given in Spec.FixedPins.
	Fixed BindingPolicy = iota
	// Clockwise assigns modules to pins so that walking the module list
	// wraps exactly once clockwise around the switch (pins may be skipped).
	Clockwise
	// Unfixed lets the synthesizer choose any module-to-pin assignment.
	Unfixed
)

// String implements fmt.Stringer.
func (b BindingPolicy) String() string {
	switch b {
	case Fixed:
		return "fixed"
	case Clockwise:
		return "clockwise"
	case Unfixed:
		return "unfixed"
	}
	return "?"
}

// ParseBindingPolicy converts a policy name to its value.
func ParseBindingPolicy(s string) (BindingPolicy, error) {
	switch s {
	case "fixed":
		return Fixed, nil
	case "clockwise":
		return Clockwise, nil
	case "unfixed":
		return Unfixed, nil
	}
	return 0, fmt.Errorf("spec: unknown binding policy %q", s)
}

// Flow is one fluid transport: from a source module to a destination module.
type Flow struct {
	// From and To are module names. From is the inlet side.
	From string `json:"from"`
	To   string `json:"to"`
}

// Spec is the full synthesis input.
type Spec struct {
	// Name labels the case in reports.
	Name string `json:"name"`
	// SwitchPins is the switch model size. The paper's sizes are 8, 12
	// and 16; this library additionally supports 20 and 24 (the "larger
	// switch structures" of the paper's future work). Crossbar topology
	// only: FPVA specs leave it zero and derive their port count from
	// the grid dimensions (see Ports).
	SwitchPins int `json:"switchPins"`
	// Topology selects the switch substrate: "" or "crossbar" (the
	// paper's reconfigurable crossbar, the default) or "fpva" (a fully
	// programmable valve array — an N×M junction grid with a valve on
	// every channel segment and boundary I/O ports, sized by GridRows ×
	// GridCols). The zero value keeps every pre-existing spec byte-for-
	// byte compatible.
	Topology string `json:"topology,omitempty"`
	// GridRows and GridCols are the FPVA junction-grid dimensions
	// (Topology == "fpva" only; both must be ≥ 2 and their product at
	// most MaxGridCells).
	GridRows int `json:"gridRows,omitempty"`
	GridCols int `json:"gridCols,omitempty"`
	// Modules lists the connected modules. For the clockwise policy the
	// list order is the user-defined clockwise order.
	Modules []string `json:"modules"`
	// Flows lists the fluid transports to route.
	Flows []Flow `json:"flows"`
	// Conflicts lists pairs of flow indices whose fluids must never share a
	// node or segment (the paper's set CF).
	Conflicts [][2]int `json:"conflicts,omitempty"`
	// Binding selects the module-to-pin binding policy.
	Binding BindingPolicy `json:"binding"`
	// FixedPins maps module name to clockwise pin order (Fixed policy only).
	FixedPins map[string]int `json:"fixedPins,omitempty"`
	// Alpha weights the number of flow sets in the objective (default 1).
	Alpha float64 `json:"alpha,omitempty"`
	// Beta weights the flow channel length in mm (default 100, the paper's
	// setting).
	Beta float64 `json:"beta,omitempty"`
	// MaxSets caps the number of flow sets (default: number of flows).
	MaxSets int `json:"maxSets,omitempty"`
	// Scalable requests the Columba-S-compatible drawing variant; it does
	// not change the routing topology.
	Scalable bool `json:"scalable,omitempty"`
}

// Default objective weights (Section 4: α = 1, β = 100).
const (
	DefaultAlpha = 1
	DefaultBeta  = 100
)

// Topology names accepted by Spec.Topology. The empty string is the
// canonical crossbar spelling; TopologyCrossbar is accepted as an
// explicit alias and normalized away by Canonical.
const (
	TopologyCrossbar = "crossbar"
	TopologyFPVA     = "fpva"
)

// MaxGridCells caps an FPVA spec's junction count (GridRows × GridCols).
// The bound keeps the worst-case topology inside the fixed 256-bit
// vertex/edge masks of the synthesis engines: at 100 cells the most
// extreme aspect ratio (2×50) still needs only 204 vertices and 252
// edges.
const MaxGridCells = 100

// IsFPVA reports whether the spec targets the FPVA grid topology.
func (s *Spec) IsFPVA() bool { return s.Topology == TopologyFPVA }

// Ports returns the number of boundary I/O ports of the spec's switch:
// SwitchPins for the crossbar, 2·(GridRows+GridCols) for an FPVA grid.
// Every pin-order range in the codebase (bindings, fixed pins, route
// endpoints) is [0, Ports()).
func (s *Spec) Ports() int {
	if s.IsFPVA() {
		return 2 * (s.GridRows + s.GridCols)
	}
	return s.SwitchPins
}

// SharedSwitch returns the process-shared switch model for the spec's
// topology, without a path table (plan decoding does not need one).
func (s *Spec) SharedSwitch() (*topo.Switch, error) {
	if s.IsFPVA() {
		return topo.SharedFPVASwitch(s.GridRows, s.GridCols)
	}
	return topo.SharedSwitch(s.SwitchPins)
}

// SharedTopology returns the process-shared switch model and path table
// for the spec's topology — the single dispatch point the synthesis
// engines use, so crossbar and FPVA specs flow through identical solver
// machinery on different substrates.
func (s *Spec) SharedTopology() (*topo.Switch, *topo.PathTable, error) {
	if s.IsFPVA() {
		return topo.SharedFPVA(s.GridRows, s.GridCols)
	}
	return topo.SharedGrid(s.SwitchPins)
}

// EffectiveAlpha returns Alpha or its default.
func (s *Spec) EffectiveAlpha() float64 {
	if s.Alpha > 0 {
		return s.Alpha
	}
	return DefaultAlpha
}

// EffectiveBeta returns Beta or its default.
func (s *Spec) EffectiveBeta() float64 {
	if s.Beta > 0 {
		return s.Beta
	}
	return DefaultBeta
}

// EffectiveMaxSets returns MaxSets or its default (one set per flow).
func (s *Spec) EffectiveMaxSets() int {
	if s.MaxSets > 0 {
		return s.MaxSets
	}
	return len(s.Flows)
}

// ModuleIndex returns the index of the named module, or -1.
func (s *Spec) ModuleIndex(name string) int {
	for i, m := range s.Modules {
		if m == name {
			return i
		}
	}
	return -1
}

// Sources returns, per flow, the module index of the flow's source.
func (s *Spec) Sources() []int {
	out := make([]int, len(s.Flows))
	for i, f := range s.Flows {
		out[i] = s.ModuleIndex(f.From)
	}
	return out
}

// Destinations returns, per flow, the module index of the flow's destination.
func (s *Spec) Destinations() []int {
	out := make([]int, len(s.Flows))
	for i, f := range s.Flows {
		out[i] = s.ModuleIndex(f.To)
	}
	return out
}

// ConflictsWith returns a symmetric lookup: m[i] is the set of flows
// conflicting with flow i.
func (s *Spec) ConflictsWith() [][]int {
	out := make([][]int, len(s.Flows))
	for _, c := range s.Conflicts {
		out[c[0]] = append(out[c[0]], c[1])
		out[c[1]] = append(out[c[1]], c[0])
	}
	return out
}

// ValidationError reports a malformed spec. Every failure of Validate is
// (or wraps) one, so service layers can classify client errors with
// errors.As instead of matching message strings.
type ValidationError struct{ msg string }

// Error implements error.
func (e *ValidationError) Error() string { return e.msg }

// errf builds a ValidationError.
func errf(format string, args ...any) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// Validate checks the spec against the model's preconditions (Section 4.2
// defaults): switch size is supported; every module is used and is
// exclusively a source or a destination; destination modules receive at most
// one flow; conflicts reference distinct flows with distinct sources and no
// pair appears twice (in either orientation); fixed binding covers every
// module with distinct, in-range pins; objective weights are finite.
func (s *Spec) Validate() error {
	if s == nil {
		return errf("spec: nil spec")
	}
	if err := s.validateTopology(); err != nil {
		return err
	}
	if len(s.Modules) == 0 {
		return errf("spec %q: no modules", s.Name)
	}
	if len(s.Modules) > s.Ports() {
		return errf("spec %q: %d modules exceed %d pins", s.Name, len(s.Modules), s.Ports())
	}
	seen := make(map[string]bool, len(s.Modules))
	for _, m := range s.Modules {
		if m == "" {
			return errf("spec %q: empty module name", s.Name)
		}
		if seen[m] {
			return errf("spec %q: duplicate module %q", s.Name, m)
		}
		seen[m] = true
	}
	if len(s.Flows) == 0 {
		return errf("spec %q: no flows", s.Name)
	}
	isSource := make(map[string]bool)
	isDest := make(map[string]bool)
	destCount := make(map[string]int)
	for i, f := range s.Flows {
		if !seen[f.From] {
			return errf("spec %q: flow %d source %q is not a module", s.Name, i, f.From)
		}
		if !seen[f.To] {
			return errf("spec %q: flow %d destination %q is not a module", s.Name, i, f.To)
		}
		if f.From == f.To {
			return errf("spec %q: flow %d has identical endpoints %q", s.Name, i, f.From)
		}
		isSource[f.From] = true
		isDest[f.To] = true
		destCount[f.To]++
	}
	for m := range isSource {
		if isDest[m] {
			return errf("spec %q: module %q is both a source and a destination (each module must be either the inlet or the outlet to the switch)", s.Name, m)
		}
	}
	for m, c := range destCount {
		if c > 1 {
			return errf("spec %q: outlet module %q receives %d flows (each outlet pin can be accessed at most once)", s.Name, m, c)
		}
	}
	for _, m := range s.Modules {
		if !isSource[m] && !isDest[m] {
			return errf("spec %q: module %q is connected but unused by any flow", s.Name, m)
		}
	}
	conflictSeen := make(map[[2]int]int, len(s.Conflicts))
	for ci, c := range s.Conflicts {
		a, b := c[0], c[1]
		if a < 0 || a >= len(s.Flows) || b < 0 || b >= len(s.Flows) {
			return errf("spec %q: conflict %d references invalid flow index (pair [%d %d], %d flows)", s.Name, ci, a, b, len(s.Flows))
		}
		if a == b {
			return errf("spec %q: conflict %d pairs flow %d with itself", s.Name, ci, a)
		}
		if s.Flows[a].From == s.Flows[b].From {
			return errf("spec %q: conflict %d pairs flows with the same inlet %q (same fluid cannot conflict with itself)", s.Name, ci, s.Flows[a].From)
		}
		key := [2]int{a, b}
		if a > b {
			key = [2]int{b, a}
		}
		if prev, dup := conflictSeen[key]; dup {
			return errf("spec %q: conflict %d duplicates conflict %d (flows %d and %d)", s.Name, ci, prev, key[0], key[1])
		}
		conflictSeen[key] = ci
	}
	if s.Binding == Fixed {
		if len(s.FixedPins) != len(s.Modules) {
			return errf("spec %q: fixed binding needs a pin for each of the %d modules, got %d", s.Name, len(s.Modules), len(s.FixedPins))
		}
		pinUsed := make(map[int]string)
		for m, p := range s.FixedPins {
			if !seen[m] {
				return errf("spec %q: fixed pin for unknown module %q", s.Name, m)
			}
			if p < 0 || p >= s.Ports() {
				return errf("spec %q: module %q pin %d out of range [0,%d)", s.Name, m, p, s.Ports())
			}
			if other, dup := pinUsed[p]; dup {
				return errf("spec %q: modules %q and %q share pin %d", s.Name, other, m, p)
			}
			pinUsed[p] = m
		}
	}
	if s.Alpha < 0 || s.Beta < 0 {
		return errf("spec %q: negative objective weights", s.Name)
	}
	if math.IsNaN(s.Alpha) || math.IsInf(s.Alpha, 0) || math.IsNaN(s.Beta) || math.IsInf(s.Beta, 0) {
		return errf("spec %q: objective weights must be finite (alpha=%v beta=%v)", s.Name, s.Alpha, s.Beta)
	}
	if s.MaxSets < 0 {
		return errf("spec %q: negative MaxSets", s.Name)
	}
	return nil
}

// validateTopology checks the substrate selection: the crossbar branch
// keeps the paper's supported pin sizes and must not carry FPVA grid
// dimensions; the FPVA branch rejects degenerate (0- or 1-dimensional)
// and oversized grids with typed ValidationErrors and derives its port
// count from the dimensions, so SwitchPins must stay unset.
func (s *Spec) validateTopology() error {
	switch s.Topology {
	case "", TopologyCrossbar:
		if s.GridRows != 0 || s.GridCols != 0 {
			return errf("spec %q: grid dimensions %dx%d are only valid with topology %q (crossbar sizes come from switchPins)",
				s.Name, s.GridRows, s.GridCols, TopologyFPVA)
		}
		switch s.SwitchPins {
		case 8, 12, 16, 20, 24:
		default:
			return errf("spec %q: switch size %d not supported (want 8, 12, 16, 20 or 24)", s.Name, s.SwitchPins)
		}
	case TopologyFPVA:
		if s.SwitchPins != 0 {
			return errf("spec %q: fpva topology derives its %d ports from the %dx%d grid; leave switchPins unset (got %d)",
				s.Name, s.Ports(), s.GridRows, s.GridCols, s.SwitchPins)
		}
		if s.GridRows < 2 || s.GridCols < 2 {
			return errf("spec %q: fpva grid %dx%d is degenerate (both dimensions must be at least 2)",
				s.Name, s.GridRows, s.GridCols)
		}
		if cells := s.GridRows * s.GridCols; cells > MaxGridCells {
			return errf("spec %q: fpva grid %dx%d has %d cells, exceeding the configured maximum of %d",
				s.Name, s.GridRows, s.GridCols, cells, MaxGridCells)
		}
	default:
		return errf("spec %q: unknown topology %q (want %q or %q)", s.Name, s.Topology, TopologyCrossbar, TopologyFPVA)
	}
	return nil
}

// Route is one synthesized flow route.
type Route struct {
	// Flow indexes Spec.Flows.
	Flow int
	// Set is the flow set (execution phase) the flow is scheduled in.
	Set int
	// Path is the chosen contamination-checked path, inlet pin → outlet pin.
	Path topo.Path
}

// Result is a synthesized application-specific switch plan.
type Result struct {
	// Spec echoes the input.
	Spec *Spec
	// Switch is the full switch model the plan routes on. The
	// application-specific switch keeps exactly the UsedEdges of it.
	Switch *topo.Switch
	// PinOf maps module name to the clockwise pin order it is bound to.
	PinOf map[string]int
	// Routes holds one entry per flow, in flow order.
	Routes []Route
	// NumSets is the number of non-empty flow sets.
	NumSets int
	// UsedEdgeMask is the bitset of switch edge IDs used by any route.
	UsedEdgeMask topo.Bits
	// Length is the total length in mm of the used flow channels (the
	// channel length of the reduced, application-specific switch).
	Length float64
	// Objective is α·NumSets + β·Length.
	Objective float64
	// Proven reports whether the engine proved the plan optimal.
	Proven bool
	// Degraded reports that the plan was returned without an optimality
	// proof because a resource limit (deadline, cancellation) cut the
	// optimization short: the best incumbent found so far, or a greedy
	// first-fit fallback plan. Degraded plans still satisfy every
	// feasibility rule and pass contam.Verify.
	Degraded bool
	// LowerBound is the best proven lower bound on the objective. For a
	// proven plan it equals Objective; for a degraded plan it is the
	// admissible root bound the search established before being cut off.
	LowerBound float64
	// Gap is the relative optimality gap (Objective − LowerBound) /
	// Objective, in [0, 1]. Zero for proven plans.
	Gap float64
	// Runtime is the wall-clock synthesis time.
	Runtime time.Duration
	// Engine names the engine that produced the plan.
	Engine string
}

// UsedEdges returns the IDs of the used switch edges in ascending order.
func (r *Result) UsedEdges() []int {
	var out []int
	for e := range r.Switch.Edges {
		if r.UsedEdgeMask.Has(e) {
			out = append(out, e)
		}
	}
	return out
}

// SetOf returns the routes grouped by flow set.
func (r *Result) SetOf() [][]Route {
	out := make([][]Route, r.NumSets)
	for _, rt := range r.Routes {
		out[rt.Set] = append(out[rt.Set], rt)
	}
	return out
}

// ErrNoSolution is returned by engines that prove the spec infeasible under
// its binding policy — the paper's "no solution" table entries.
type ErrNoSolution struct {
	SpecName string
	Policy   BindingPolicy
}

// Error implements error.
func (e *ErrNoSolution) Error() string {
	return fmt.Sprintf("no solution for %q under %s binding", e.SpecName, e.Policy)
}
