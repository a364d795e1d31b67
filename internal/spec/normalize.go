package spec

import (
	"fmt"

	"switchsynth/internal/topo"
)

// renumberSets relabels the plan's flow sets 0, 1, … in order of first
// use by flow index and sets NumSets to their count.
func (r *Result) renumberSets() {
	next := 0
	remap := map[int]int{}
	for i := range r.Routes {
		old := r.Routes[i].Set
		if _, ok := remap[old]; !ok {
			remap[old] = next
			next++
		}
		r.Routes[i].Set = remap[old]
	}
	r.NumSets = next
}

// DeriveCost sets UsedEdgeMask to the union of the routes' edges, Length
// to its length (Switch.MaskLength) and Objective to α·NumSets + β·Length
// under the spec's effective weights. The set labels and NumSets are left
// as they are.
func (r *Result) DeriveCost() {
	var mask topo.Bits
	for i := range r.Routes {
		mask = mask.Or(r.Routes[i].Path.EdgeMask)
	}
	r.UsedEdgeMask = mask
	r.Length = r.Switch.MaskLength(&mask, &topo.Bits{})
	r.Objective = r.Spec.EffectiveAlpha()*float64(r.NumSets) + r.Spec.EffectiveBeta()*r.Length
}

// Normalize derives every field of the plan that follows from its routes:
// renumberSets, then DeriveCost.
func (r *Result) Normalize() {
	r.renumberSets()
	r.DeriveCost()
}

// Relabel returns the plan moved onto target, a spec whose flows the plan
// covers, normalized (Normalize). Each route moves to the target flow
// with the same (From, To) — the outlet-once rule makes To unique per
// flow — and routes of flows the target lacks are dropped. PinOf is
// rebuilt by target module name. A target flow or module the plan does
// not cover is an error. The copy shares Switch and paths with r and
// keeps its provenance fields (Proven, Degraded, LowerBound, Gap,
// Runtime, Engine); r is not modified.
func (r *Result) Relabel(target *Spec) (*Result, error) {
	byTo := make(map[string]int, len(target.Flows))
	for i, f := range target.Flows {
		byTo[f.To] = i
	}
	out := &Result{
		Spec:       target,
		Switch:     r.Switch,
		PinOf:      make(map[string]int, len(target.Modules)),
		Routes:     make([]Route, len(target.Flows)),
		Proven:     r.Proven,
		Degraded:   r.Degraded,
		LowerBound: r.LowerBound,
		Gap:        r.Gap,
		Runtime:    r.Runtime,
		Engine:     r.Engine,
	}
	for i := range out.Routes {
		out.Routes[i].Set = -1 // uncovered
	}
	for _, rt := range r.Routes {
		if rt.Flow < 0 || rt.Flow >= len(r.Spec.Flows) || rt.Set < 0 {
			return nil, fmt.Errorf("spec: route for flow %d in set %d is malformed", rt.Flow, rt.Set)
		}
		f := r.Spec.Flows[rt.Flow]
		i, ok := byTo[f.To]
		if !ok || target.Flows[i].From != f.From {
			continue
		}
		if out.Routes[i].Set >= 0 {
			return nil, fmt.Errorf("spec: flow %s→%s is routed twice", f.From, f.To)
		}
		out.Routes[i] = Route{Flow: i, Set: rt.Set, Path: rt.Path}
	}
	for i, rt := range out.Routes {
		if rt.Set < 0 {
			f := target.Flows[i]
			return nil, fmt.Errorf("spec: plan has no route for flow %s→%s", f.From, f.To)
		}
	}
	for _, m := range target.Modules {
		p, ok := r.PinOf[m]
		if !ok {
			return nil, fmt.Errorf("spec: plan binds no pin to module %q", m)
		}
		out.PinOf[m] = p
	}
	out.Normalize()
	return out, nil
}
