// Property tests for CanonicalKey over randomly generated specs: every
// presentation change (the symmetries documented in canon.go) preserves
// the key, and every single-element semantic mutation changes it. The
// admission tier's batch dedup and cross-batch coalescing both hang off
// this invariant — a false merge here silently serves one tenant
// another tenant's plan.
package spec

import (
	"fmt"
	"math/rand"
	"testing"
)

// genCanonSpec builds a random valid spec: a random supported switch
// size, 1–3 source modules, at least as many destination modules (each
// destination receives exactly one flow, each source feeds at least
// one), random conflicts over distinct-source flow pairs, one of the
// three binding policies and randomized objective knobs.
func genCanonSpec(rng *rand.Rand) *Spec {
	pins := []int{8, 12, 16}[rng.Intn(3)]
	nsrc := 1 + rng.Intn(3)
	maxDst := pins - nsrc - 1 // leave one pin free for the add-module mutation
	ndst := nsrc + rng.Intn(min(4, maxDst-nsrc+1))

	s := &Spec{Name: "prop", SwitchPins: pins}
	for i := 0; i < nsrc; i++ {
		s.Modules = append(s.Modules, fmt.Sprintf("s%d", i))
	}
	for j := 0; j < ndst; j++ {
		s.Modules = append(s.Modules, fmt.Sprintf("d%d", j))
	}
	for j := 0; j < ndst; j++ {
		src := j
		if src >= nsrc {
			src = rng.Intn(nsrc)
		}
		s.Flows = append(s.Flows, Flow{From: fmt.Sprintf("s%d", src), To: fmt.Sprintf("d%d", j)})
	}
	for i := 0; i < len(s.Flows); i++ {
		for j := i + 1; j < len(s.Flows); j++ {
			if s.Flows[i].From != s.Flows[j].From && rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					s.Conflicts = append(s.Conflicts, [2]int{j, i})
				} else {
					s.Conflicts = append(s.Conflicts, [2]int{i, j})
				}
			}
		}
	}
	s.Binding = BindingPolicy(rng.Intn(3))
	if s.Binding == Fixed {
		s.FixedPins = make(map[string]int, len(s.Modules))
		for i, p := range rng.Perm(pins)[:len(s.Modules)] {
			s.FixedPins[s.Modules[i]] = p
		}
	}
	if rng.Intn(2) == 0 {
		s.Alpha = 0.5 + 3*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		s.Beta = 10 + 200*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		s.MaxSets = 1 + rng.Intn(len(s.Flows))
	}
	return s
}

// repackage returns a random alternative presentation of the same
// problem: modules shuffled (rotated under clockwise binding, whose
// cyclic order is semantic), flows permuted with conflicts remapped,
// conflict pairs flipped and reordered, and the presentation-only
// fields (Name, Scalable, implicit-vs-explicit default weights)
// perturbed.
func repackage(rng *rand.Rand, s *Spec) *Spec {
	cp := *s
	cp.Modules = append([]string(nil), s.Modules...)
	if s.Binding == Clockwise {
		r := rng.Intn(len(cp.Modules))
		cp.Modules = append(append([]string{}, s.Modules[r:]...), s.Modules[:r]...)
	} else {
		rng.Shuffle(len(cp.Modules), func(a, b int) {
			cp.Modules[a], cp.Modules[b] = cp.Modules[b], cp.Modules[a]
		})
	}
	out := permuteFlows(&cp, rng.Perm(len(s.Flows)))
	for i, c := range out.Conflicts {
		if rng.Intn(2) == 0 {
			out.Conflicts[i] = [2]int{c[1], c[0]}
		}
	}
	rng.Shuffle(len(out.Conflicts), func(a, b int) {
		out.Conflicts[a], out.Conflicts[b] = out.Conflicts[b], out.Conflicts[a]
	})
	out.Name = fmt.Sprintf("repackaged-%d", rng.Int())
	out.Scalable = !s.Scalable
	if out.Alpha == 0 && rng.Intn(2) == 0 {
		out.Alpha = DefaultAlpha
	}
	if out.Beta == 0 && rng.Intn(2) == 0 {
		out.Beta = DefaultBeta
	}
	return out
}

// TestCanonicalKeyPermutationInvarianceProperty: for random specs under
// all three binding policies, any repackaging of the same problem keys
// identically, and canonicalization is idempotent (the canonical spec
// of every presentation keys to the same class).
func TestCanonicalKeyPermutationInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		s := genCanonSpec(rng)
		want := mustKey(t, s)
		for rep := 0; rep < 3; rep++ {
			p := repackage(rng, s)
			if got := mustKey(t, p); got != want {
				t.Fatalf("trial %d rep %d (binding %s): presentation change altered key\nbase: %+v\nrepackaged: %+v",
					trial, rep, s.Binding, s, p)
			}
			canon, _, err := p.Canonical()
			if err != nil {
				t.Fatalf("trial %d: Canonical: %v", trial, err)
			}
			if got := mustKey(t, canon); got != want {
				t.Fatalf("trial %d: canonical spec not in the same class as its source", trial)
			}
		}
	}
}

// canonMutation is one single-element semantic change. apply returns
// false when the mutation does not apply to this spec (e.g. no
// conflict to remove); otherwise it mutates cp in place, and cp must
// validate and key differently from its source.
type canonMutation struct {
	name  string
	apply func(rng *rand.Rand, cp *Spec) bool
}

func canonMutations() []canonMutation {
	return []canonMutation{
		{"grow-switch", func(rng *rand.Rand, cp *Spec) bool {
			switch cp.SwitchPins {
			case 8:
				cp.SwitchPins = 12
			case 12:
				cp.SwitchPins = 16
			case 16:
				cp.SwitchPins = 20
			default:
				return false
			}
			// Fixed pins stay in range: the switch only grew.
			return true
		}},
		{"reweight-alpha", func(rng *rand.Rand, cp *Spec) bool {
			cp.Alpha = cp.EffectiveAlpha() + 1
			return true
		}},
		{"reweight-beta", func(rng *rand.Rand, cp *Spec) bool {
			cp.Beta = cp.EffectiveBeta() + 1
			return true
		}},
		{"cap-sets", func(rng *rand.Rand, cp *Spec) bool {
			if len(cp.Flows) < 2 || cp.EffectiveMaxSets() == 1 {
				return false
			}
			cp.MaxSets = 1
			return true
		}},
		{"flip-binding", func(rng *rand.Rand, cp *Spec) bool {
			if cp.Binding == Unfixed {
				cp.Binding = Clockwise
			} else {
				cp.Binding = Unfixed
			}
			return true
		}},
		{"drop-conflict", func(rng *rand.Rand, cp *Spec) bool {
			if len(cp.Conflicts) == 0 {
				return false
			}
			i := rng.Intn(len(cp.Conflicts))
			cp.Conflicts = append(append([][2]int(nil), cp.Conflicts[:i]...), cp.Conflicts[i+1:]...)
			return true
		}},
		{"add-conflict", func(rng *rand.Rand, cp *Spec) bool {
			have := make(map[[2]int]bool, len(cp.Conflicts))
			for _, c := range cp.Conflicts {
				a, b := c[0], c[1]
				if a > b {
					a, b = b, a
				}
				have[[2]int{a, b}] = true
			}
			for i := 0; i < len(cp.Flows); i++ {
				for j := i + 1; j < len(cp.Flows); j++ {
					if cp.Flows[i].From != cp.Flows[j].From && !have[[2]int{i, j}] {
						cp.Conflicts = append(append([][2]int(nil), cp.Conflicts...), [2]int{i, j})
						return true
					}
				}
			}
			return false
		}},
		{"swap-flow-targets", func(rng *rand.Rand, cp *Spec) bool {
			for i := 0; i < len(cp.Flows); i++ {
				for j := i + 1; j < len(cp.Flows); j++ {
					if cp.Flows[i].From != cp.Flows[j].From {
						fl := append([]Flow(nil), cp.Flows...)
						fl[i].To, fl[j].To = fl[j].To, fl[i].To
						cp.Flows = fl
						return true
					}
				}
			}
			return false
		}},
		{"add-module-and-flow", func(rng *rand.Rand, cp *Spec) bool {
			if len(cp.Modules) >= cp.SwitchPins {
				return false
			}
			cp.Modules = append(append([]string(nil), cp.Modules...), "dnew")
			cp.Flows = append(append([]Flow(nil), cp.Flows...), Flow{From: cp.Flows[0].From, To: "dnew"})
			if cp.Binding == Fixed {
				used := make(map[int]bool, len(cp.FixedPins))
				pins := make(map[string]int, len(cp.FixedPins)+1)
				for m, p := range cp.FixedPins {
					pins[m] = p
					used[p] = true
				}
				for p := 0; p < cp.SwitchPins; p++ {
					if !used[p] {
						pins["dnew"] = p
						break
					}
				}
				cp.FixedPins = pins
			}
			return true
		}},
		{"rebind-fixed-pins", func(rng *rand.Rand, cp *Spec) bool {
			if cp.Binding != Fixed || len(cp.Modules) < 2 {
				return false
			}
			a, b := cp.Modules[0], cp.Modules[1]
			pins := make(map[string]int, len(cp.FixedPins))
			for m, p := range cp.FixedPins {
				pins[m] = p
			}
			pins[a], pins[b] = pins[b], pins[a]
			cp.FixedPins = pins
			return true
		}},
	}
}

// TestCanonicalKeyMutationSensitivityProperty: every applicable
// single-element semantic mutation of a random spec yields a valid spec
// in a DIFFERENT equivalence class. Each mutation kind must fire on at
// least one trial, so a generator drift can't silently skip a case.
func TestCanonicalKeyMutationSensitivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	muts := canonMutations()
	fired := make(map[string]int, len(muts))
	for trial := 0; trial < 300; trial++ {
		s := genCanonSpec(rng)
		want := mustKey(t, s)
		for _, m := range muts {
			cp := *s
			if !m.apply(rng, &cp) {
				continue
			}
			fired[m.name]++
			if err := cp.Validate(); err != nil {
				t.Fatalf("trial %d: mutation %q produced an invalid spec: %v\nbase: %+v", trial, m.name, err, s)
			}
			if got := mustKey(t, &cp); got == want {
				t.Errorf("trial %d: mutation %q did not change the key\nbase: %+v\nmutated: %+v", trial, m.name, s, cp)
			}
		}
	}
	for _, m := range muts {
		if fired[m.name] == 0 {
			t.Errorf("mutation %q never applied across 300 trials — generator no longer covers it", m.name)
		}
	}
}
