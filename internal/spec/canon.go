// Canonicalization of synthesis specs.
//
// Two specs that differ only in presentation — the order of the module
// list (where the policy permits), the order of the flow list, or the
// order and orientation of the conflict pairs — describe the same
// synthesis problem and admit the same plans. Canonical maps every
// member of such an equivalence class to one canonical presentation and
// its hash, the canonical key, so a service-level result cache can solve
// the class once and serve every member from the single stored plan
// (adapted back onto the requesting spec's flow indexing).
//
// The normalizations mirror the symmetries the engines already exploit:
//
//   - Unfixed and Fixed binding: the module list order carries no
//     meaning (unfixed lets the solver pick any pin; fixed pins are
//     keyed by name), so modules are sorted. This is the spec-level
//     analog of the rotational pin-symmetry cut in internal/search.
//   - Clockwise binding: the module list is a cyclic order — rotating
//     it yields the identical feasibility region (the engine's descent
//     count is rotation-invariant) — so the list is rotated to its
//     lexicographically smallest rotation. Reversal is NOT a symmetry
//     (it turns clockwise into counter-clockwise) and is not applied.
//   - Flows: sorted by (From, To). Conflict pairs follow the flow
//     permutation, are oriented low-index-first, sorted and deduplicated.
//   - The "crossbar" topology alias is folded to the default "".
//   - Name and Scalable are presentation-only: the canonical form clears
//     them, so nothing derived from it names the spec that produced it.
//   - The objective weights and set cap enter the key via their
//     effective values, so the canonical form spells a default one as
//     0: Alpha 1, Beta 100 and a MaxSets equal to the flow count all
//     fold to 0 (a 0 MaxSets keeps tracking the flow count when a
//     derived spec drops a flow). FixedPins bind nothing outside the
//     fixed policy and enter the key only under it, so the canonical
//     form of any other binding carries none.
package spec

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Canonical returns a semantically identical copy of s in canonical
// presentation together with its canonical key: the stable hex digest
// identifying s's equivalence class under the presentation symmetries
// above. Every member of one class maps to the same key and to the same
// presentation, field for field, so solving the canonical spec yields
// one deterministic plan per class — independent of which member
// triggered the solve. An invalid spec, a nil one included, is a
// *ValidationError.
func (s *Spec) Canonical() (*Spec, string, error) {
	if err := s.Validate(); err != nil {
		return nil, "", err
	}
	c := *s
	c.Name, c.Scalable = "", false
	if c.Topology == TopologyCrossbar {
		c.Topology = ""
	}
	if c.Alpha == DefaultAlpha {
		c.Alpha = 0
	}
	if c.Beta == DefaultBeta {
		c.Beta = 0
	}
	if c.MaxSets == len(c.Flows) {
		c.MaxSets = 0
	}
	if c.Binding != Fixed {
		c.FixedPins = nil
	}
	c.Modules = s.canonicalModules()
	perm := s.CanonicalFlowOrder()
	c.Flows = make([]Flow, len(perm))
	pos := make([]int, len(perm)) // original index -> canonical index
	for ci, fi := range perm {
		c.Flows[ci] = s.Flows[fi]
		pos[fi] = ci
	}
	c.Conflicts = s.canonicalConflicts(pos)
	return &c, c.key(), nil
}

// Equal reports whether s and o spell every field alike; a nil and an
// empty list or map are alike.
func (s *Spec) Equal(o *Spec) bool {
	return s.Name == o.Name && s.SwitchPins == o.SwitchPins && s.Topology == o.Topology &&
		s.GridRows == o.GridRows && s.GridCols == o.GridCols &&
		slices.Equal(s.Modules, o.Modules) && slices.Equal(s.Flows, o.Flows) &&
		slices.Equal(s.Conflicts, o.Conflicts) && s.Binding == o.Binding &&
		maps.Equal(s.FixedPins, o.FixedPins) && s.Alpha == o.Alpha && s.Beta == o.Beta &&
		s.MaxSets == o.MaxSets && s.Scalable == o.Scalable
}

// CanonicalKey returns the canonical key of s (see Canonical). Specs
// with equal keys are solvable by the same plan (modulo flow
// reindexing; see CanonicalFlowOrder).
func (s *Spec) CanonicalKey() (string, error) {
	_, key, err := s.Canonical()
	return key, err
}

// key hashes s, a canonical presentation. The rendering is frozen: every
// key ever filed — cache, store, ring position — depends on these bytes.
func (s *Spec) key() string {
	var arr [512]byte
	b := append(arr[:0], "v1|pins="...)
	b = strconv.AppendInt(b, int64(s.Ports()), 10)
	b = append(b, "|binding="...)
	b = append(b, s.Binding.String()...)
	b = append(b, "|alpha="...)
	b = strconv.AppendFloat(b, s.EffectiveAlpha(), 'g', -1, 64)
	b = append(b, "|beta="...)
	b = strconv.AppendFloat(b, s.EffectiveBeta(), 'g', -1, 64)
	b = append(b, "|maxsets="...)
	b = strconv.AppendInt(b, int64(s.EffectiveMaxSets()), 10)
	b = append(b, '\n')

	// The topology line appears only for non-crossbar substrates, so
	// every pre-existing crossbar key digest is unchanged, while an FPVA
	// spec whose port count collides with a crossbar size (e.g. a 2×2
	// grid's 8 ports vs the 8-pin crossbar) can never share its key.
	if s.IsFPVA() {
		b = append(b, "topology="+TopologyFPVA+"|rows="...)
		b = strconv.AppendInt(b, int64(s.GridRows), 10)
		b = append(b, "|cols="...)
		b = strconv.AppendInt(b, int64(s.GridCols), 10)
		b = append(b, '\n')
	}

	b = append(b, "modules="...)
	for i, m := range s.Modules {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = append(b, m...)
	}
	b = append(b, "\nflows="...)
	for i, f := range s.Flows {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = append(b, f.From...)
		b = append(b, '\x1e')
		b = append(b, f.To...)
	}
	b = append(b, "\nconflicts="...)
	for i, p := range s.Conflicts {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(p[1]), 10)
	}
	b = append(b, '\n')

	if s.Binding == Fixed {
		names := make([]string, 0, len(s.FixedPins))
		for m := range s.FixedPins {
			names = append(names, m)
		}
		slices.Sort(names)
		b = append(b, "fixedpins="...)
		for i, m := range names {
			if i > 0 {
				b = append(b, '\x1f')
			}
			b = append(b, m...)
			b = append(b, '\x1e')
			b = strconv.AppendInt(b, int64(s.FixedPins[m]), 10)
		}
		b = append(b, '\n')
	}

	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// canonicalConflicts maps the conflict pairs through pos (original flow
// index → canonical index), orients each pair low-first, sorts and
// deduplicates.
func (s *Spec) canonicalConflicts(pos []int) [][2]int {
	pairs := make([][2]int, len(s.Conflicts))
	for i, c := range s.Conflicts {
		p := [2]int{pos[c[0]], pos[c[1]]}
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		pairs[i] = p
	}
	slices.SortFunc(pairs, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return slices.Compact(pairs)
}

// canonicalModules returns the module list in canonical order: sorted
// for fixed/unfixed binding, the lexicographically smallest rotation for
// clockwise binding (whose cyclic order is semantic).
func (s *Spec) canonicalModules() []string {
	if s.Binding != Clockwise {
		mods := slices.Clone(s.Modules)
		slices.Sort(mods)
		return mods
	}
	mods := s.Modules
	best := 0
	for r := 1; r < len(mods); r++ {
		if rotationLess(mods, r, best) {
			best = r
		}
	}
	out := make([]string, 0, len(mods))
	out = append(out, mods[best:]...)
	out = append(out, mods[:best]...)
	return out
}

// rotationLess reports whether rotation a of mods sorts before rotation b.
func rotationLess(mods []string, a, b int) bool {
	n := len(mods)
	for i := 0; i < n; i++ {
		ma, mb := mods[(a+i)%n], mods[(b+i)%n]
		if ma != mb {
			return ma < mb
		}
	}
	return false
}

// CanonicalFlowOrder returns a permutation perm of the flow indices such
// that walking Flows[perm[0]], Flows[perm[1]], … visits the flows in
// canonical (From, To)-lexicographic order. Because every outlet module
// receives at most one flow (Validate's outlet-once rule), the (From,
// To) pair identifies a flow uniquely, so the permutation is total and
// deterministic for every valid spec.
func (s *Spec) CanonicalFlowOrder() []int {
	perm := make([]int, len(s.Flows))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		fa, fb := s.Flows[a], s.Flows[b]
		return cmp.Or(strings.Compare(fa.From, fb.From), strings.Compare(fa.To, fb.To))
	})
	return perm
}
