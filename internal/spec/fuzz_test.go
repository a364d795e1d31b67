package spec

import (
	"errors"
	"fmt"
	"testing"
)

// FuzzValidate hammers Validate with structurally diverse specs across
// both topologies. The properties: Validate never panics; every
// rejection is a typed *ValidationError; and every accepted spec is
// fully usable — its port count is positive and consistent, its shared
// switch model resolves with a matching port count, and its canonical
// key is computable and stable under canonicalization.
func FuzzValidate(f *testing.F) {
	f.Add("", 8, 0, 0, uint8(1), uint8(2), uint8(0), false)
	f.Add("crossbar", 12, 0, 0, uint8(2), uint8(3), uint8(1), false)
	f.Add("fpva", 0, 3, 4, uint8(2), uint8(2), uint8(2), false)
	f.Add("fpva", 0, 2, 2, uint8(1), uint8(1), uint8(0), true)
	f.Add("fpva", 8, 1, 200, uint8(1), uint8(1), uint8(0), false)
	f.Add("torus", 8, 3, 3, uint8(1), uint8(1), uint8(0), false)
	f.Add("fpva", 0, -5, 1<<30, uint8(9), uint8(0), uint8(255), true)

	f.Fuzz(func(t *testing.T, topology string, pins, rows, cols int, nIn, nOut, conflictMask uint8, fixed bool) {
		sp := &Spec{
			Name:       "fuzz",
			Topology:   topology,
			SwitchPins: pins,
			GridRows:   rows,
			GridCols:   cols,
			Binding:    Unfixed,
		}
		// Deterministic module/flow structure from the counts: each
		// inlet feeds outlets round-robin so every module is used.
		in := int(nIn%8) + 1
		out := int(nOut%8) + 1
		for i := 0; i < in; i++ {
			sp.Modules = append(sp.Modules, fmt.Sprintf("in%d", i+1))
		}
		for i := 0; i < out; i++ {
			sp.Modules = append(sp.Modules, fmt.Sprintf("out%d", i+1))
			sp.Flows = append(sp.Flows, Flow{
				From: fmt.Sprintf("in%d", i%in+1),
				To:   fmt.Sprintf("out%d", i+1),
			})
		}
		for i := 0; i+1 < len(sp.Flows) && i < 8; i++ {
			if conflictMask&(1<<i) != 0 {
				sp.Conflicts = append(sp.Conflicts, [2]int{i, i + 1})
			}
		}
		if fixed {
			sp.Binding = Fixed
			sp.FixedPins = map[string]int{}
			for i, m := range sp.Modules {
				sp.FixedPins[m] = i
			}
		}

		err := sp.Validate()
		if err != nil {
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("Validate returned %T, want *ValidationError: %v", err, err)
			}
			return
		}

		// Accepted: the derived port count must be positive, bound the
		// modules, and agree with the shared switch model.
		ports := sp.Ports()
		if ports <= 0 {
			t.Fatalf("accepted spec has %d ports", ports)
		}
		if len(sp.Modules) > ports {
			t.Fatalf("accepted spec binds %d modules on %d ports", len(sp.Modules), ports)
		}
		sw, errSw := sp.SharedSwitch()
		if errSw != nil {
			t.Fatalf("accepted spec has no switch model: %v", errSw)
		}
		if sw.NumPins != ports {
			t.Fatalf("switch has %d pins, Ports() says %d", sw.NumPins, ports)
		}
		if sp.IsFPVA() != (sw.Kind == "fpva") {
			t.Fatalf("topology %q resolved to switch kind %q", sp.Topology, sw.Kind)
		}

		// Canonicalization must succeed and be a fixed point key-wise.
		key, errKey := sp.CanonicalKey()
		if errKey != nil {
			t.Fatalf("accepted spec has no canonical key: %v", errKey)
		}
		canon, _, errCanon := sp.Canonical()
		if errCanon != nil {
			t.Fatalf("accepted spec does not canonicalize: %v", errCanon)
		}
		if errV := canon.Validate(); errV != nil {
			t.Fatalf("canonical spec fails validation: %v", errV)
		}
		key2, errKey2 := canon.CanonicalKey()
		if errKey2 != nil || key2 != key {
			t.Fatalf("canonicalization changed the key: %q vs %q (%v)", key, key2, errKey2)
		}
	})
}
