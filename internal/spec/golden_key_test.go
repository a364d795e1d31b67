package spec

import "testing"

// goldenKeyCorpus is a fixed set of specs covering every line of the key
// rendering: each binding policy, a rotated clockwise presentation, an
// FPVA grid, the "crossbar" topology alias and explicit objective
// weights and set cap.
func goldenKeyCorpus() []struct {
	name string
	sp   *Spec
} {
	unfixed := func() *Spec {
		return &Spec{
			Name:       "unfixed",
			SwitchPins: 8,
			Modules:    []string{"sample", "buffer", "mix1", "mix2"},
			Flows:      []Flow{{From: "sample", To: "mix1"}, {From: "buffer", To: "mix2"}},
			Conflicts:  [][2]int{{0, 1}},
			Binding:    Unfixed,
		}
	}
	clockwise := func(mods ...string) *Spec {
		return &Spec{
			Name:       "clockwise",
			SwitchPins: 12,
			Modules:    mods,
			Flows: []Flow{
				{From: "a", To: "o1"}, {From: "a", To: "o2"},
				{From: "b", To: "o3"}, {From: "b", To: "o4"},
			},
			Conflicts: [][2]int{{0, 2}, {1, 3}},
			Binding:   Clockwise,
		}
	}
	permuted := unfixed()
	permuted.Name = "unfixed-permuted"
	permuted.Modules = []string{"mix2", "mix1", "buffer", "sample"}
	permuted.Flows = []Flow{{From: "buffer", To: "mix2"}, {From: "sample", To: "mix1"}}
	permuted.Conflicts = [][2]int{{1, 0}}
	alias := unfixed()
	alias.Topology = TopologyCrossbar
	weighted := unfixed()
	weighted.Alpha, weighted.Beta, weighted.MaxSets = 2.5, 40, 1
	return []struct {
		name string
		sp   *Spec
	}{
		{"unfixed", unfixed()},
		{"unfixed-permuted", permuted},
		{"fixed", &Spec{
			Name:       "fixed",
			SwitchPins: 12,
			Modules:    []string{"in", "w", "o1", "o2", "o3"},
			Flows:      []Flow{{From: "in", To: "o1"}, {From: "w", To: "o2"}, {From: "in", To: "o3"}},
			Conflicts:  [][2]int{{2, 1}},
			Binding:    Fixed,
			FixedPins:  map[string]int{"in": 0, "w": 3, "o1": 5, "o2": 7, "o3": 10},
		}},
		{"clockwise", clockwise("a", "o1", "o2", "b", "o3", "o4")},
		{"clockwise-rotated", clockwise("b", "o3", "o4", "a", "o1", "o2")},
		{"fpva", &Spec{
			Name:     "fpva",
			Topology: TopologyFPVA,
			GridRows: 2,
			GridCols: 3,
			Modules:  []string{"s", "t", "u", "v"},
			Flows:    []Flow{{From: "s", To: "u"}, {From: "t", To: "v"}},
			Binding:  Unfixed,
		}},
		{"crossbar-alias", alias},
		{"weighted", weighted},
	}
}

// TestCanonicalKeyGolden pins the hex CanonicalKey of goldenKeyCorpus.
// Keys are persisted in plan stores and placed on the cluster ring, so
// any change to their rendering — one byte is enough — orphans every
// stored plan and reshuffles ownership; it must be a deliberate,
// versioned change, never a side effect.
func TestCanonicalKeyGolden(t *testing.T) {
	want := map[string]string{
		"unfixed":           "d06df10df99ae30bbfe842249e7511d46e5c18b3f24510cfbb1a1554bd822c71",
		"unfixed-permuted":  "d06df10df99ae30bbfe842249e7511d46e5c18b3f24510cfbb1a1554bd822c71",
		"fixed":             "3bb7b762cf87d1cf5a24eff6ad0845af35986e92b4b929e286907edb31dee93d",
		"clockwise":         "3970c9793d052aa55d22655c5fca7a18fa6c5825505eabe8b4e47fcee904495b",
		"clockwise-rotated": "3970c9793d052aa55d22655c5fca7a18fa6c5825505eabe8b4e47fcee904495b",
		"fpva":              "5072c5a91d57db87947c84b4e37d40d28814d703a94f84dacfa019ad6eb2600b",
		"crossbar-alias":    "d06df10df99ae30bbfe842249e7511d46e5c18b3f24510cfbb1a1554bd822c71",
		"weighted":          "505730c6a78d2cf6d0fb212c0f82409ed64da4e8d26537b61db1a8a0d10f8fd5",
	}
	for _, c := range goldenKeyCorpus() {
		got, err := c.sp.CanonicalKey()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != want[c.name] {
			t.Errorf("%s: CanonicalKey = %s, want %s", c.name, got, want[c.name])
		}
	}
}
