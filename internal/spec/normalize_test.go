package spec

import "testing"

func TestRenumberSetsEdgeCases(t *testing.T) {
	// Zero flows: nothing to renumber, zero sets.
	empty := &Result{NumSets: 7}
	empty.renumberSets()
	if empty.NumSets != 0 {
		t.Errorf("zero flows: NumSets = %d, want 0", empty.NumSets)
	}

	// Single set with a gappy index compacts to 0.
	single := &Result{Routes: []Route{
		{Flow: 0, Set: 5}, {Flow: 1, Set: 5}, {Flow: 2, Set: 5},
	}}
	single.renumberSets()
	for i, r := range single.Routes {
		if r.Set != 0 {
			t.Errorf("single set: route %d set = %d, want 0", i, r.Set)
		}
	}
	if single.NumSets != 1 {
		t.Errorf("single set: NumSets = %d, want 1", single.NumSets)
	}

	// Sets renumber in first-use order by flow, not by old index.
	gappy := &Result{Routes: []Route{
		{Flow: 0, Set: 9}, {Flow: 1, Set: 2}, {Flow: 2, Set: 9}, {Flow: 3, Set: 4},
	}}
	gappy.renumberSets()
	want := []int{0, 1, 0, 2}
	for i, r := range gappy.Routes {
		if r.Set != want[i] {
			t.Errorf("gappy: route %d set = %d, want %d", i, r.Set, want[i])
		}
	}
	if gappy.NumSets != 3 {
		t.Errorf("gappy: NumSets = %d, want 3", gappy.NumSets)
	}
}
