package search

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"switchsynth/internal/cases"
	"switchsynth/internal/contam"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// seedSpec is a 12-pin instance with conflicts: small enough to prove
// quickly, large enough that the DFS visits many leaves (so a wrong
// seed tie-break would actually change which leaf wins).
func seedSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "seed-base",
		SwitchPins: 12,
		Modules:    []string{"a", "b", "o1", "o2", "o3", "o4"},
		Flows: []spec.Flow{
			{From: "a", To: "o1"}, {From: "a", To: "o2"},
			{From: "b", To: "o3"}, {From: "b", To: "o4"},
		},
		Conflicts: [][2]int{{0, 2}, {1, 3}},
		Binding:   spec.Unfixed,
	}
}

func encodePlan(t *testing.T, res *spec.Result) []byte {
	t.Helper()
	data, err := planio.Encode(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

func seedDelta(t *testing.T, f func()) (adopted, rejected int64) {
	t.Helper()
	a0, r0 := SeedCounters()
	f()
	a1, r1 := SeedCounters()
	return a1 - a0, r1 - r0
}

// TestSeededMatchesColdByteForByte is the core determinism guarantee:
// seeding with any valid plan — including the optimum itself, the
// hardest tie-break case — must reproduce the cold proven plan
// byte-for-byte at every worker count.
func TestSeededMatchesColdByteForByte(t *testing.T) {
	sp := seedSpec()
	cold, err := Solve(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldBytes := encodePlan(t, cold)

	greedy, err := GreedyFirstFit(seedSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		for name, seed := range map[string]*spec.Result{
			"optimum": cold, // equal-cost seed: pure tie-break stress
			"greedy":  greedy,
		} {
			adopted, rejected := seedDelta(t, func() {
				res, err := Solve(seedSpec(), Options{Workers: workers, SeedIncumbent: seed})
				if err != nil {
					t.Fatalf("workers=%d seed=%s: %v", workers, name, err)
				}
				if !res.Proven {
					t.Fatalf("workers=%d seed=%s: not proven", workers, name)
				}
				if got := encodePlan(t, res); !bytes.Equal(got, coldBytes) {
					t.Errorf("workers=%d seed=%s: seeded plan differs from cold plan\ncold:   %s\nseeded: %s",
						workers, name, coldBytes, got)
				}
			})
			if adopted != 1 || rejected != 0 {
				t.Errorf("workers=%d seed=%s: counters adopted=%d rejected=%d, want 1/0",
					workers, name, adopted, rejected)
			}
		}
	}
}

// TestPropertySelfSeededMatchesCold is the randomized form of the
// guarantee above, over 200 generated specs: a solve seeded with its own
// optimum (the hardest tie-break case — the seed matches the canonical
// leaf's cost exactly) is byte-identical to the cold solve.
func TestPropertySelfSeededMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("200-spec property sweep")
	}
	const timeLimit = 10 * time.Second
	var proven, infeasible int
	for _, c := range cases.Artificial(200, 20260808) {
		sp := c.Spec
		cold, err := Solve(sp, Options{TimeLimit: timeLimit})
		if err != nil {
			var nosol *spec.ErrNoSolution
			if !errors.As(err, &nosol) {
				t.Fatalf("%s: cold solve: %v", sp.Name, err)
			}
			infeasible++
			continue
		}
		if !cold.Proven {
			continue // timed out: nothing canonical to compare against
		}
		proven++
		self, err := Solve(sp, Options{TimeLimit: timeLimit, SeedIncumbent: cold})
		if err != nil {
			t.Fatalf("%s: self-seeded solve: %v", sp.Name, err)
		}
		if !bytes.Equal(encodePlan(t, cold), encodePlan(t, self)) {
			t.Fatalf("%s: self-seeded plan differs from cold", sp.Name)
		}
	}
	if proven == 0 {
		t.Fatal("no proven cases — the sweep tested nothing")
	}
	t.Logf("200 specs: %d proven, %d infeasible", proven, infeasible)
}

// TestSeedReindexedAcrossFlowPermutation: a seed solved under a permuted
// flow order must be re-indexed onto the target spec's order and still
// reproduce the cold plan exactly.
func TestSeedReindexedAcrossFlowPermutation(t *testing.T) {
	sp := seedSpec()
	cold, err := Solve(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perm := seedSpec()
	perm.Flows = []spec.Flow{
		{From: "b", To: "o4"}, {From: "a", To: "o2"},
		{From: "b", To: "o3"}, {From: "a", To: "o1"},
	}
	perm.Conflicts = [][2]int{{3, 2}, {1, 0}}
	seed, err := Solve(perm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adopted, rejected := seedDelta(t, func() {
		res, err := Solve(seedSpec(), Options{SeedIncumbent: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodePlan(t, res), encodePlan(t, cold)) {
			t.Error("permuted-flow seed changed the proven plan")
		}
	})
	if adopted != 1 || rejected != 0 {
		t.Errorf("counters adopted=%d rejected=%d, want 1/0", adopted, rejected)
	}
}

// TestStaleSeedRejected: a seed whose recorded objective disagrees with
// its own plan is stale and must be ignored (counted, never fatal).
func TestStaleSeedRejected(t *testing.T) {
	sp := seedSpec()
	cold, err := Solve(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := *cold
	stale.Objective += 1.0
	adopted, rejected := seedDelta(t, func() {
		res, err := Solve(seedSpec(), Options{SeedIncumbent: &stale})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodePlan(t, res), encodePlan(t, cold)) {
			t.Error("stale seed changed the proven plan")
		}
	})
	if adopted != 0 || rejected != 1 {
		t.Errorf("counters adopted=%d rejected=%d, want 0/1", adopted, rejected)
	}
}

// TestInfeasibleSeedRejected covers seeds that fail re-verification:
// a plan mutated into a contamination violation, and a plan missing a
// module binding.
func TestInfeasibleSeedRejected(t *testing.T) {
	sp := seedSpec()
	cold, err := Solve(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Two modules forced onto the same pin: the plan's recomputed
	// objective is unchanged (routes untouched) so only the full
	// re-verification can catch it — and must.
	broken := *cold
	broken.PinOf = make(map[string]int, len(cold.PinOf))
	for name, p := range cold.PinOf {
		broken.PinOf[name] = p
	}
	broken.PinOf["o2"] = broken.PinOf["o1"]
	adopted, rejected := seedDelta(t, func() {
		if _, err := Solve(seedSpec(), Options{SeedIncumbent: &broken}); err != nil {
			t.Fatal(err)
		}
	})
	if adopted != 0 || rejected != 1 {
		t.Errorf("duplicate-pin seed: adopted=%d rejected=%d, want 0/1", adopted, rejected)
	}

	// Missing module binding.
	unbound := *cold
	unbound.PinOf = map[string]int{"a": cold.PinOf["a"]}
	adopted, rejected = seedDelta(t, func() {
		if _, err := Solve(seedSpec(), Options{SeedIncumbent: &unbound}); err != nil {
			t.Fatal(err)
		}
	})
	if adopted != 0 || rejected != 1 {
		t.Errorf("unbound seed: adopted=%d rejected=%d, want 0/1", adopted, rejected)
	}
}

// TestWrongSpecSeedRejected: a plan for an unrelated spec must never be
// adopted.
func TestWrongSpecSeedRejected(t *testing.T) {
	other := &spec.Spec{
		Name:       "seed-other",
		SwitchPins: 12,
		Modules:    []string{"x", "y1", "y2"},
		Flows:      []spec.Flow{{From: "x", To: "y1"}, {From: "x", To: "y2"}},
		Binding:    spec.Unfixed,
	}
	seed, err := Solve(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adopted, rejected := seedDelta(t, func() {
		if _, err := Solve(seedSpec(), Options{SeedIncumbent: seed}); err != nil {
			t.Fatal(err)
		}
	})
	if adopted != 0 || rejected != 1 {
		t.Errorf("counters adopted=%d rejected=%d, want 0/1", adopted, rejected)
	}
}

// TestSeededTimeoutReturnsSeedAsDegraded: when the deadline expires
// before the search beats the seed, the seed itself is the degraded
// incumbent — no greedy fallback, no ErrTimeout.
func TestSeededTimeoutReturnsSeedAsDegraded(t *testing.T) {
	seed, err := GreedyFirstFit(anytimeSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(anytimeSpec(), Options{TimeLimit: time.Nanosecond, SeedIncumbent: seed})
	if err != nil {
		t.Fatalf("seeded timeout must return the seed, got err = %v", err)
	}
	if res.Proven {
		return // solved inside the nanosecond somehow; nothing degraded to check
	}
	if !res.Degraded {
		t.Error("timeout plan not tagged Degraded")
	}
	if res.Objective > seed.Objective+1e-9 {
		t.Errorf("timeout plan objective %v worse than seed %v", res.Objective, seed.Objective)
	}
	if verr := contam.Verify(res); verr != nil {
		t.Errorf("timeout plan failed verification: %v", verr)
	}
}
