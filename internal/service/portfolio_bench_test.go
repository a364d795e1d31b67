// Warm-start benchmark report: cold vs warm-started synthesis on the
// saturated 16-pin distribution ring and its one-edit neighbor family.
// Runs only when BENCH_HISTORY names the history file to append to
// (internal/benchrec); plain test runs skip it.
package service

import (
	"bytes"
	"context"
	"strconv"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/benchrec"
	"switchsynth/internal/spec"
)

// benchRing16 is the saturated 16-module distribution ring from the
// solver benchmarks (searchRing16 in bench_test.go): five inlets feed the remaining
// eleven modules round-robin under the clockwise policy, proven optimal
// in about a second sequentially. Dropping any one flow frees exactly
// that flow's outlet module, so the drop-one-flow family below is the
// one-module-delta neighborhood the similarity index adapts across.
func benchRing16(name string) *spec.Spec {
	mods := make([]string, 16)
	for i := range mods {
		mods[i] = "m" + strconv.Itoa(i)
	}
	return &spec.Spec{
		Name:       name,
		SwitchPins: 16,
		Modules:    mods,
		Flows: []spec.Flow{
			{From: mods[3], To: mods[1]},
			{From: mods[6], To: mods[2]},
			{From: mods[9], To: mods[4]},
			{From: mods[12], To: mods[5]},
			{From: mods[0], To: mods[7]},
			{From: mods[3], To: mods[8]},
			{From: mods[6], To: mods[10]},
			{From: mods[9], To: mods[11]},
			{From: mods[12], To: mods[13]},
			{From: mods[0], To: mods[14]},
			{From: mods[3], To: mods[15]},
		},
		Binding: spec.Clockwise,
	}
}

// ringNeighbor returns benchRing16 minus flow drop: the outlet module of
// the dropped flow becomes unused and is removed, giving a spec one
// module and one flow away from the base.
func ringNeighbor(name string, drop int) *spec.Spec {
	base := benchRing16(name)
	gone := base.Flows[drop].To
	base.Flows = append(base.Flows[:drop:drop], base.Flows[drop+1:]...)
	mods := base.Modules[:0:0]
	for _, m := range base.Modules {
		if m != gone {
			mods = append(mods, m)
		}
	}
	base.Modules = mods
	return base
}

func TestPortfolioBenchReport(t *testing.T) {
	if !benchrec.Enabled() {
		t.Skip("set " + benchrec.Env + " to append the warm-start benchmark record")
	}
	opts := switchsynth.Options{TimeLimit: 5 * time.Minute}
	timed := func(e *Engine, sp *spec.Spec) (*Response, float64) {
		start := time.Now()
		res, err := e.Do(context.Background(), sp, opts)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if !res.Synthesis.Proven {
			t.Fatalf("%s: not proven within the time limit", sp.Name)
		}
		return res, time.Since(start).Seconds()
	}
	neighborDrops := []int{1, 5, 9}

	// Cold reference: no similarity index.
	cold := newTestEngine(t, Config{Workers: 1, SimIndexSize: -1})
	_, coldBaseSec := timed(cold, benchRing16("ring16"))
	coldNeighbor := make([]float64, len(neighborDrops))
	coldRes := make([]*Response, len(neighborDrops))
	for i, d := range neighborDrops {
		coldRes[i], coldNeighbor[i] = timed(cold, ringNeighbor("ring16-n"+strconv.Itoa(d), d))
	}

	// Warm: the base solve populates the index; every neighbor solve
	// must hit it (restriction adaptation) and still serve plans
	// byte-identical to the cold reference.
	warm := newTestEngine(t, Config{Workers: 1})
	_, warmBaseSec := timed(warm, benchRing16("ring16"))
	warmNeighbor := make([]float64, len(neighborDrops))
	for i, d := range neighborDrops {
		res, sec := timed(warm, ringNeighbor("ring16-n"+strconv.Itoa(d), d))
		warmNeighbor[i] = sec
		if !bytes.Equal(planBytes(t, res.Synthesis.Result), planBytes(t, coldRes[i].Synthesis.Result)) {
			t.Errorf("neighbor %d: warm-started plan differs from cold", d)
		}
	}
	warmHits := warm.Snapshot().SimIndexHits
	if warmHits != int64(len(neighborDrops)) {
		t.Errorf("simindex hits = %d, want %d (every neighbor solve)", warmHits, len(neighborDrops))
	}

	var coldSum, warmSum float64
	for i := range neighborDrops {
		coldSum += coldNeighbor[i]
		warmSum += warmNeighbor[i]
	}
	speedup := coldSum / warmSum
	if speedup <= 1.0 {
		t.Errorf("warm-start speedup %.2fx on the one-module-delta family, want > 1x (cold %.2fs, warm %.2fs)",
			speedup, coldSum, warmSum)
	}

	benchrec.Emit(t, "portfolio", map[string]any{
		"instance":              "saturated 16-pin clockwise ring, drop-one-flow neighbors",
		"coldBaseSeconds":       coldBaseSec,
		"warmBaseSeconds":       warmBaseSec,
		"coldNeighborSeconds":   coldNeighbor,
		"warmNeighborSeconds":   warmNeighbor,
		"warmStartSpeedup":      speedup,
		"warmStartHits":         warmHits,
		"neighborFlowsDropped":  neighborDrops,
		"neighborByteIdentical": true,
	})
}
