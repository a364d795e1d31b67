package planio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"switchsynth/internal/contam"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

func solveFor(t *testing.T, sp *spec.Spec) *spec.Result {
	t.Helper()
	res, err := search.Solve(sp, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultsEqual compares the fields a serialized plan is expected to
// preserve.
func resultsEqual(t *testing.T, a, b *spec.Result) {
	t.Helper()
	ka, errA := a.Spec.CanonicalKey()
	kb, errB := b.Spec.CanonicalKey()
	if errA != nil || errB != nil {
		t.Fatalf("canonical key: %v / %v", errA, errB)
	}
	if ka != kb {
		t.Errorf("spec canonical key differs: %s vs %s", ka, kb)
	}
	if !reflect.DeepEqual(a.PinOf, b.PinOf) {
		t.Errorf("pin binding differs: %v vs %v", a.PinOf, b.PinOf)
	}
	if a.NumSets != b.NumSets || a.UsedEdgeMask != b.UsedEdgeMask || a.Length != b.Length {
		t.Errorf("derived fields differ: sets %d/%d mask %x/%x length %v/%v",
			a.NumSets, b.NumSets, a.UsedEdgeMask, b.UsedEdgeMask, a.Length, b.Length)
	}
	if a.Proven != b.Proven || a.Degraded != b.Degraded || a.LowerBound != b.LowerBound || a.Gap != b.Gap {
		t.Errorf("metadata differs: proven %v/%v degraded %v/%v lb %v/%v gap %v/%v",
			a.Proven, b.Proven, a.Degraded, b.Degraded, a.LowerBound, b.LowerBound, a.Gap, b.Gap)
	}
	if a.Engine != b.Engine {
		t.Errorf("engine differs: %q vs %q", a.Engine, b.Engine)
	}
	if len(a.Routes) != len(b.Routes) {
		t.Fatalf("route count differs: %d vs %d", len(a.Routes), len(b.Routes))
	}
	for i := range a.Routes {
		if a.Routes[i].Set != b.Routes[i].Set ||
			!reflect.DeepEqual(a.Routes[i].Path.Verts, b.Routes[i].Path.Verts) {
			t.Errorf("route %d differs", i)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	res := plan(t)
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinary(frame) {
		t.Fatal("EncodeBinary output not recognized by IsBinary")
	}
	back, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := contam.Verify(back); err != nil {
		t.Fatalf("decoded plan fails contamination verify: %v", err)
	}
	resultsEqual(t, res, back)

	// Re-encoding the decoded plan must be byte-identical: the binary
	// encoding is canonical.
	again, err := EncodeBinary(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("binary encoding is not canonical: re-encode differs")
	}

	// DecodeAny sniffs both encodings.
	if _, err := DecodeAny(frame); err != nil {
		t.Fatalf("DecodeAny(binary): %v", err)
	}
	jsonBytes, err := EncodeWire(res)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeAny(jsonBytes)
	if err != nil {
		t.Fatalf("DecodeAny(json): %v", err)
	}
	resultsEqual(t, back, fromJSON)
}

func TestBinaryRoundTripDegradedMetadata(t *testing.T) {
	res := plan(t)
	res.Proven = false
	res.Degraded = true
	res.LowerBound = res.Objective / 2
	res.Gap = 0.5
	res.Engine = "anytime"
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, res, back)
}

func TestBinaryRoundTripFixedBinding(t *testing.T) {
	res := plan(t)
	// Re-home the plan onto a fixed binding matching its own PinOf so
	// FixedPins (string-table keys + signed pins) get exercised.
	res.Spec = &spec.Spec{
		Name:       res.Spec.Name,
		SwitchPins: res.Spec.SwitchPins,
		Modules:    res.Spec.Modules,
		Flows:      res.Spec.Flows,
		Conflicts:  res.Spec.Conflicts,
		Binding:    spec.Fixed,
		FixedPins:  res.PinOf,
	}
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Spec.FixedPins, res.Spec.FixedPins) {
		t.Fatalf("FixedPins differ: %v vs %v", back.Spec.FixedPins, res.Spec.FixedPins)
	}
	resultsEqual(t, res, back)
}

func TestToJSONTranscode(t *testing.T) {
	res := plan(t)
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeWire(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ToJSON(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wire) {
		t.Fatalf("transcoded JSON differs from EncodeWire:\n%s\nvs\n%s", got, wire)
	}
	// JSON input passes through untouched.
	passthrough, err := ToJSON(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(passthrough, wire) {
		t.Fatal("ToJSON modified JSON input")
	}
}

func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	res := plan(t)
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func([]byte) []byte) []byte {
		cp := append([]byte(nil), frame...)
		return f(cp)
	}
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic only", frame[:4]},
		{"header only", frame[:headerLen]},
		{"truncated payload", frame[:len(frame)-6]},
		{"missing crc", frame[:len(frame)-4]},
		{"trailing byte", append(append([]byte(nil), frame...), 0)},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 9; return b })},
		{"length lies short", mutate(func(b []byte) []byte { b[5]--; return b })},
		{"length lies long", mutate(func(b []byte) []byte { b[5]++; return b })},
		{"payload bit flip", mutate(func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })},
		{"crc bit flip", mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b })},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBinary(tc.data); err == nil {
				t.Fatal("corrupted frame accepted")
			}
		})
	}
}

func TestBinaryDecodeRejectsEveryBitFlip(t *testing.T) {
	// The checksum must catch ANY single-byte change in the frame; bytes
	// whose change keeps the CRC valid do not exist for single flips.
	res := plan(t)
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		cp := append([]byte(nil), frame...)
		cp[i] ^= 0x01
		if _, err := DecodeBinary(cp); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

// TestDecodeRejectsInconsistentPinOf is the regression test for the
// validation gap where PinOf entries were not checked against the spec's
// modules or the pin range.
func TestDecodeRejectsInconsistentPinOf(t *testing.T) {
	res := plan(t)
	good, err := EncodeWire(res)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(t *testing.T, edit func(map[string]any)) []byte {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(good, &doc); err != nil {
			t.Fatal(err)
		}
		edit(doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	pinOf := func(doc map[string]any) map[string]any { return doc["pinOf"].(map[string]any) }
	tests := []struct {
		name string
		edit func(map[string]any)
		want string
	}{
		{"pin out of range", func(doc map[string]any) { pinOf(doc)["a"] = 99 }, "outside"},
		{"negative pin", func(doc map[string]any) { pinOf(doc)["a"] = -1 }, "outside"},
		{"duplicate pin", func(doc map[string]any) {
			pinOf(doc)["a"] = pinOf(doc)["b"]
		}, "share pin"},
		{"unknown module", func(doc map[string]any) {
			p := pinOf(doc)
			p["ghost"] = p["a"]
			delete(p, "a")
		}, "no pin binding"},
		{"extra entry", func(doc map[string]any) { pinOf(doc)["ghost"] = 7 }, "covers"},
		{"missing entry", func(doc map[string]any) { delete(pinOf(doc), "a") }, "covers"},
		{"bad binding policy", func(doc map[string]any) {
			doc["spec"].(map[string]any)["binding"] = 7
		}, "binding policy"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tamper(t, tc.edit))
			if err == nil {
				t.Fatal("inconsistent binding accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestVerifiedCache(t *testing.T) {
	res := plan(t)
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	c := NewVerifiedCache(2)

	if _, ok := c.Lookup(frame, "k1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Add(frame, "k1", res)
	got, ok := c.Lookup(frame, "k1")
	if !ok || got != res {
		t.Fatal("expected hit after Add")
	}
	// Same bytes under a different key must miss: the cache only vouches
	// for the (bytes, key) pair that was verified.
	if _, ok := c.Lookup(frame, "k2"); ok {
		t.Fatal("digest hit under the wrong key")
	}
	// Any byte difference misses.
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)/2] ^= 0x40
	if _, ok := c.Lookup(flipped, "k1"); ok {
		t.Fatal("digest hit for different bytes")
	}
	// Unproven plans are never admitted.
	degraded := *res
	degraded.Proven = false
	c.Add([]byte("deg"), "k3", &degraded)
	if _, ok := c.Lookup([]byte("deg"), "k3"); ok {
		t.Fatal("unproven plan admitted to digest cache")
	}
	// Eviction respects the bound.
	c.Add([]byte("b2"), "k2", res)
	c.Add([]byte("b3"), "k3", res)
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", st.Entries)
	}
	if _, ok := c.Lookup(frame, "k1"); ok {
		t.Fatal("least-recently-used entry not evicted")
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Adds != 3 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestCrossFormatStability(t *testing.T) {
	res := plan(t)
	res.Engine = "search"
	frame, err := EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeWire(res)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("json %d bytes, binary %d bytes", len(wire), len(frame))
	if len(frame) >= len(wire) {
		t.Errorf("binary frame (%d B) not smaller than JSON (%d B)", len(frame), len(wire))
	}
	// binary → JSON → binary must reproduce the original frame.
	viaJSON, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := EncodeBinary(viaJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Fatal("binary frame changed after a trip through JSON")
	}
	// JSON → binary → JSON likewise.
	viaBinary, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	wire2, err := EncodeWire(viaBinary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, wire2) {
		t.Fatal("JSON wire bytes changed after a trip through binary")
	}
}

func TestBinaryFrameSmallerAcrossSizes(t *testing.T) {
	for _, pins := range []int{8, 12} {
		t.Run(fmt.Sprintf("%dpin", pins), func(t *testing.T) {
			sp := &spec.Spec{
				Name:       fmt.Sprintf("size%d", pins),
				SwitchPins: pins,
				Modules:    []string{"a", "b", "x", "y"},
				Flows:      []spec.Flow{{From: "a", To: "x"}, {From: "b", To: "y"}},
				Binding:    spec.Unfixed,
			}
			res := solveFor(t, sp)
			frame, err := EncodeBinary(res)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := EncodeWire(res)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame)*2 > len(wire) {
				t.Errorf("binary %d B vs json %d B: less than 2x smaller", len(frame), len(wire))
			}
		})
	}
}
