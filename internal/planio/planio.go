// Package planio serializes synthesized switch plans so they can be
// stored, exchanged between tools and nodes, and independently
// re-verified (cmd/verifyplan). Two encodings share one validation path:
//
//   - JSON (Encode / EncodeWire / Decode): the human and audit format —
//     what cmd/switchsynth writes, what store exports produce, what
//     verifyplan reads, and what GET /plans/{key} answers.
//   - Binary (EncodeBinary / DecodeBinary, binary.go): the one machine
//     format — a length-prefixed, CRC32C-checksummed frame with a string
//     table and varint vertex encoding, used on the WAL, the cluster
//     wire and the service plan cache.
//
// DecodeAny sniffs the leading bytes and accepts either; it serves
// cmd/verifyplan, whose input files may be in either format. The
// service's admission door takes binary frames only: JSON carries no
// checksum, so a JSON record left in an old store is refused there and
// re-solved. Both decoders
// store only the spec, the binding and each route's vertex sequence;
// masks, lengths and objectives are recomputed on load and never trusted
// from the bytes.
package planio

import (
	"encoding/json"
	"fmt"

	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// fileFormat is the versioned on-disk structure.
type fileFormat struct {
	// Version guards future format changes.
	Version int `json:"version"`
	// Spec is the original synthesis input.
	Spec *spec.Spec `json:"spec"`
	// PinOf maps module names to clockwise pin orders.
	PinOf map[string]int `json:"pinOf"`
	// Routes stores one entry per flow in flow order.
	Routes []routeFormat `json:"routes"`
	// Engine and Proven describe how the plan was produced. Degraded,
	// LowerBound and Gap carry the anytime-solver metadata for plans
	// returned without an optimality proof.
	Engine     string  `json:"engine,omitempty"`
	Proven     bool    `json:"proven,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
	LowerBound float64 `json:"lowerBound,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
}

type routeFormat struct {
	Flow int `json:"flow"`
	Set  int `json:"set"`
	// Verts is the vertex-name sequence of the path, inlet pin first.
	Verts []string `json:"verts"`
}

// currentVersion of the file format.
const currentVersion = 1

// EncodeWire serializes a plan compactly (no indentation) for embedding
// in service responses. The bytes decode with Decode exactly like
// Encode's output: the wire format IS the file format.
func EncodeWire(res *spec.Result) (json.RawMessage, error) {
	ff, err := toFileFormat(res)
	if err != nil {
		return nil, err
	}
	return json.Marshal(ff)
}

// Encode serializes a plan with indentation for files.
func Encode(res *spec.Result) ([]byte, error) {
	ff, err := toFileFormat(res)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(ff, "", "  ")
}

func toFileFormat(res *spec.Result) (fileFormat, error) {
	ff := fileFormat{
		Version:    currentVersion,
		Spec:       res.Spec,
		PinOf:      res.PinOf,
		Engine:     res.Engine,
		Proven:     res.Proven,
		Degraded:   res.Degraded,
		LowerBound: res.LowerBound,
		Gap:        res.Gap,
	}
	ff.Routes = make([]routeFormat, 0, len(res.Routes))
	for _, rt := range res.Routes {
		rf := routeFormat{
			Flow:  rt.Flow,
			Set:   rt.Set,
			Verts: make([]string, 0, len(rt.Path.Verts)),
		}
		for _, v := range rt.Path.Verts {
			if v < 0 || v >= len(res.Switch.Vertices) {
				return fileFormat{}, fmt.Errorf("planio: flow %d references vertex %d outside the %d-vertex switch", rt.Flow, v, len(res.Switch.Vertices))
			}
			rf.Verts = append(rf.Verts, res.Switch.Vertices[v].Name)
		}
		ff.Routes = append(ff.Routes, rf)
	}
	return ff, nil
}

// Decode parses a JSON plan and reconstructs it on the shared switch
// model. All derived fields (edge masks, lengths, objective, set count)
// are recomputed; the caller should still contam.Verify the result.
func Decode(data []byte) (*spec.Result, error) {
	var ff fileFormat
	if err := json.Unmarshal(data, &ff); err != nil {
		return nil, fmt.Errorf("planio: %w", err)
	}
	if ff.Version != currentVersion {
		return nil, fmt.Errorf("planio: unsupported version %d", ff.Version)
	}
	// Fold the explicit "crossbar" alias to the canonical empty selector
	// before re-encoding can observe it: the binary format has no alias
	// representation, so a plan must canonicalize identically whichever
	// format carried it.
	if ff.Spec != nil && ff.Spec.Topology == spec.TopologyCrossbar {
		ff.Spec.Topology = ""
	}
	sw, err := prepare(ff.Spec, ff.PinOf, len(ff.Routes))
	if err != nil {
		return nil, err
	}
	res := &spec.Result{
		Spec:       ff.Spec,
		Switch:     sw,
		PinOf:      ff.PinOf,
		Engine:     ff.Engine,
		Proven:     ff.Proven,
		Degraded:   ff.Degraded,
		LowerBound: ff.LowerBound,
		Gap:        ff.Gap,
		Routes:     make([]spec.Route, 0, len(ff.Routes)),
	}
	for i, rf := range ff.Routes {
		if rf.Flow != i {
			return nil, fmt.Errorf("planio: route %d is for flow %d", i, rf.Flow)
		}
		path, err := rebuildPath(sw, rf.Verts)
		if err != nil {
			return nil, fmt.Errorf("planio: flow %d: %w", i, err)
		}
		res.Routes = append(res.Routes, spec.Route{Flow: rf.Flow, Set: rf.Set, Path: path})
	}
	if err := finalize(res); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeAny decodes a plan in either encoding, sniffing the leading
// bytes: a binary frame magic selects DecodeBinary, anything else is
// handed to the JSON decoder. It is for plan files (cmd/verifyplan);
// the service admits binary frames only (DecodeBinary).
func DecodeAny(data []byte) (*spec.Result, error) {
	if IsBinary(data) {
		return DecodeBinary(data)
	}
	return Decode(data)
}

// prepare runs the format-independent validation both decoders share:
// the spec must be present and valid, the binding must cover exactly the
// spec's modules with distinct in-range pins, and the route count must
// match the flow count. It returns the (process-shared) switch model the
// routes rebuild on.
func prepare(sp *spec.Spec, pinOf map[string]int, nRoutes int) (*topo.Switch, error) {
	if sp == nil {
		return nil, fmt.Errorf("planio: missing spec")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Binding < spec.Fixed || sp.Binding > spec.Unfixed {
		return nil, fmt.Errorf("planio: unknown binding policy %d", sp.Binding)
	}
	if len(pinOf) != len(sp.Modules) {
		return nil, fmt.Errorf("planio: binding covers %d entries for %d modules", len(pinOf), len(sp.Modules))
	}
	pinUsed := make(map[int]string, len(pinOf))
	for _, m := range sp.Modules {
		p, ok := pinOf[m]
		if !ok {
			return nil, fmt.Errorf("planio: module %q has no pin binding", m)
		}
		if p < 0 || p >= sp.Ports() {
			return nil, fmt.Errorf("planio: module %q bound to pin %d outside [0,%d)", m, p, sp.Ports())
		}
		if other, dup := pinUsed[p]; dup {
			return nil, fmt.Errorf("planio: modules %q and %q share pin %d", other, m, p)
		}
		pinUsed[p] = m
	}
	sw, err := sp.SharedSwitch()
	if err != nil {
		return nil, err
	}
	if nRoutes != len(sp.Flows) {
		return nil, fmt.Errorf("planio: %d routes for %d flows", nRoutes, len(sp.Flows))
	}
	return sw, nil
}

// finalize counts the file's sets, derives mask, length and objective
// (spec.Result.DeriveCost) and cross-checks each path's endpoints against
// the binding: flow i must run from its source module's bound pin to its
// destination module's bound pin, so a tampered file cannot pair a
// consistent-looking binding with routes that ignore it. The file's own
// set labels are kept, so contam.Verify judges them rather than a
// renumbering hiding them.
func finalize(res *spec.Result) error {
	sw := res.Switch
	sets := map[int]bool{}
	for i := range res.Routes {
		rt := &res.Routes[i]
		if rt.Set < 0 || rt.Set >= len(res.Spec.Flows) {
			return fmt.Errorf("planio: flow %d scheduled in set %d outside [0,%d)", rt.Flow, rt.Set, len(res.Spec.Flows))
		}
		f := res.Spec.Flows[rt.Flow]
		if rt.Path.In != sw.PinVertex(res.PinOf[f.From]) || rt.Path.Out != sw.PinVertex(res.PinOf[f.To]) {
			return fmt.Errorf("planio: flow %d path endpoints do not match the %s→%s pin binding", rt.Flow, f.From, f.To)
		}
		sets[rt.Set] = true
	}
	res.NumSets = len(sets)
	res.DeriveCost()
	return nil
}

// rebuildPath converts a vertex-name sequence back into a validated path.
func rebuildPath(sw *topo.Switch, names []string) (topo.Path, error) {
	if len(names) < 2 {
		return topo.Path{}, fmt.Errorf("path too short")
	}
	p := topo.Path{
		Verts:   make([]int, 0, len(names)),
		EdgeIDs: make([]int, 0, len(names)-1),
	}
	for i, name := range names {
		v, ok := sw.VertexByName(name)
		if !ok {
			return topo.Path{}, fmt.Errorf("unknown vertex %q", name)
		}
		p.Verts = append(p.Verts, v.ID)
		p.VertMask.Set(v.ID)
		if i > 0 {
			e, ok := sw.EdgeBetween(p.Verts[i-1], v.ID)
			if !ok {
				return topo.Path{}, fmt.Errorf("no segment %s-%s", names[i-1], name)
			}
			p.EdgeIDs = append(p.EdgeIDs, e.ID)
			p.EdgeMask.Set(e.ID)
			p.Length += e.Length
		}
	}
	p.In = p.Verts[0]
	p.Out = p.Verts[len(p.Verts)-1]
	return p, nil
}
