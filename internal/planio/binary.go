package planio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"unicode/utf8"

	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// Binary frame layout (all integers little-endian, varints per
// encoding/binary):
//
//	offset  size  field
//	0       4     magic 0xF5 'S' 'P' '1'  (0xF5 can never begin JSON or UTF-8 text)
//	4       1     frame version (1)
//	5       4     payload length N (uint32)
//	9       N     payload
//	9+N     4     CRC32C (Castagnoli) over bytes [0, 9+N)
//
// The payload is, in order: a string table (uvarint count, then per
// string uvarint length + bytes, UTF-8 required), the spec block
// (name ref, switchPins, module refs, flows as module-index pairs,
// conflict pairs, binding, FixedPins as sorted (key ref, signed-varint
// pin) pairs, alpha/beta as float64 bits, maxSets, flags bit0=scalable
// bit1=fpva, and — only when bit1 is set — gridRows/gridCols uvarints),
// the pin binding (one pin uvarint per module, in module order), plan
// metadata (engine ref, flags bit0=proven bit1=degraded, lowerBound/gap
// float64 bits), and the routes (count, then per flow in flow order:
// set, vertex count, vertex-ID uvarints).
//
// Frames are rejected unless the length matches exactly (no trailing
// bytes), the checksum verifies, and the decoded plan passes the same
// prepare/finalize validation as the JSON path.

const (
	binaryVersion = 1
	// headerLen covers magic + version + payload length.
	headerLen = 9
	// frameOverhead is the fixed cost over the payload: header + CRC.
	frameOverhead = headerLen + 4
	// maxFrameElems bounds every count read from a frame before any
	// allocation, independent of the remaining-bytes check.
	maxFrameElems = 1 << 20
)

// ContentTypeBinary labels binary plan frames on the wire; ContentTypeJSON
// labels the JSON file format.
const (
	ContentTypeBinary = "application/x-switchsynth-plan"
	ContentTypeJSON   = "application/json"
)

var (
	frameMagic = [4]byte{0xF5, 'S', 'P', '1'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

const (
	specFlagScalable = 1 << 0
	// specFlagFPVA marks an FPVA-topology spec; when set, two extra
	// uvarints (gridRows, gridCols) follow the spec flags byte. Crossbar
	// frames never set it and carry no extra bytes, so every frame a
	// pre-FPVA encoder produced is byte-identical under the current
	// encoder and decodes on both sides — the frame version stays 1.
	specFlagFPVA = 1 << 1

	metaFlagProven   = 1 << 0
	metaFlagDegraded = 1 << 1
)

// IsBinary reports whether data starts with the binary frame magic.
func IsBinary(data []byte) bool {
	return len(data) >= 4 && data[0] == frameMagic[0] && data[1] == frameMagic[1] &&
		data[2] == frameMagic[2] && data[3] == frameMagic[3]
}

// ToJSON returns plan bytes in the JSON file format: binary frames are
// transcoded through full decode validation, JSON passes through
// unchanged. The transcoded output is byte-identical to EncodeWire of
// the decoded plan — the JSON view humans and exports get of a frame.
func ToJSON(data []byte) ([]byte, error) {
	if !IsBinary(data) {
		return data, nil
	}
	res, err := DecodeBinary(data)
	if err != nil {
		return nil, err
	}
	return EncodeWire(res)
}

// stringTable deduplicates the strings of a frame during encoding.
type stringTable struct {
	refs map[string]uint64
	strs []string
}

func (t *stringTable) add(s string) {
	if _, ok := t.refs[s]; ok {
		return
	}
	t.refs[s] = uint64(len(t.strs))
	t.strs = append(t.strs, s)
}

func (t *stringTable) ref(s string) uint64 { return t.refs[s] }

// EncodeBinary serializes a plan as a checksummed binary frame. It runs
// the same structural validation as the decoders first, so any frame it
// emits is guaranteed to decode.
func EncodeBinary(res *spec.Result) ([]byte, error) {
	sp := res.Spec
	if _, err := prepare(sp, res.PinOf, len(res.Routes)); err != nil {
		return nil, err
	}
	if !finite(res.LowerBound) || !finite(res.Gap) {
		return nil, fmt.Errorf("planio: non-finite plan metadata (lowerBound=%v gap=%v)", res.LowerBound, res.Gap)
	}
	for i := range res.Routes {
		rt := &res.Routes[i]
		if rt.Flow != i {
			return nil, fmt.Errorf("planio: route %d is for flow %d", i, rt.Flow)
		}
		if rt.Set < 0 || rt.Set >= len(sp.Flows) {
			return nil, fmt.Errorf("planio: flow %d scheduled in set %d outside [0,%d)", i, rt.Set, len(sp.Flows))
		}
		if len(rt.Path.Verts) < 2 {
			return nil, fmt.Errorf("planio: flow %d path too short", i)
		}
		for _, v := range rt.Path.Verts {
			if v < 0 || v >= len(res.Switch.Vertices) {
				return nil, fmt.Errorf("planio: flow %d references vertex %d outside the %d-vertex switch", i, v, len(res.Switch.Vertices))
			}
		}
	}

	table := stringTable{refs: make(map[string]uint64, len(sp.Modules)+len(sp.FixedPins)+2)}
	table.add(sp.Name)
	table.add(res.Engine)
	for _, m := range sp.Modules {
		table.add(m)
	}
	fixedKeys := make([]string, 0, len(sp.FixedPins))
	for k := range sp.FixedPins {
		fixedKeys = append(fixedKeys, k)
	}
	sort.Strings(fixedKeys)
	for _, k := range fixedKeys {
		table.add(k)
	}

	buf := make([]byte, headerLen, 256+headerLen)
	copy(buf, frameMagic[:])
	buf[4] = binaryVersion

	// String table.
	buf = binary.AppendUvarint(buf, uint64(len(table.strs)))
	for _, s := range table.strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}

	// Spec block.
	buf = binary.AppendUvarint(buf, table.ref(sp.Name))
	buf = binary.AppendUvarint(buf, uint64(sp.SwitchPins))
	buf = binary.AppendUvarint(buf, uint64(len(sp.Modules)))
	for _, m := range sp.Modules {
		buf = binary.AppendUvarint(buf, table.ref(m))
	}
	buf = binary.AppendUvarint(buf, uint64(len(sp.Flows)))
	for _, f := range sp.Flows {
		buf = binary.AppendUvarint(buf, uint64(sp.ModuleIndex(f.From)))
		buf = binary.AppendUvarint(buf, uint64(sp.ModuleIndex(f.To)))
	}
	buf = binary.AppendUvarint(buf, uint64(len(sp.Conflicts)))
	for _, c := range sp.Conflicts {
		buf = binary.AppendUvarint(buf, uint64(c[0]))
		buf = binary.AppendUvarint(buf, uint64(c[1]))
	}
	buf = binary.AppendUvarint(buf, uint64(sp.Binding))
	buf = binary.AppendUvarint(buf, uint64(len(fixedKeys)))
	for _, k := range fixedKeys {
		buf = binary.AppendUvarint(buf, table.ref(k))
		buf = binary.AppendVarint(buf, int64(sp.FixedPins[k]))
	}
	buf = appendF64(buf, sp.Alpha)
	buf = appendF64(buf, sp.Beta)
	buf = binary.AppendUvarint(buf, uint64(sp.MaxSets))
	var specFlags byte
	if sp.Scalable {
		specFlags |= specFlagScalable
	}
	if sp.IsFPVA() {
		specFlags |= specFlagFPVA
	}
	buf = append(buf, specFlags)
	if sp.IsFPVA() {
		buf = binary.AppendUvarint(buf, uint64(sp.GridRows))
		buf = binary.AppendUvarint(buf, uint64(sp.GridCols))
	}

	// Pin binding, one pin per module in module order (prepare proved
	// coverage is exact).
	for _, m := range sp.Modules {
		buf = binary.AppendUvarint(buf, uint64(res.PinOf[m]))
	}

	// Plan metadata.
	buf = binary.AppendUvarint(buf, table.ref(res.Engine))
	var metaFlags byte
	if res.Proven {
		metaFlags |= metaFlagProven
	}
	if res.Degraded {
		metaFlags |= metaFlagDegraded
	}
	buf = append(buf, metaFlags)
	buf = appendF64(buf, res.LowerBound)
	buf = appendF64(buf, res.Gap)

	// Routes, in flow order.
	buf = binary.AppendUvarint(buf, uint64(len(res.Routes)))
	for i := range res.Routes {
		rt := &res.Routes[i]
		buf = binary.AppendUvarint(buf, uint64(rt.Set))
		buf = binary.AppendUvarint(buf, uint64(len(rt.Path.Verts)))
		for _, v := range rt.Path.Verts {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}

	payloadLen := len(buf) - headerLen
	if payloadLen > math.MaxUint32 {
		return nil, fmt.Errorf("planio: frame payload %d bytes exceeds format limit", payloadLen)
	}
	binary.LittleEndian.PutUint32(buf[5:9], uint32(payloadLen))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// frameReader walks a payload with bounds-checked reads.
type frameReader struct {
	data []byte
	off  int
}

var errTruncated = fmt.Errorf("planio: truncated frame payload")

func (r *frameReader) remaining() int { return len(r.data) - r.off }

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	return v, nil
}

// count reads a uvarint meant to size an allocation, bounding it by both
// a format cap and the bytes left in the payload (every counted element
// costs at least one byte), so corrupt frames cannot trigger huge
// allocations.
func (r *frameReader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxFrameElems || v > uint64(r.remaining()) {
		return 0, fmt.Errorf("planio: %s count %d exceeds frame size", what, v)
	}
	return int(v), nil
}

// intVal reads a uvarint that must fit a non-negative int field.
func (r *frameReader) intVal(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("planio: %s value %d out of range", what, v)
	}
	return int(v), nil
}

func (r *frameReader) varintVal(what string) (int, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	if v > math.MaxInt32 || v < math.MinInt32 {
		return 0, fmt.Errorf("planio: %s value %d out of range", what, v)
	}
	return int(v), nil
}

func (r *frameReader) byteVal() (byte, error) {
	if r.remaining() < 1 {
		return 0, errTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *frameReader) f64(what string) (float64, error) {
	if r.remaining() < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	if !finite(v) {
		return 0, fmt.Errorf("planio: non-finite %s", what)
	}
	return v, nil
}

func (r *frameReader) str(table []string, what string) (string, error) {
	v, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if v >= uint64(len(table)) {
		return "", fmt.Errorf("planio: %s string ref %d outside %d-entry table", what, v, len(table))
	}
	return table[v], nil
}

// DecodeBinary parses a binary plan frame, verifies its checksum, and
// reconstructs the plan through the same prepare/finalize validation as
// the JSON decoder. The caller should still contam-verify the result.
func DecodeBinary(data []byte) (*spec.Result, error) {
	if !IsBinary(data) {
		return nil, fmt.Errorf("planio: not a binary plan frame")
	}
	if len(data) < frameOverhead {
		return nil, fmt.Errorf("planio: frame shorter than %d-byte envelope", frameOverhead)
	}
	if data[4] != binaryVersion {
		return nil, fmt.Errorf("planio: unsupported frame version %d", data[4])
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[5:9]))
	if len(data) != frameOverhead+payloadLen {
		return nil, fmt.Errorf("planio: frame length %d does not match declared payload %d", len(data), payloadLen)
	}
	body := data[:headerLen+payloadLen]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[headerLen+payloadLen:]); got != want {
		return nil, fmt.Errorf("planio: frame checksum mismatch (got %08x want %08x)", got, want)
	}
	r := &frameReader{data: body, off: headerLen}

	// String table.
	nStrs, err := r.count("string table")
	if err != nil {
		return nil, err
	}
	table := make([]string, 0, nStrs)
	for i := 0; i < nStrs; i++ {
		n, err := r.count("string length")
		if err != nil {
			return nil, err
		}
		if r.remaining() < n {
			return nil, errTruncated
		}
		s := string(r.data[r.off : r.off+n])
		r.off += n
		if !utf8.ValidString(s) {
			return nil, fmt.Errorf("planio: string table entry %d is not valid UTF-8", i)
		}
		table = append(table, s)
	}

	// Spec block.
	sp := &spec.Spec{}
	if sp.Name, err = r.str(table, "spec name"); err != nil {
		return nil, err
	}
	if sp.SwitchPins, err = r.intVal("switch pins"); err != nil {
		return nil, err
	}
	nMods, err := r.count("module")
	if err != nil {
		return nil, err
	}
	sp.Modules = make([]string, 0, nMods)
	for i := 0; i < nMods; i++ {
		m, err := r.str(table, "module name")
		if err != nil {
			return nil, err
		}
		sp.Modules = append(sp.Modules, m)
	}
	nFlows, err := r.count("flow")
	if err != nil {
		return nil, err
	}
	sp.Flows = make([]spec.Flow, 0, nFlows)
	for i := 0; i < nFlows; i++ {
		from, err := r.intVal("flow source")
		if err != nil {
			return nil, err
		}
		to, err := r.intVal("flow destination")
		if err != nil {
			return nil, err
		}
		if from >= len(sp.Modules) || to >= len(sp.Modules) {
			return nil, fmt.Errorf("planio: flow %d references module outside the %d-module list", i, len(sp.Modules))
		}
		sp.Flows = append(sp.Flows, spec.Flow{From: sp.Modules[from], To: sp.Modules[to]})
	}
	nConf, err := r.count("conflict")
	if err != nil {
		return nil, err
	}
	if nConf > 0 {
		sp.Conflicts = make([][2]int, 0, nConf)
	}
	for i := 0; i < nConf; i++ {
		a, err := r.intVal("conflict flow")
		if err != nil {
			return nil, err
		}
		b, err := r.intVal("conflict flow")
		if err != nil {
			return nil, err
		}
		sp.Conflicts = append(sp.Conflicts, [2]int{a, b})
	}
	binding, err := r.intVal("binding policy")
	if err != nil {
		return nil, err
	}
	sp.Binding = spec.BindingPolicy(binding)
	nFixed, err := r.count("fixed pin")
	if err != nil {
		return nil, err
	}
	if nFixed > 0 {
		sp.FixedPins = make(map[string]int, nFixed)
	}
	for i := 0; i < nFixed; i++ {
		k, err := r.str(table, "fixed pin module")
		if err != nil {
			return nil, err
		}
		p, err := r.varintVal("fixed pin")
		if err != nil {
			return nil, err
		}
		if _, dup := sp.FixedPins[k]; dup {
			return nil, fmt.Errorf("planio: duplicate fixed pin entry %q", k)
		}
		sp.FixedPins[k] = p
	}
	if sp.Alpha, err = r.f64("alpha"); err != nil {
		return nil, err
	}
	if sp.Beta, err = r.f64("beta"); err != nil {
		return nil, err
	}
	if sp.MaxSets, err = r.intVal("max sets"); err != nil {
		return nil, err
	}
	specFlags, err := r.byteVal()
	if err != nil {
		return nil, err
	}
	sp.Scalable = specFlags&specFlagScalable != 0
	if specFlags&specFlagFPVA != 0 {
		sp.Topology = spec.TopologyFPVA
		if sp.GridRows, err = r.intVal("grid rows"); err != nil {
			return nil, err
		}
		if sp.GridCols, err = r.intVal("grid cols"); err != nil {
			return nil, err
		}
	}

	// Pin binding.
	pinOf := make(map[string]int, len(sp.Modules))
	for _, m := range sp.Modules {
		p, err := r.intVal("pin binding")
		if err != nil {
			return nil, err
		}
		pinOf[m] = p
	}

	// Plan metadata.
	res := &spec.Result{Spec: sp, PinOf: pinOf}
	if res.Engine, err = r.str(table, "engine"); err != nil {
		return nil, err
	}
	metaFlags, err := r.byteVal()
	if err != nil {
		return nil, err
	}
	res.Proven = metaFlags&metaFlagProven != 0
	res.Degraded = metaFlags&metaFlagDegraded != 0
	if res.LowerBound, err = r.f64("lower bound"); err != nil {
		return nil, err
	}
	if res.Gap, err = r.f64("gap"); err != nil {
		return nil, err
	}

	// Routes.
	nRoutes, err := r.count("route")
	if err != nil {
		return nil, err
	}
	sw, err := prepare(sp, pinOf, nRoutes)
	if err != nil {
		return nil, err
	}
	res.Switch = sw
	res.Routes = make([]spec.Route, 0, nRoutes)
	for i := 0; i < nRoutes; i++ {
		set, err := r.intVal("route set")
		if err != nil {
			return nil, err
		}
		nVerts, err := r.count("route vertex")
		if err != nil {
			return nil, err
		}
		path, err := rebuildPathIDs(sw, r, nVerts)
		if err != nil {
			return nil, fmt.Errorf("planio: flow %d: %w", i, err)
		}
		res.Routes = append(res.Routes, spec.Route{Flow: i, Set: set, Path: path})
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("planio: %d unconsumed payload bytes", r.remaining())
	}
	if err := finalize(res); err != nil {
		return nil, err
	}
	return res, nil
}

// rebuildPathIDs is rebuildPath for vertex-ID sequences read straight
// off a frame: same segment-by-segment validation, without the
// name-lookup round trip.
func rebuildPathIDs(sw *topo.Switch, r *frameReader, nVerts int) (topo.Path, error) {
	if nVerts < 2 {
		return topo.Path{}, fmt.Errorf("path too short")
	}
	p := topo.Path{
		Verts:   make([]int, 0, nVerts),
		EdgeIDs: make([]int, 0, nVerts-1),
	}
	for i := 0; i < nVerts; i++ {
		v, err := r.intVal("vertex id")
		if err != nil {
			return topo.Path{}, err
		}
		if v >= len(sw.Vertices) {
			return topo.Path{}, fmt.Errorf("vertex %d outside the %d-vertex switch", v, len(sw.Vertices))
		}
		p.Verts = append(p.Verts, v)
		p.VertMask.Set(v)
		if i > 0 {
			e, ok := sw.EdgeBetween(p.Verts[i-1], v)
			if !ok {
				return topo.Path{}, fmt.Errorf("no segment %s-%s", sw.Vertices[p.Verts[i-1]].Name, sw.Vertices[v].Name)
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
