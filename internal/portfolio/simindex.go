// Package portfolio holds the similarity index that warm-starts the
// branch-and-bound from structurally similar, previously proven specs.
//
// SimIndex hands out adapted neighbor plans only as *seeds*: every
// adapted plan is contamination-verified before it leaves the index,
// and internal/search re-validates it once more before adoption, so a
// stale index entry can waste a little work but never change an answer.
package portfolio

import (
	"sort"
	"sync"

	"switchsynth/internal/contam"
	"switchsynth/internal/lru"
	"switchsynth/internal/spec"
	"switchsynth/internal/topo"
)

// costEps is the objective tolerance when comparing candidate seeds.
// Objectives are quantized by the grid pitch (distinct values differ by
// ≥ β·0.1), so anything beyond this is a real difference, not float noise.
const costEps = 1e-6

// DefaultSimIndexCapacity is the entry cap used when NewSimIndex is
// given a non-positive capacity.
const DefaultSimIndexCapacity = 512

// SimIndex is an LRU index of proven plans keyed by their spec's key
// AND by the keys of the spec's one-edit deletion neighbors: the spec
// minus one flow (with the modules that become unused dropped —
// removing a flow always frees its outlet module, so "minus one module"
// rides on "minus one flow") and the spec minus one conflict. A cold
// lookup that lands exactly one edit away from a stored spec — in
// either direction — adapts the stored plan into a verified starting
// incumbent for the branch-and-bound:
//
//   - stored = query + one flow  → drop the extra route.
//   - stored = query + one conflict → reuse the plan as-is.
//   - query = stored + one flow  → complete the plan with a bounded
//     enumeration of pin/set/path choices for the new flow.
//   - query = stored + one conflict → reuse the stored plan if it
//     happens to respect the new conflict (re-verified like the rest).
//
// Two stored specs that are both one edit from the query but not from
// each other are deliberately NOT matched through sibling signature
// intersection: "nearest neighbor" here means exactly one edit away,
// which keeps adaptation exact and cheap.
//
// The index never keys a whole spec itself: callers hand it the key
// they already derived (for the service, the job key) together with the
// canonical spec or the plan, and the signatures they computed once with
// Signatures. keyOf — the caller's own key function — runs only on the
// reduced specs inside the signatures, so both live in one key space.
//
// Every adapted plan is relabeled onto the query (spec.Result.Relabel)
// and contamination-verified before it is handed out; internal/search
// re-validates the seed once more on adoption, so a stale or corrupt
// entry can only cost time, never correctness.
type SimIndex struct {
	mu    sync.Mutex // guards bySig and the counters, and keeps entries and bySig in step
	cap   int
	keyOf func(*spec.Spec) (string, error)
	// entries holds the plans by key; evicting one unlinks its signatures
	// from bySig.
	entries *lru.Cache[string, *simEntry]
	bySig   map[string]map[string]*simEntry // neighbor sig -> entries by key
	lookups int64
	hits    int64
}

type simEntry struct {
	key  string
	sp   *spec.Spec   // the spec the plan proves (the plan's own)
	res  *spec.Result // proven plan for sp
	sigs Signatures
}

// Signatures is the deletion-neighbor signature set of one spec, from
// SimIndex.Signatures. A first-seen solve derives it once and hands the
// same value to Lookup and Add; it is never nil once derived.
type Signatures []simSig

// simSig is one deletion-neighbor signature of a spec.
type simSig struct {
	key      string
	flow     int // dropped flow index, -1 for a conflict signature
	conflict int // dropped conflict index, -1 for a flow signature
}

// SimStats is a point-in-time snapshot of index effectiveness.
type SimStats struct {
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Lookups  int64 `json:"lookups"`
	Hits     int64 `json:"hits"`
}

// NewSimIndex creates an index holding at most capacity proven plans
// (non-positive capacity = DefaultSimIndexCapacity) under keys computed
// by keyOf, the caller's key function for a spec.
func NewSimIndex(capacity int, keyOf func(*spec.Spec) (string, error)) *SimIndex {
	if capacity <= 0 {
		capacity = DefaultSimIndexCapacity
	}
	x := &SimIndex{cap: capacity, keyOf: keyOf, bySig: make(map[string]map[string]*simEntry)}
	x.entries = lru.New(capacity, x.unlink)
	return x
}

// Stats returns current index counters.
func (x *SimIndex) Stats() SimStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return SimStats{Entries: x.entries.Len(), Capacity: x.cap, Lookups: x.lookups, Hits: x.hits}
}

// Len returns the number of stored plans.
func (x *SimIndex) Len() int { return x.entries.Len() }

// Add indexes a proven plan under key — keyOf of the plan's spec — and
// under its spec's neighbor signatures. A nil sigs is derived here from
// res.Spec, but only for a key not yet indexed: plans are deterministic
// per key, so a repeat add just refreshes recency without allocating.
// Unproven plans are ignored.
func (x *SimIndex) Add(key string, res *spec.Result, sigs Signatures) {
	if res == nil || !res.Proven || res.Spec == nil {
		return
	}
	if _, ok := x.entries.Get(key); ok {
		return
	}
	if sigs == nil {
		sigs = x.Signatures(res.Spec)
	}

	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.entries.Get(key); ok {
		return
	}
	e := &simEntry{key: key, sp: res.Spec, res: res, sigs: sigs}
	x.entries.Put(key, e)
	for _, sg := range sigs {
		m := x.bySig[sg.key]
		if m == nil {
			m = make(map[string]*simEntry)
			x.bySig[sg.key] = m
		}
		m[key] = e
	}
}

// unlink is the entries LRU's eviction callback: it drops an evicted
// entry's signatures from bySig. It runs inside Add's Put, under x.mu.
func (x *SimIndex) unlink(_ string, e *simEntry) {
	for _, sg := range e.sigs {
		if m := x.bySig[sg.key]; m != nil {
			delete(m, e.key)
			if len(m) == 0 {
				delete(x.bySig, sg.key)
			}
		}
	}
}

// Lookup returns a verified warm-start seed for canon — a canonical spec
// whose key is key and whose signatures are sigs — or nil when no stored
// plan is within one edit. The returned Result targets canon and is safe
// to pass as search.Options.SeedIncumbent.
func (x *SimIndex) Lookup(key string, canon *spec.Spec, sigs Signatures) *spec.Result {
	_, pt, err := canon.SharedTopology()
	if err != nil {
		return nil
	}

	x.mu.Lock()
	x.lookups++
	// Collect candidates under the lock, adapt outside it: adaptation
	// runs verification and (for completion) path enumeration.
	type candidate struct {
		entry *simEntry
		sig   simSig // the edit linking entry and query
		dir   int    // +1: stored = query + edit; -1: query = stored + edit
	}
	var cands []candidate
	if e, ok := x.entries.Get(key); ok {
		cands = append(cands, candidate{entry: e, dir: 0})
	}
	// Stored specs that reduce to the query by one deletion.
	if m := x.bySig[key]; m != nil {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic probe order
		for _, k := range keys {
			e := m[k]
			for _, sg := range e.sigs {
				if sg.key == key {
					cands = append(cands, candidate{entry: e, sig: sg, dir: +1})
					break
				}
			}
		}
	}
	// Stored specs the query reduces to by one deletion.
	for _, sg := range sigs {
		if e, ok := x.entries.Peek(sg.key); ok {
			cands = append(cands, candidate{entry: e, sig: sg, dir: -1})
		}
	}
	x.mu.Unlock()

	for _, c := range cands {
		var seed *spec.Result
		if c.dir == -1 && c.sig.flow >= 0 {
			seed = completePlan(c.entry, c.sig.flow, canon, pt)
		} else {
			// The query has the stored plan's flows or one fewer; a
			// conflict the query adds is left to the verifier.
			seed = seedOf(c.entry.res.Relabel(canon))
		}
		if seed != nil {
			x.mu.Lock()
			x.hits++
			x.mu.Unlock()
			x.entries.Get(c.entry.key)
			return seed
		}
	}
	return nil
}

// Signatures computes the deletion signatures of sp: one per removable
// flow (dropping the flow, the conflicts touching it, and the modules
// left unused — always at least its outlet) and one per conflict, each
// keyed by keyOf of the reduced spec. Flow and conflict indices refer to
// sp's own order. Reductions that fail validation (e.g. the last flow)
// are skipped.
func (x *SimIndex) Signatures(sp *spec.Spec) Signatures {
	sigs := make(Signatures, 0, len(sp.Flows)+len(sp.Conflicts))
	for fi := range sp.Flows {
		if red := dropFlow(sp, fi); red != nil {
			if k, err := x.keyOf(red); err == nil {
				sigs = append(sigs, simSig{key: k, flow: fi, conflict: -1})
			}
		}
	}
	for ci := range sp.Conflicts {
		if red := dropConflict(sp, ci); red != nil {
			if k, err := x.keyOf(red); err == nil {
				sigs = append(sigs, simSig{key: k, flow: -1, conflict: ci})
			}
		}
	}
	return sigs
}

// dropFlow returns sp minus flow fi: conflicts touching fi are removed,
// remaining conflict indices shifted, and modules no longer used by any
// flow dropped (with their fixed pins). Returns nil if the reduced spec
// does not validate.
func dropFlow(sp *spec.Spec, fi int) *spec.Spec {
	if len(sp.Flows) <= 1 {
		return nil
	}
	red := *sp
	red.Name = sp.Name + "~f"
	red.Flows = make([]spec.Flow, 0, len(sp.Flows)-1)
	for i, f := range sp.Flows {
		if i != fi {
			red.Flows = append(red.Flows, f)
		}
	}
	red.Conflicts = nil
	for _, c := range sp.Conflicts {
		if c[0] == fi || c[1] == fi {
			continue
		}
		p := c
		if p[0] > fi {
			p[0]--
		}
		if p[1] > fi {
			p[1]--
		}
		red.Conflicts = append(red.Conflicts, p)
	}
	used := make(map[string]bool, len(sp.Modules))
	for _, f := range red.Flows {
		used[f.From] = true
		used[f.To] = true
	}
	red.Modules = make([]string, 0, len(sp.Modules))
	for _, m := range sp.Modules {
		if used[m] {
			red.Modules = append(red.Modules, m)
		}
	}
	if sp.FixedPins != nil {
		red.FixedPins = make(map[string]int, len(red.Modules))
		for _, m := range red.Modules {
			if p, ok := sp.FixedPins[m]; ok {
				red.FixedPins[m] = p
			}
		}
	}
	if red.Validate() != nil {
		return nil
	}
	return &red
}

// dropConflict returns sp minus conflict ci, or nil if invalid.
func dropConflict(sp *spec.Spec, ci int) *spec.Spec {
	red := *sp
	red.Name = sp.Name + "~c"
	red.Conflicts = make([][2]int, 0, len(sp.Conflicts)-1)
	for i, c := range sp.Conflicts {
		if i != ci {
			red.Conflicts = append(red.Conflicts, c)
		}
	}
	if red.Validate() != nil {
		return nil
	}
	return &red
}

// seedOf turns a plan relabeled onto the query spec into a warm-start
// seed: unproven, and only if it passes the contamination verifier.
func seedOf(res *spec.Result, err error) *spec.Result {
	if err != nil {
		return nil
	}
	res.Proven = false
	res.Degraded = true
	if contam.Verify(res) != nil {
		return nil
	}
	return res
}

// completePlan adapts a stored plan to a query that equals the stored
// spec plus one flow (target index newFlow, per the query's own
// deletion signature): the existing routes and bindings carry over and
// the new flow's pin(s), set and path are found by bounded deterministic
// enumeration — free pins in ascending order, existing sets plus one
// fresh set, shortest-path alternatives in table order — keeping the
// cheapest candidate that verifies. Each candidate is a plan for the
// stored spec plus the new flow, relabeled onto the query.
func completePlan(e *simEntry, newFlow int, target *spec.Spec, pt *topo.PathTable) *spec.Result {
	if len(target.Flows) != len(e.sp.Flows)+1 {
		return nil
	}
	f := target.Flows[newFlow]
	ext := *e.sp
	ext.Flows = append(ext.Flows[:len(ext.Flows):len(ext.Flows)], f)
	routes := append(e.res.Routes[:len(e.res.Routes):len(e.res.Routes)], spec.Route{Flow: len(e.sp.Flows)})

	pins := make(map[string]int, len(target.Modules))
	usedPin := make(map[int]bool, len(target.Modules))
	for _, m := range target.Modules {
		if m == f.From || m == f.To {
			continue
		}
		p, ok := e.res.PinOf[m]
		if !ok {
			return nil
		}
		pins[m] = p
		usedPin[p] = true
	}
	numSets := 0
	for _, rt := range e.res.Routes {
		numSets = max(numSets, rt.Set+1)
	}

	var best *spec.Result
	for _, pf := range candidatePins(e, target, f.From, usedPin) {
		for _, pto := range candidatePins(e, target, f.To, usedPin) {
			if pto == pf {
				continue
			}
			pins[f.From], pins[f.To] = pf, pto
			for set := 0; set <= numSets; set++ {
				for _, path := range pt.PathsBetween(pf, pto) {
					routes[len(routes)-1].Set, routes[len(routes)-1].Path = set, path
					plan := &spec.Result{Spec: &ext, Switch: e.res.Switch, PinOf: pins, Routes: routes, Engine: e.res.Engine}
					cand := seedOf(plan.Relabel(target))
					if cand != nil && (best == nil || cand.Objective < best.Objective-costEps) {
						best = cand
					}
				}
			}
		}
	}
	return best
}

// candidatePins lists the pins a module of the target spec may bind to,
// given the pins already taken by carried-over modules: the stored
// binding if the module already existed, the fixed pin under a fixed
// policy, else every free pin in ascending order.
func candidatePins(e *simEntry, target *spec.Spec, module string, usedPin map[int]bool) []int {
	if p, ok := e.res.PinOf[module]; ok {
		return []int{p}
	}
	if target.Binding == spec.Fixed {
		if p, ok := target.FixedPins[module]; ok {
			return []int{p}
		}
		return nil
	}
	var free []int
	for p := 0; p < target.Ports(); p++ {
		if !usedPin[p] {
			free = append(free, p)
		}
	}
	return free
}
