// Result cache and in-flight deduplication.
//
// The cache is a bounded LRU keyed by the canonical spec key
// (spec.CanonicalKey plus "|search", see JobKey): every spec in one
// presentation-equivalence class maps to one entry, so a rotated or
// permuted resubmission of an already-solved spec is a hit. Stored
// Results are treated as immutable — readers relabel them onto their own
// spec (spec.Result.Relabel) instead of mutating the shared plan.
//
// The flightGroup provides singleflight-style deduplication: of N
// concurrent requests for the same canonical key, exactly one becomes
// the leader and solves; the rest attach to the leader's flight and
// receive its outcome. The flight also carries the solve's anytime
// incumbents, which streaming watchers receive while they wait. Failed
// flights are not cached, so a later request retries the solve.
package service

import (
	"container/list"
	"sync"

	"switchsynth/internal/spec"
)

// cache is a mutex-guarded LRU of canonical key → solved plan.
type cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	byK map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *spec.Result
	// wire is the plan's already-encoded frame, kept alongside the decoded
	// result so plan-stream fetches and replication pushes reuse the
	// bytes that were verified (or produced) once instead of re-encoding
	// per request. Nil when no frame is available — the injected
	// cache-corruption fault, or a plan that failed to encode — and then
	// the entry vouches for no bytes: PlanBytes falls through to the store.
	wire []byte
}

// newCache creates an LRU holding up to capacity results; capacity <= 0
// disables the memory tier entirely — see enabled.
func newCache(capacity int) *cache {
	return &cache{cap: capacity, ll: list.New(), byK: make(map[string]*list.Element)}
}

// enabled reports whether the memory tier is on. With capacity <= 0 the
// engine explicitly skips both lookups and stores (the methods below
// also guard themselves, but the engine branches on this so the
// disabled path is visible at the call sites): requests still coalesce
// through the flight group, and a configured durable store still serves
// disk hits — the supported disk-only configuration (memory off, store
// on).
func (c *cache) enabled() bool { return c.cap > 0 }

// get returns the cached plan for key, marking it most recently used.
func (c *cache) get(key string) (*spec.Result, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a solved plan and (optionally) its encoded frame, evicting
// the least recently used entry when over capacity.
func (c *cache) put(key string, res *spec.Result, wire []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		e := el.Value.(*cacheEntry)
		e.res, e.wire = res, wire
		c.ll.MoveToFront(el)
		return
	}
	c.byK[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, wire: wire})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byK, oldest.Value.(*cacheEntry).key)
	}
}

// getWire returns the cached encoded frame for key, when one was stored
// with the entry.
func (c *cache) getWire(key string) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok || el.Value.(*cacheEntry).wire == nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).wire, true
}

// invalidate drops key's entry (a corrupted-plan heal).
func (c *cache) invalidate(key string) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		c.ll.Remove(el)
		delete(c.byK, key)
	}
}

// keys returns the cached keys in LRU order (front = most recent). Used
// by the cluster tier's plan manifest; order is not part of the contract.
func (c *cache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}

// len reports the current number of cached plans.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flight is one queued or running solve: the single in-flight record
// for its canonical key, from the leader's join to complete. It carries
// the solve's outcome and, while it runs, its anytime incumbents, so a
// coalesced Do, a DoStream and a WatchKey watcher all wait on the same
// record (Engine.wait).
type flight struct {
	done chan struct{} // closed by complete, after res/err are set
	res  *spec.Result
	err  error

	// Incumbents, guarded by mu. best only ever improves, seq counts the
	// accepted publishes, and updated is closed and replaced on each one
	// so a watcher can block on it without polling.
	mu      sync.Mutex
	seq     int64
	best    *spec.Result
	updated chan struct{}
}

// publish offers an anytime incumbent. Parallel solver workers may call
// it concurrently and out of objective order; only strict improvements
// over the best so far are kept, so watchers see a monotonically
// decreasing objective.
func (f *flight) publish(r *spec.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.best != nil && r.Objective >= f.best.Objective {
		return
	}
	f.best = r
	f.seq++
	close(f.updated)
	f.updated = make(chan struct{})
}

// incumbent snapshots the incumbent state under one lock, so a watcher
// never sees a seq without the plan that produced it, nor misses the
// wakeup for a publish that lands after the snapshot.
func (f *flight) incumbent() (seq int64, best *spec.Result, updated <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq, f.best, f.updated
}

// flightGroup tracks the in-flight solves by canonical key.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for key, creating it when absent. leader is
// true for the caller that created it (and therefore must complete it).
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{}), updated: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// lookup returns key's flight without creating one: a watcher can only
// attach to a solve some request started.
func (g *flightGroup) lookup(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.m[key]
	return f, ok
}

// complete is the flight's one terminal event: it publishes the outcome
// and removes the flight from the group. The removal happens before done
// is closed, so a request arriving after completion starts fresh and
// finds the cache already populated (the caller must put into the cache
// before calling complete) instead of attaching to a finished solve and
// replaying its incumbents.
func (g *flightGroup) complete(key string, f *flight, res *spec.Result, err error) {
	f.res, f.err = res, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}
