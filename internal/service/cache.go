// Result cache and in-flight deduplication.
//
// The memory tier is a bounded LRU (internal/lru) keyed by the canonical
// spec key (spec.CanonicalKey plus "|search", see JobKey): every spec in
// one presentation-equivalence class maps to one entry, so a rotated or
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
//
// The negative cache remembers proven infeasibility: ErrNoSolution is an
// exhaustive-search proof (timeouts never produce it), so replaying it
// from the cache is sound and saves a full solve.
package service

import (
	"sync"

	"switchsynth/internal/spec"
)

// negCacheSize bounds the negative cache in entries. Only proven
// ErrNoSolution outcomes are stored, never timeouts.
const negCacheSize = 256

// cacheEntry is one memory-tier plan.
type cacheEntry struct {
	res *spec.Result
	// wire is the plan's already-encoded frame, kept alongside the decoded
	// result so plan-stream fetches and replication pushes reuse the
	// bytes that were verified (or produced) once instead of re-encoding
	// per request. Nil when no frame is available — the injected
	// cache-corruption fault, or a plan that failed to encode — and then
	// the entry vouches for no bytes: PlanBytes falls through to the store.
	wire []byte
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
