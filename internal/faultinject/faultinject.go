// Package faultinject provides deterministic, seedable fault injection
// for the synthesis service's chaos tests. An Injector carries a set of
// rules keyed by named injection points; production code probes the
// points unconditionally and the injector decides — from its own seeded
// RNG, never the global one — whether the fault fires.
//
// The package is build-tag-free and nop by default: a nil *Injector is
// valid, every probe on it returns false immediately, and no injection
// point costs anything beyond a nil check when no injector is
// configured.
package faultinject

import (
	"math/rand"
	"sync"
	"time"
)

// Point names an injection site.
type Point string

// Injection points probed by internal/service.
const (
	// SolvePanic makes the optimizer panic inside a worker.
	SolvePanic Point = "solve.panic"
	// SolveSlow stretches a solve by the rule's Delay.
	SolveSlow Point = "solve.slow"
	// QueueStall delays a dequeued job before it executes.
	QueueStall Point = "queue.stall"
	// CacheCorrupt corrupts the plan copy stored in the result cache
	// (the flight's own copy stays intact).
	CacheCorrupt Point = "cache.corrupt"
	// HTTPDelay stalls a request inside the HTTP handler.
	HTTPDelay Point = "http.delay"
)

// Injection points probed by internal/cluster (the multi-node tier).
const (
	// PeerDown makes a peer HTTP round trip (probe, forward, or plan
	// fetch) fail as if the peer were unreachable.
	PeerDown Point = "peer.down"
	// PeerSlow stretches a peer round trip by the rule's Delay.
	PeerSlow Point = "peer.slow"
	// FetchCorrupt flips a byte of a plan fetched from a peer; the
	// receiver's re-verification must catch it and fall back to solving.
	FetchCorrupt Point = "peer.corruptfetch"
	// ReplCorrupt flips a byte of a plan as it is pushed to a replica;
	// the receiver's verify-on-receipt must reject it — a corrupted push
	// is never stored or served.
	ReplCorrupt Point = "peer.corruptpush"
	// PeerPartition is the directed-link black hole (see CutLink): it is
	// not configured with Set but fires whenever a cut link is probed,
	// so chaos tests can count how much traffic the partition absorbed.
	PeerPartition Point = "peer.partition"
)

// Injection points probed by internal/store (the durable plan store).
const (
	// DiskShortWrite tears a WAL append: only a prefix of the record
	// reaches the file and the put fails, leaving a torn tail exactly as
	// a crash mid-write would.
	DiskShortWrite Point = "disk.shortwrite"
	// DiskCorrupt flips a payload byte of a record on its way to disk;
	// the put succeeds but the record fails its CRC on read.
	DiskCorrupt Point = "disk.corrupt"
	// DiskFsyncErr fails a group-commit fsync: the flush is skipped and
	// the durable offset does not advance.
	DiskFsyncErr Point = "disk.fsyncerr"
)

// Rule configures one injection point.
type Rule struct {
	// Probability in [0, 1] that the fault fires at each probe; 1 fires
	// always, 0 (the zero value) never.
	Probability float64
	// Delay is slept before Fire returns true. Zero-delay faults fire
	// instantaneously (panics, corruption).
	Delay time.Duration
}

// Injector is a seeded set of fault rules. The zero of its pointer type
// (nil) is the production configuration: every probe is a nop.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Point]Rule
	fired map[Point]int64
	// links is the partition state: a set of directed (from → to) node
	// pairs whose traffic is black-holed. Directed edges make asymmetric
	// partitions expressible — A can reach B while B cannot reach A.
	links map[[2]string]bool
}

// New creates an injector whose fault decisions replay deterministically
// for a given seed and probe sequence.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[Point]Rule),
		fired: make(map[Point]int64),
		links: make(map[[2]string]bool),
	}
}

// Set installs (or replaces) the rule for p and returns the injector for
// chaining.
func (in *Injector) Set(p Point, r Rule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[p] = r
	return in
}

// Fire probes the injection point: it reports whether the fault fires,
// sleeping the rule's Delay first when it does. Nil-safe; a nil injector
// (or an unset point) never fires.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	r, ok := in.rules[p]
	if !ok || r.Probability <= 0 || in.rng.Float64() >= r.Probability {
		in.mu.Unlock()
		return false
	}
	in.fired[p]++
	in.mu.Unlock()
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	return true
}

// Fired reports how many times the point's fault has fired. Nil-safe.
func (in *Injector) Fired(p Point) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// CutLink black-holes traffic on the directed link from → to. Cutting
// both directions partitions the pair; cutting one models an asymmetric
// partition. Nil-safe nop.
func (in *Injector) CutLink(from, to string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.links[[2]string{from, to}] = true
}

// HealAllLinks restores every cut link. Nil-safe nop.
func (in *Injector) HealAllLinks() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.links = make(map[[2]string]bool)
}

// LinkDown reports whether the directed link from → to is currently cut,
// counting a hit against PeerPartition so tests can assert the partition
// actually absorbed traffic. Nil-safe; a nil injector has no cut links.
func (in *Injector) LinkDown(from, to string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.links[[2]string{from, to}] {
		return false
	}
	in.fired[PeerPartition]++
	return true
}
