// Package service turns the switchsynth library into a long-running,
// concurrent synthesis service: a bounded worker pool consumes solve
// jobs from a queue, identical or isomorphic specs are answered from a
// canonical-key result cache, concurrent requests for the same spec are
// coalesced onto a single solve, and atomic metrics expose the service
// health. cmd/synthd serves this engine over HTTP; cmd/experiments runs
// the evaluation campaign through it for parallel speedup.
//
// Life of a request (Engine.Do):
//
//  1. the spec is validated and reduced to its canonical key,
//  2. a cache hit adapts the stored plan onto the request's flow
//     indexing and returns without queueing,
//  3. a miss either attaches to an in-flight solve of the same key
//     (dedup) or enqueues a new job for the worker pool,
//  4. a worker solves with the request's time limit and the engine's
//     shutdown context wired into the optimizer, caches the plan, and
//     wakes every attached waiter,
//  5. the caller runs the per-request analyses (valves, pressure
//     sharing, control routing) on its adapted copy of the plan.
//
// Workers are panic-isolated: a crashing solve fails that one job and
// the pool keeps serving. Close drains queued jobs before returning;
// CloseNow cancels in-flight optimizer runs via their context.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/planio"
	"switchsynth/internal/portfolio"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
	"switchsynth/internal/store"
)

// Config sizes the engine.
type Config struct {
	// Workers is the number of concurrent solver goroutines
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds the job queue (default 4×Workers). Interactive
	// submission blocks — respecting the caller's context — when the
	// queue is full; batch and background submissions shed earlier at
	// their depth watermarks (see internal/admission).
	QueueDepth int
	// MaxQueueWait is the admission queue's wait watermark: once the
	// measured dequeue rate predicts a queue wait beyond it, new
	// submissions of every class are shed with *admission.ErrShed
	// (default 30s; negative disables the wait watermark).
	MaxQueueWait time.Duration
	// CacheSize bounds the result LRU in entries (default 1024; negative
	// disables caching).
	CacheSize int
	// DefaultTimeLimit applies to requests that carry no time limit of
	// their own (default 30s; negative means unlimited).
	DefaultTimeLimit time.Duration
	// BreakerThreshold is the number of consecutive slot-burning failures
	// (timeouts, solver panics) on one canonical key before its circuit
	// breaker opens and requests fast-fail with *ErrOverloaded (default
	// 3; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds load before
	// admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// NegativeCacheSize bounds the known-infeasible LRU in entries
	// (default 256; negative disables it). Only proven ErrNoSolution
	// outcomes are stored, never timeouts.
	NegativeCacheSize int
	// FaultInjector, when non-nil, enables deterministic fault injection
	// at the engine's chaos points (see internal/faultinject). Nil — the
	// default — makes every injection point a nop.
	FaultInjector *faultinject.Injector
	// SolverWorkers is the per-solve parallelism applied to requests that
	// carry no worker count of their own: the number of branch-and-bound
	// goroutines inside one search-engine solve (default 1 = sequential).
	// Plans are bit-identical for every value, so this never partitions
	// the cache; it trades per-job latency against cross-job throughput
	// of the Workers pool above.
	SolverWorkers int
	// Store, when non-nil, is the durable tier of the result cache: on a
	// memory miss the engine consults it before solving, and solved
	// proven plans are written through (degraded plans never persist).
	// Combined with CacheSize < 0 this gives a disk-only configuration.
	// The engine does not close the store; its owner does.
	Store *store.Store
	// PeerFill, when non-nil, is the cluster tier of the result cache: on
	// a full local miss (memory and disk) the engine asks it for the
	// planio-encoded plan before solving — in a sharded deployment this is
	// the key's owning peer (internal/cluster). The fetched plan passes
	// the engine's one admission check — decoded, its canonical key
	// re-derived and compared, the full contamination verifier re-run —
	// before it is served or persisted; a plan failing any of those is
	// discarded and the request falls back to a local solve. A (nil, error) or (nil, nil) return is a miss.
	PeerFill func(ctx context.Context, key string) ([]byte, error)
	// OnPlanStored, when non-nil, is called after a freshly solved proven
	// plan lands in the local tiers, with its canonical key and
	// wire-encoded bytes. The cluster layer wires Cluster.ReplicatePlan
	// here to push the plan to the key's replica set at write time. The
	// hook must not block (the cluster's implementation only enqueues);
	// it fires for fresh solves only — plans that arrived from a peer
	// (fill, import) are already replicating and are not re-pushed, so
	// replication cannot amplify into a loop.
	OnPlanStored func(key string, data []byte)
	// SimIndexSize bounds the spec-similarity warm-start index in entries
	// (default 512; negative disables it). The index is populated with
	// every proven plan solved here or admitted from elsewhere (filled,
	// imported or read from disk, on its first full verification) and
	// consulted on cold search-engine solves: a stored plan for the same
	// spec family (one module/flow removed or added, one conflict
	// toggled) is adapted into a starting incumbent. Warm starts only tighten the initial
	// bound; plans stay bit-identical to a cold solve.
	SimIndexSize int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 4 * c.workers()
}

func (c Config) cacheSize() int {
	switch {
	case c.CacheSize > 0:
		return c.CacheSize
	case c.CacheSize < 0:
		return 0
	default:
		return 1024
	}
}

func (c Config) defaultTimeLimit() time.Duration {
	switch {
	case c.DefaultTimeLimit > 0:
		return c.DefaultTimeLimit
	case c.DefaultTimeLimit < 0:
		return 0
	default:
		return 30 * time.Second
	}
}

func (c Config) solverWorkers() int {
	if c.SolverWorkers > 0 {
		return c.SolverWorkers
	}
	return 1
}

func (c Config) breakerThreshold() int {
	switch {
	case c.BreakerThreshold > 0:
		return c.BreakerThreshold
	case c.BreakerThreshold < 0:
		return 0
	default:
		return 3
	}
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 5 * time.Second
}

func (c Config) negativeCacheSize() int {
	switch {
	case c.NegativeCacheSize > 0:
		return c.NegativeCacheSize
	case c.NegativeCacheSize < 0:
		return 0
	default:
		return 256
	}
}

func (c Config) simIndexSize() int {
	switch {
	case c.SimIndexSize > 0:
		return c.SimIndexSize
	case c.SimIndexSize < 0:
		return 0
	default:
		return portfolio.DefaultSimIndexCapacity
	}
}

// Response is the outcome of one synthesis request.
type Response struct {
	// Synthesis is the routed, analyzed switch (nil on error).
	Synthesis *switchsynth.Synthesis
	// Key is the spec's canonical cache key.
	Key string
	// CacheHit reports that the plan was served from the result cache
	// (either tier) instead of a fresh solve.
	CacheHit bool
	// DiskHit reports that the plan came from the durable store: the
	// memory tier missed (or is disabled) and the plan was decoded and
	// re-verified from disk.
	DiskHit bool
	// PeerHit reports that the plan came from the cluster tier: both
	// local tiers missed and the key's owning peer supplied a plan that
	// passed re-verification here.
	PeerHit bool
	// Coalesced reports that the request attached to another request's
	// in-flight solve instead of starting its own.
	Coalesced bool
	// SolveTime is the optimizer wall-clock time that produced the plan
	// (the original solve's time when served from cache).
	SolveTime time.Duration
}

// ErrEngineClosed is returned for requests submitted after Close.
var ErrEngineClosed = errors.New("service: engine is closed")

// ErrSolvePanic reports that the optimizer panicked inside a worker. The
// worker pool survives; only the job (and its coalesced waiters) fail.
type ErrSolvePanic struct {
	SpecName string
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *ErrSolvePanic) Error() string {
	return fmt.Sprintf("service: synthesis of %q panicked: %v", e.SpecName, e.Value)
}

// Is makes every *ErrSolvePanic match every other under errors.Is.
func (e *ErrSolvePanic) Is(target error) bool {
	var other *ErrSolvePanic
	return errors.As(target, &other)
}

type job struct {
	key    string
	sp     *spec.Spec
	opts   switchsynth.Options
	flight *flight
}

// Engine is the concurrent synthesis service. Create with New, serve
// with Do, retire with Close (drain) or CloseNow (cancel).
type Engine struct {
	cfg      Config
	queue    *admission.Queue // fair admission queue feeding the workers
	cache    *cache
	store    *store.Store // nil when no durable tier is configured
	fill     func(ctx context.Context, key string) ([]byte, error)
	onStored func(key string, data []byte) // write-time replication hook
	neg      *negCache
	// verified is the verified-bytes digest cache (the process-wide
	// planio.SharedVerified): SHA-256 of plan bytes that already passed
	// admitPlan's full check, so identical bytes arriving again — repeat
	// fills, anti-entropy sweeps, read-repair, disk re-reads — skip the
	// redundant decode. Unseen bytes always take the full path.
	verified *planio.VerifiedCache
	breakers *admission.Breakers // nil when the breaker is disabled
	inj      *faultinject.Injector
	flights  *flightGroup
	feeds    *feedGroup // per-key anytime incumbent feeds (streaming)
	metrics  *Metrics
	// simIndex is the spec-similarity warm-start index (nil when
	// disabled): proven plans are added as they land, cold search-engine
	// solves probe it for an adapted starting incumbent.
	simIndex *portfolio.SimIndex

	// draining is set by StartDrain (graceful shutdown has begun):
	// readiness probes — /readyz, cluster membership — steer traffic
	// away, and new solves are rejected with *admission.ErrDraining
	// while in-flight and queued work finishes.
	draining atomic.Bool
	// closed is set by Close before the queue closes, so late Do calls
	// fail with the typed ErrEngineClosed instead of racing the queue.
	closed atomic.Bool

	baseCtx context.Context // cancelled by CloseNow; aborts in-flight solves
	cancel  context.CancelFunc

	closeOnce sync.Once
	drained   chan struct{} // closed when all workers exited

	// Hijacked plan-stream connections served by this engine
	// (planstream.go). Close hangs them up so a retired engine — a
	// killed node in the chaos tests, a drained daemon in production —
	// stops answering fetches that bypass the HTTP server's own
	// connection tracking.
	streamMu     sync.Mutex
	streamConns  map[net.Conn]struct{}
	streamClosed bool

	// solve is the optimizer entry point; tests substitute it to inject
	// slow, panicking or counting solves.
	solve func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error)
}

// New creates and starts an engine with cfg's worker pool.
func New(cfg Config) *Engine {
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg: cfg,
		queue: admission.NewQueue(admission.QueueConfig{
			Capacity: cfg.queueDepth(),
			MaxWait:  cfg.MaxQueueWait,
		}),
		cache:    newCache(cfg.cacheSize()),
		store:    cfg.Store,
		fill:     cfg.PeerFill,
		onStored: cfg.OnPlanStored,
		neg:      newNegCache(cfg.negativeCacheSize()),
		verified: planio.SharedVerified,
		inj:      cfg.FaultInjector,
		flights:  newFlightGroup(),
		feeds:    newFeedGroup(),
		metrics:  &Metrics{},
		baseCtx:  ctx,
		cancel:   cancel,
		drained:  make(chan struct{}),
		solve:    switchsynth.SolvePlan,
	}
	if th := cfg.breakerThreshold(); th > 0 {
		e.breakers = admission.NewBreakers(th, cfg.breakerCooldown())
	}
	if size := cfg.simIndexSize(); size > 0 {
		e.simIndex = portfolio.NewSimIndex(size)
	}
	workers := cfg.workers()
	done := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				it, ok := e.queue.Next()
				if !ok {
					return
				}
				e.runJob(it.Payload.(job))
			}
		}()
	}
	go func() {
		for i := 0; i < workers; i++ {
			<-done
		}
		close(e.drained)
	}()
	return e
}

// Do synthesizes sp, serving from the cache or an in-flight solve when
// possible. It blocks until the plan is ready, ctx is done, or the
// engine closes. opts.TimeLimit of zero inherits the engine default.
func (e *Engine) Do(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*Response, error) {
	e.metrics.jobsSubmitted.Add(1)
	key, err := canonicalJobKey(sp, opts)
	if err != nil {
		e.classifyFailure(err)
		return nil, err
	}
	if opts.TimeLimit == 0 {
		opts.TimeLimit = e.cfg.defaultTimeLimit()
	}
	if opts.SolverWorkers == 0 {
		opts.SolverWorkers = e.cfg.solverWorkers()
	}
	if nerr, ok := e.neg.get(key); ok {
		// A stored ErrNoSolution is an exhaustive-search proof; replay it
		// without burning a worker slot.
		e.metrics.negCacheHits.Add(1)
		e.classifyFailure(nerr)
		return nil, nerr
	}

	triedPeer := false
	for {
		// Memory tier. A disabled cache (capacity <= 0) explicitly skips
		// both the lookup here and the store in runJob — requests still
		// coalesce through the flight group and, in a disk-only
		// configuration, are served from the durable tier below.
		if e.cache.enabled() {
			if res, ok := e.cache.get(key); ok {
				resp, ferr := e.assemble(&Response{Key: key, CacheHit: true, SolveTime: res.Runtime}, res, sp, opts)
				if ferr != nil {
					// The stored plan no longer adapts or verifies — a
					// corrupted entry. Heal: drop it and re-solve; the fresh
					// flight result is assembled directly, never from the
					// cache, so this cannot loop.
					e.cache.invalidate(key)
					e.metrics.cacheHealed.Add(1)
					continue
				}
				e.metrics.cacheHits.Add(1)
				e.metrics.jobsCompleted.Add(1)
				return resp, nil
			}
		}
		// Disk tier: the persisted bytes pass admitPlan (the one door every
		// plan entering a tier goes through) and then the same assemble
		// path a memory hit takes, so a record that rotted on disk — or
		// was filed under a key it does not belong to — is healed
		// (evicted and re-solved), never served.
		if e.store != nil {
			if res, data, ok := e.loadFromStore(key); ok {
				resp, ferr := e.assemble(&Response{Key: key, CacheHit: true, DiskHit: true, SolveTime: res.Runtime}, res, sp, opts)
				if ferr != nil {
					_ = e.store.Delete(key)
					e.metrics.storeHealed.Add(1)
					continue
				}
				// Promote to the memory tier — with the stored frame, so the
				// next hit skips the disk read and peers get the exact bytes
				// without a re-encode.
				if e.cache.enabled() {
					e.cache.put(key, res, data)
				}
				e.metrics.jobsCompleted.Add(1)
				return resp, nil
			}
		}
		// Cluster tier: both local tiers missed — ask the key's owning
		// peer before burning a solver slot. The fetched bytes pass
		// admitPlan and then assemble, so a corrupt fetch is rejected here
		// and the request falls through to a local solve; only admitted
		// plans are installed in the local tiers, verbatim (no re-encode).
		// Tried at most once per request — a heal-loop retry must not
		// hammer the peer.
		if e.fill != nil && !triedPeer {
			triedPeer = true
			if res, data, ok := e.loadFromPeer(ctx, key); ok {
				resp, ferr := e.assemble(&Response{Key: key, CacheHit: true, PeerHit: true, SolveTime: res.Runtime}, res, sp, opts)
				if ferr == nil {
					e.metrics.peerHits.Add(1)
					// A store failure only costs a later re-fill; the
					// store's own error counters surface it.
					_ = e.install(key, res, data)
					e.metrics.jobsCompleted.Add(1)
					return resp, nil
				}
				// Fetched plan failed assembly: never served, never
				// stored. Fall through to the local solve.
				e.metrics.peerRejected.Add(1)
			}
		}
		if ok, retryAfter := e.breakers.Allow(key); !ok {
			e.metrics.jobsShed.Add(1)
			return nil, &ErrOverloaded{Key: key, RetryAfter: retryAfter}
		}
		f, leader := e.flights.join(key)
		if leader {
			e.metrics.cacheMisses.Add(1)
			if err := e.enqueue(ctx, job{key: key, sp: sp, opts: opts, flight: f}); err != nil {
				// Nobody will run this flight; fail it so attached
				// waiters don't hang, and let later requests retry. A
				// feed held open for this flight (a DoStream whose
				// release deferred to the in-flight check) now has no
				// worker coming — reap it so its watchers unblock too.
				e.flights.complete(key, f, nil, err)
				e.feeds.abandon(key)
				switch {
				case errors.Is(err, &admission.ErrShed{}):
					e.metrics.jobsShedQueue.Add(1)
				case errors.Is(err, &admission.ErrDraining{}):
					e.metrics.jobsDrainRejected.Add(1)
				default:
					e.metrics.jobsFailed.Add(1)
				}
				return nil, err
			}
		} else {
			e.metrics.dedupCoalesced.Add(1)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			e.metrics.jobsFailed.Add(1)
			return nil, ctx.Err()
		}
		if f.err != nil {
			// A coalesced waiter whose leader was cancelled before its
			// job ran retries its own solve rather than inheriting the
			// leader's private cancellation. Genuine solve timeouts are
			// *search.ErrTimeout, never a bare context error.
			if !leader && ctx.Err() == nil && e.baseCtx.Err() == nil &&
				!errors.Is(f.err, &search.ErrTimeout{}) &&
				(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				continue
			}
			e.classifyFailure(f.err)
			return nil, f.err
		}
		resp, ferr := e.assemble(&Response{Key: key, Coalesced: !leader, SolveTime: f.res.Runtime}, f.res, sp, opts)
		if ferr != nil {
			e.metrics.jobsFailed.Add(1)
			return nil, ferr
		}
		e.metrics.jobsCompleted.Add(1)
		return resp, nil
	}
}

// ErrPlanRejected reports plan bytes that admitPlan refused to let into
// any tier under Key: they do not decode, carry no optimality proof,
// belong to a different canonical key, or fail the contamination
// verifier. Err is the underlying reason.
type ErrPlanRejected struct {
	Key string
	Err error
}

// Error implements error.
func (e *ErrPlanRejected) Error() string {
	return fmt.Sprintf("service: plan %s rejected: %v", e.Key, e.Err)
}

// Unwrap exposes the underlying reason to errors.Is and errors.As.
func (e *ErrPlanRejected) Unwrap() error { return e.Err }

// admitPlan is the one door for plan bytes the engine did not just
// produce itself: store reads, peer fills, replication pushes,
// read-repair and anti-entropy pulls all pass through it before any tier
// holds them. Bytes digest-identical to a frame that already passed this
// check under key return at once. Anything else is decoded, must carry
// an optimality proof, must re-derive exactly key as its canonical job
// key, and must pass the full contamination verifier; only then is its
// digest recorded and the similarity index taught the plan — once per
// byte string, never on a digest hit. Callers keep their own counters
// and heal actions.
func (e *Engine) admitPlan(key string, data []byte) (*spec.Result, error) {
	if res, ok := e.verified.Lookup(data, key); ok {
		return res, nil
	}
	reject := func(err error) (*spec.Result, error) {
		return nil, &ErrPlanRejected{Key: key, Err: err}
	}
	res, err := planio.DecodeAny(data)
	if err != nil {
		return reject(err)
	}
	if !res.Proven {
		return reject(errors.New("plan is degraded (unproven plans never enter a tier)"))
	}
	derived, err := canonicalJobKey(res.Spec, switchsynth.Options{Engine: res.Engine})
	if err != nil {
		return reject(err)
	}
	if derived != key {
		return reject(fmt.Errorf("canonical key mismatch (derived %q)", derived))
	}
	if err := switchsynth.Verify(res); err != nil {
		return reject(err)
	}
	e.verified.Add(data, key, res)
	if e.simIndex != nil {
		e.simIndex.Add(res.Spec, res)
	}
	return res, nil
}

// install puts a proven plan and its frame into the memory tier and the
// durable store: plans admitted from a peer (fill, import) and fresh
// solves alike. A store failure is returned; the store is a cache, so
// most callers absorb it.
func (e *Engine) install(key string, res *spec.Result, data []byte) error {
	if e.cache.enabled() {
		e.cache.put(key, res, data)
	}
	if e.store != nil && data != nil {
		return e.store.Put(key, res.Engine, data)
	}
	return nil
}

// loadFromStore reads the persisted plan for key through admitPlan,
// also returning the raw stored bytes so the caller can reuse them as
// the plan's frame. A record that fails its CRC is already evicted by
// the store itself; one that reads back but is refused admission is
// deleted here. Either way the caller sees a miss and re-solves — a
// corrupted or misfiled persisted plan is never served. Counted as
// storeHits / storeMisses on the engine, mirroring the store's own
// counters, plus storeHealed for a refused record.
func (e *Engine) loadFromStore(key string) (*spec.Result, []byte, bool) {
	data, _, ok := e.store.Get(key)
	if !ok {
		e.metrics.storeMisses.Add(1)
		return nil, nil, false
	}
	res, err := e.admitPlan(key, data)
	if err != nil {
		_ = e.store.Delete(key)
		e.metrics.storeHealed.Add(1)
		e.metrics.storeMisses.Add(1)
		return nil, nil, false
	}
	e.metrics.storeHits.Add(1)
	return res, data, true
}

// loadFromPeer asks the cluster tier (the key's owning peer) for the
// plan and passes the fetched bytes through admitPlan, so a peer can
// never poison a foreign cache slot or hand over an unverified plan.
// Counted as peerMisses (no plan) or peerRejected (plan refused).
func (e *Engine) loadFromPeer(ctx context.Context, key string) (*spec.Result, []byte, bool) {
	data, err := e.fill(ctx, key)
	if err != nil || data == nil {
		e.metrics.peerMisses.Add(1)
		return nil, nil, false
	}
	res, err := e.admitPlan(key, data)
	if err != nil {
		e.metrics.peerRejected.Add(1)
		return nil, nil, false
	}
	return res, data, true
}

// ImportPlan admits a planio-encoded plan pushed or pulled from a peer
// and, on success, installs it in the local tiers under key. It is the
// receiving side of replication pushes, read-repair and anti-entropy
// sync (internal/cluster): bytes admitPlan refuses come back as an
// *ErrPlanRejected, never as a stored entry. Importing an
// already-present key is a cheap no-op.
func (e *Engine) ImportPlan(key string, data []byte) error {
	if e.cache.enabled() {
		if _, ok := e.cache.get(key); ok {
			return nil
		}
	}
	if e.store != nil && e.store.Has(key) {
		return nil
	}
	res, err := e.admitPlan(key, data)
	if err != nil {
		e.metrics.peerRejected.Add(1)
		return err
	}
	if err := e.install(key, res, data); err != nil {
		return err
	}
	e.metrics.peerImported.Add(1)
	return nil
}

// PlanBytes returns the planio-encoded plan stored under key, serving
// the memory tier first and the durable store second. This is what GET
// /plans/{key} hands to peers; absent keys report ok == false. The
// memory tier serves the frame cached next to the plan — the bytes the
// engine encoded or verified exactly once — and only falls back to a
// fresh compact encode for entries that carry no frame.
func (e *Engine) PlanBytes(key string) ([]byte, bool) {
	if e.cache.enabled() {
		if data, ok := e.cache.getWire(key); ok {
			return data, true
		}
		if res, ok := e.cache.get(key); ok {
			if data, err := planio.EncodeBinary(res); err == nil {
				return data, true
			}
		}
	}
	if e.store != nil {
		if data, _, ok := e.store.Get(key); ok {
			return data, true
		}
	}
	return nil, false
}

// PlanKeys returns the sorted union of the keys held by the local tiers
// (memory cache and durable store) — the manifest anti-entropy peers
// compare against their own.
func (e *Engine) PlanKeys() []string {
	seen := map[string]struct{}{}
	if e.store != nil {
		for _, k := range e.store.Keys() {
			seen[k] = struct{}{}
		}
	}
	for _, k := range e.cache.keys() {
		seen[k] = struct{}{}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StartDrain marks the engine as draining: /readyz flips to 503 so
// cluster probes and load balancers stop routing here, while in-flight
// and queued work keeps completing. Draining is one-way and idempotent;
// Close/CloseNow imply it.
func (e *Engine) StartDrain() { e.draining.Store(true) }

// Draining reports whether graceful shutdown has begun (StartDrain) or
// the engine is closed — either way this node must not receive new
// traffic.
func (e *Engine) Draining() bool {
	return e.draining.Load() || e.closed.Load()
}

// RetryAfterHint is the admission queue's measured backoff suggestion:
// the predicted wait of a submission arriving now, derived from the
// observed dequeue rate and clamped to [1s, 30s]. HTTP handlers use it
// for Retry-After headers on every shed and drain path.
func (e *Engine) RetryAfterHint() time.Duration {
	return e.queue.RetryAfterHint()
}

// enqueue hands a job to the admission queue, which applies the caller's
// tenant and priority class (admission.CallerFrom): interactive
// submissions block — respecting ctx — while the queue is at capacity;
// batch and background submissions shed earlier at their depth
// watermarks, and every class sheds once the measured wait watermark
// trips. A draining engine rejects new solves with *admission.ErrDraining
// so the HTTP layer can answer 503 with a measured Retry-After; a closed
// engine fails with the typed ErrEngineClosed.
func (e *Engine) enqueue(ctx context.Context, j job) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if e.draining.Load() {
		return &admission.ErrDraining{RetryAfter: e.queue.RetryAfterHint()}
	}
	if err := e.queue.Submit(ctx, admission.CallerFrom(ctx), j); err != nil {
		if errors.Is(err, admission.ErrClosed) {
			return ErrEngineClosed
		}
		return err
	}
	return nil
}

// assemble adapts the shared plan onto the requesting spec and runs the
// per-request analyses (verification, valves, pressure sharing, control
// routing). It records no metrics; callers classify the outcome, since a
// failed assembly of a cached entry is a heal, not a job failure.
func (e *Engine) assemble(resp *Response, shared *spec.Result, sp *spec.Spec, opts switchsynth.Options) (*Response, error) {
	adapted, err := adaptResult(shared, sp)
	if err != nil {
		return nil, err
	}
	syn, err := switchsynth.Analyze(adapted, opts)
	if err != nil {
		return nil, err
	}
	resp.Synthesis = syn
	return resp, nil
}

// classifyFailure counts a failed request, both in the aggregate
// counters (jobsTimedOut vs jobsFailed) and broken down by kind.
func (e *Engine) classifyFailure(err error) {
	var (
		nosol *spec.ErrNoSolution
		inval *spec.ValidationError
		pan   *ErrSolvePanic
	)
	switch {
	case errors.Is(err, &search.ErrTimeout{}):
		e.metrics.jobsTimedOut.Add(1)
	case errors.As(err, &nosol):
		e.metrics.jobsFailed.Add(1)
		e.metrics.jobsInfeasible.Add(1)
	case errors.As(err, &inval):
		e.metrics.jobsFailed.Add(1)
		e.metrics.jobsInvalid.Add(1)
	case errors.As(err, &pan):
		e.metrics.jobsFailed.Add(1)
		e.metrics.jobsPanicked.Add(1)
	default:
		e.metrics.jobsFailed.Add(1)
	}
}

// runJob executes one queued solve inside a worker, with panic
// isolation: a panicking optimizer fails the job (and its attached
// waiters) but never kills the worker pool.
//
// The worker solves the spec's canonical presentation, not the
// requester's: the cached plan is then a pure function of the
// equivalence class and the engine, never of which member happened to
// submit first or of goroutine scheduling. Deterministic cache contents
// are what make cmd/experiments' parallel campaign byte-reproducible.
func (e *Engine) runJob(j job) {
	var (
		res *spec.Result
		err error
	)
	e.inj.Fire(faultinject.QueueStall)
	// Open the key's incumbent feed and stream every anytime improvement
	// the optimizer installs: DoStream watchers see each snapshot as it
	// lands, ahead of the optimality proof. The hook may fire from solver
	// worker goroutines concurrently; the feed serializes and orders by
	// objective internally.
	feed := e.feeds.open(j.key)
	opts := j.opts
	opts.OnIncumbent = func(r *spec.Result) {
		e.metrics.incumbentsPublished.Add(1)
		feed.publish(r)
	}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, &ErrSolvePanic{SpecName: j.sp.Name, Value: r}
			}
		}()
		if e.inj.Fire(faultinject.SolvePanic) {
			panic("faultinject: injected solver panic")
		}
		e.inj.Fire(faultinject.SolveSlow)
		var canon *spec.Spec
		canon, err = j.sp.CanonicalSpec()
		if err == nil {
			res, err = e.solveCanonical(canon, opts)
		}
	}()
	e.metrics.observeSolve(time.Since(start))
	e.recordBreaker(j.key, err)
	if err == nil {
		// Degraded plans are served but not cached or persisted: the
		// cache key ignores the time limit, so a plan cut short by one
		// caller's tiny budget must not shadow the proven optimum for
		// everyone else — in memory or, worse, durably on disk.
		if res.Proven {
			// Encode the frame exactly once; the same bytes serve the
			// memory tier, the durable tier, the replication hook and every
			// GET /plans/{key} response. The engine's own encoding of its
			// own proof is as verified as bytes get, so its digest enters
			// the verified-bytes cache — a replica receiving this push can
			// skip the redundant re-decode, while any corruption in transit
			// changes the digest and takes the full check.
			wire, _ := planio.EncodeBinary(res)
			if wire != nil {
				e.verified.Add(wire, j.key, res)
			}
			// Store write-through failures are absorbed: the store is a
			// cache, not a system of record, and its error counters surface
			// in the metrics.
			_ = e.install(j.key, res, wire)
			// The cache-corruption fault overwrites the memory entry only;
			// the store and the flight keep the pristine plan (the store has
			// its own disk fault points).
			if e.cache.enabled() && e.inj.Fire(faultinject.CacheCorrupt) {
				e.cache.put(j.key, corruptPlan(res), nil)
			}
			// Replicate the freshly proven plan to the key's replica set
			// (the hook only enqueues; pushes happen on the cluster's own
			// workers).
			if e.onStored != nil && wire != nil {
				e.onStored(j.key, wire)
			}
		}
	} else {
		var nosol *spec.ErrNoSolution
		if errors.As(err, &nosol) {
			e.neg.put(j.key, nosol)
		}
	}
	// Cache before completing the feed and the flight: a request arriving
	// after either disappears must find the entry, and a stream watcher
	// woken by the final frame finds it when it falls back to Do. The
	// flight always carries the pristine plan, never the possibly-corrupted
	// cache copy. The feed completes first: a waiter the flight releases
	// may at once open a DoStream for the same key, which must get a fresh
	// feed rather than attach to this one and replay its incumbents as
	// frames of what is now a cache hit.
	e.feeds.complete(j.key, feed, res, err)
	e.flights.complete(j.key, j.flight, res, err)
}

// seedTightenEps is the margin below which a proven objective counts as
// merely matching its warm-start seed rather than tightening it.
const seedTightenEps = 1e-9

// solveCanonical runs the optimizer on the canonical spec through the
// injectable e.solve, the one solve path. Search-engine solves probe the
// similarity index for a warm-start seed; the seed only tightens the
// initial bound, so plans are byte-identical with or without it and the
// index never partitions the cache. Proven plans feed back into the
// index for future neighbors.
func (e *Engine) solveCanonical(canon *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
	var seed *spec.Result
	if engineName(opts) == switchsynth.EngineSearch && e.simIndex != nil {
		if seed = e.simIndex.Lookup(canon); seed != nil {
			e.metrics.warmStartHits.Add(1)
			opts.SeedIncumbent = seed
		} else {
			e.metrics.warmStartMisses.Add(1)
		}
	}
	res, err := e.solve(e.baseCtx, canon, opts)
	if err == nil && res != nil && res.Proven {
		if seed != nil && res.Objective < seed.Objective-seedTightenEps {
			e.metrics.seedTightened.Add(1)
		}
		if e.simIndex != nil {
			e.simIndex.Add(canon, res)
		}
	}
	return res, err
}

// recordBreaker feeds a solve outcome into the key's circuit breaker:
// slot-burning failures (timeout, panic) count against it, anything that
// completed — a plan, or even a proven ErrNoSolution — resets it.
func (e *Engine) recordBreaker(key string, err error) {
	if e.breakers == nil {
		return
	}
	if errors.Is(err, &search.ErrTimeout{}) || errors.Is(err, &ErrSolvePanic{}) {
		e.breakers.RecordFailure(key)
		return
	}
	e.breakers.RecordSuccess(key)
}

// corruptPlan is the cache-corruption fault: a shallow copy of the plan
// missing its last route, which can neither adapt onto a requester nor
// pass verification — exercising the heal path in Do.
func corruptPlan(res *spec.Result) *spec.Result {
	c := *res
	if len(c.Routes) > 0 {
		c.Routes = append([]spec.Route(nil), c.Routes[:len(c.Routes)-1]...)
	}
	return &c
}

// Snapshot returns the current metrics, cache and queue gauges.
func (e *Engine) Snapshot() Snapshot {
	s := e.metrics.snapshot()
	s.CacheEntries = e.cache.len()
	s.NegCacheSize = e.neg.len()
	s.Admission = e.queue.Stats()
	s.QueueDepth = s.Admission.Depth
	s.Workers = e.cfg.workers()
	s.BreakersOpen = e.breakers.OpenCount()
	s.PeerFillEnabled = e.fill != nil
	dst := e.verified.Stats()
	s.DigestCacheEntries = dst.Entries
	s.DigestCacheCapacity = dst.Capacity
	s.DigestCacheHits = dst.Hits
	s.DigestCacheMisses = dst.Misses
	s.DigestCacheAdds = dst.Adds
	s.SolverWorkers = e.cfg.solverWorkers()
	s.SolverNodesTotal, s.SolverStealsTotal = search.Counters()
	s.SeedsAdopted, s.SeedsRejected = search.SeedCounters()
	if e.simIndex != nil {
		st := e.simIndex.Stats()
		s.SimIndexEntries = st.Entries
		s.SimIndexCapacity = st.Capacity
		s.SimIndexLookups = st.Lookups
		s.SimIndexHits = st.Hits
	}
	if e.store != nil {
		st := e.store.Stats()
		s.StoreEnabled = true
		s.StoreEntries = st.Entries
		s.StoreDiskBytes = st.DiskBytes
		s.StoreDiskHits = st.Hits
		s.StoreDiskMisses = st.Misses
		s.StoreCompactions = st.Compactions
		s.StoreRecovered = st.Recovered
		s.StoreTruncatedBytes = st.TruncatedBytes
		s.StoreCorruptEvicted = st.CorruptEvicted
		s.StoreFsyncErrors = st.FsyncErrors
	}
	return s
}

// Close stops accepting requests, drains queued jobs, and waits for the
// workers to finish in-flight solves. Safe to call multiple times.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		e.queue.Close()
		e.streamMu.Lock()
		e.streamClosed = true
		for c := range e.streamConns {
			_ = c.Close()
		}
		e.streamConns = nil
		e.streamMu.Unlock()
	})
	<-e.drained
}

// CloseNow is Close but also cancels in-flight optimizer runs through
// their context; bounded-incumbent solves return their best plan so far.
func (e *Engine) CloseNow() {
	e.cancel()
	e.Close()
}

// JobKey is the exported form of canonicalJobKey: the canonical cache
// key the engine files sp's plan under when solved with opts. The
// cluster tier (internal/cluster) and clients use it to pick the key's
// owning node consistently with the engine's own cache.
func JobKey(sp *spec.Spec, opts switchsynth.Options) (string, error) {
	return canonicalJobKey(sp, opts)
}

// canonicalJobKey extends the spec's canonical key with the options that
// select a different plan (the engine choice). Analysis-only options
// (pressure sharing, control routing, SVG) run per request and do not
// partition the cache.
func canonicalJobKey(sp *spec.Spec, opts switchsynth.Options) (string, error) {
	base, err := sp.CanonicalKey()
	if err != nil {
		return "", err
	}
	return base + "|" + engineName(opts), nil
}

// engineName resolves the effective engine for opts (the key suffix and
// the provenance recorded alongside persisted plans).
func engineName(opts switchsynth.Options) string {
	if opts.Engine != "" {
		return opts.Engine
	}
	return switchsynth.EngineSearch
}
