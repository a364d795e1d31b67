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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/lru"
	"switchsynth/internal/planio"
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
	// their depth watermarks, and every class sheds once the predicted
	// wait passes admission.DefaultMaxWait (see internal/admission).
	QueueDepth int
	// CacheSize bounds the result LRU in entries (default 1024; negative
	// disables caching).
	CacheSize int
	// DefaultTimeLimit applies to requests that carry no time limit of
	// their own (default 30s; negative means unlimited).
	DefaultTimeLimit time.Duration
	// BreakerThreshold is the number of consecutive slot-burning failures
	// (timeouts, solver panics) on one canonical key before its circuit
	// breaker opens and requests fast-fail with *admission.ErrOverloaded
	// (default 3; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds load before
	// admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
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
	// SpecName names the requesting spec (onSpec sets it; empty for a
	// key watcher, which supplied no spec).
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

// job is one queued solve. It holds the canonical spec of key, never a
// requester's: what the solve produces is shared by every member of the
// class, so it must not carry any one member's name.
type job struct {
	key    string
	canon  *spec.Spec
	opts   switchsynth.Options
	flight *flight
}

// Engine is the concurrent synthesis service. Create with New, serve
// with Do, retire with Close (drain) or CloseNow (cancel).
type Engine struct {
	cfg   Config
	queue *admission.Queue // fair admission queue feeding the workers
	// cache is the memory tier, key → plan and frame. A capacity <= 0
	// holds nothing: requests still coalesce through the flight group,
	// and a configured durable store still serves disk hits — the
	// supported disk-only configuration (memory off, store on).
	cache    *lru.Cache[string, cacheEntry]
	store    *store.Store // nil when no durable tier is configured
	fill     func(ctx context.Context, key string) ([]byte, error)
	onStored func(key string, data []byte)           // write-time replication hook
	neg      *lru.Cache[string, *spec.ErrNoSolution] // proven infeasibility
	// verified is the verified-bytes digest cache (the process-wide
	// planio.SharedVerified): SHA-256 of plan bytes that already passed
	// admitPlan's full check, so identical bytes arriving again — repeat
	// fills, anti-entropy sweeps, disk re-reads — skip the
	// redundant decode. Unseen bytes always take the full path.
	verified *planio.VerifiedCache
	breakers *admission.Breakers // nil when the breaker is disabled
	inj      *faultinject.Injector
	flights  *flightGroup
	metrics  *Metrics

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
		cfg:      cfg,
		queue:    admission.NewQueue(admission.QueueConfig{Capacity: cfg.queueDepth()}),
		cache:    lru.New[string, cacheEntry](cfg.cacheSize(), nil),
		store:    cfg.Store,
		fill:     cfg.PeerFill,
		onStored: cfg.OnPlanStored,
		neg:      lru.New[string, *spec.ErrNoSolution](negCacheSize, nil),
		verified: planio.SharedVerified,
		inj:      cfg.FaultInjector,
		flights:  newFlightGroup(),
		metrics:  &Metrics{},
		baseCtx:  ctx,
		cancel:   cancel,
		drained:  make(chan struct{}),
		solve:    switchsynth.SolvePlan,
	}
	if th := cfg.breakerThreshold(); th > 0 {
		e.breakers = admission.NewBreakers(th, cfg.breakerCooldown())
	}
	if e.store != nil {
		// Records filed under another engine's suffix are never read
		// again, but PlanKeys would advertise them to anti-entropy peers,
		// which would pull and refuse them at every sync. Drop them once.
		for _, key := range e.store.Keys() {
			if !strings.HasSuffix(key, "|"+searchEngine) {
				_ = e.store.Delete(key)
				e.metrics.storeHealed.Add(1)
			}
		}
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
	return e.do(ctx, sp, opts, nil)
}

// do is Do with an optional frame sink: a non-nil emit also receives the
// anytime incumbents of the flight the request waits on (DoStream).
func (e *Engine) do(ctx context.Context, sp *spec.Spec, opts switchsynth.Options, emit func(*Response, bool) error) (*Response, error) {
	canon, key, err := e.canonical(sp)
	if err != nil {
		return nil, err
	}
	return e.doKeyed(ctx, key, canon, sp, opts, emit)
}

// canonical is canonicalJob for a submission: a spec that cannot be
// canonicalized (a nil one included) is counted as a submitted job that
// failed.
func (e *Engine) canonical(sp *spec.Spec) (*spec.Spec, string, error) {
	canon, key, err := canonicalJob(sp)
	if err != nil {
		e.metrics.jobsSubmitted.Add(1)
		e.metrics.finish(err)
	}
	return canon, key, err
}

// doKeyed is do for a submission whose canonical spec and job key the
// caller derived (DoBatch derives them for every member while grouping,
// the HTTP handler before it routes). A solve runs on canon; everything
// returned is presented on sp. The request ends in one terminal bucket
// (Metrics.finish).
func (e *Engine) doKeyed(ctx context.Context, key string, canon, sp *spec.Spec, opts switchsynth.Options, emit func(*Response, bool) error) (*Response, error) {
	e.metrics.jobsSubmitted.Add(1)
	resp, err := e.serve(ctx, key, canon, sp, opts, emit)
	e.metrics.finish(err)
	return resp, err
}

// serve is doKeyed's request path, from the negative cache to the solve.
func (e *Engine) serve(ctx context.Context, key string, canon, sp *spec.Spec, opts switchsynth.Options, emit func(*Response, bool) error) (*Response, error) {
	if opts.TimeLimit == 0 {
		opts.TimeLimit = e.cfg.defaultTimeLimit()
	}
	if opts.SolverWorkers == 0 {
		opts.SolverWorkers = e.cfg.solverWorkers()
	}
	if nerr, ok := e.neg.Get(key); ok {
		// A stored ErrNoSolution is an exhaustive-search proof; replay it
		// without burning a worker slot.
		e.metrics.negCacheHits.Add(1)
		return nil, onSpec(nerr, sp)
	}

	triedPeer := false
	for {
		if resp, ok := e.fromTiers(key, sp, opts); ok {
			if !resp.DiskHit {
				e.metrics.cacheHits.Add(1)
			}
			return resp, nil
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
					return resp, nil
				}
				// Fetched plan failed assembly: never served, never
				// stored. Fall through to the local solve.
				e.metrics.peerRejected.Add(1)
			}
		}
		if ok, retryAfter := e.breakers.Allow(key); !ok {
			return nil, &admission.ErrOverloaded{Key: key, RetryAfter: retryAfter}
		}
		f, leader := e.flights.join(key)
		if leader {
			e.metrics.cacheMisses.Add(1)
			if err := e.enqueue(ctx, job{key: key, canon: canon, opts: opts, flight: f}); err != nil {
				// Nobody will run this flight; fail it so attached
				// waiters and watchers get this error instead of hanging,
				// and let later requests retry.
				e.flights.complete(key, f, nil, err)
				return nil, err
			}
		} else {
			e.metrics.dedupCoalesced.Add(1)
		}
		retry, err := e.wait(ctx, f, !leader, key, sp, opts, emit)
		if retry {
			continue
		}
		if err != nil {
			return nil, onSpec(err, sp)
		}
		return e.assemble(&Response{Key: key, Coalesced: !leader, SolveTime: f.res.Runtime}, f.res, sp, opts)
	}
}

// fromTiers serves key from the memory tier, then the durable store,
// presenting the plan on sp like every hit (assemble). The persisted
// bytes pass admitPlan first (loadFromStore). A hit that no longer
// assembles — a corrupted entry, or a record filed under a key it does
// not belong to — is healed (dropped from its tier, so the caller
// re-solves), never served. A disk hit is promoted to the memory tier
// with its stored frame, so the next hit skips the disk read and peers
// get the exact bytes without a re-encode.
func (e *Engine) fromTiers(key string, sp *spec.Spec, opts switchsynth.Options) (*Response, bool) {
	if ent, ok := e.cache.Get(key); ok {
		resp, err := e.assemble(&Response{Key: key, CacheHit: true, SolveTime: ent.res.Runtime}, ent.res, sp, opts)
		if err == nil {
			return resp, true
		}
		e.cache.Delete(key)
		e.metrics.cacheHealed.Add(1)
	}
	if e.store != nil {
		if res, data, ok := e.loadFromStore(key); ok {
			resp, err := e.assemble(&Response{Key: key, CacheHit: true, DiskHit: true, SolveTime: res.Runtime}, res, sp, opts)
			if err != nil {
				_ = e.store.Delete(key)
				e.metrics.storeHealed.Add(1)
				return nil, false
			}
			e.cache.Put(key, cacheEntry{res, data})
			return resp, true
		}
	}
	return nil, false
}

// wait blocks until flight f completes or ctx is done, and returns f's
// error (nil: the plan is f.res). With a nil emit that is one select.
// With an emit it also hands every new incumbent of f to emit, presented
// under key on sp like any hit, until f completes; an incumbent that
// fails to assemble is skipped, and an emit error (the client went
// away) stops delivery but not the wait.
//
// retry is set for a follower — a coalesced request or a watcher —
// whose leader was cancelled before its job ran: rather than inherit the
// leader's private cancellation, the caller looks the key up again.
// Genuine solve timeouts are *search.ErrTimeout, never a bare context
// error.
func (e *Engine) wait(ctx context.Context, f *flight, follower bool, key string, sp *spec.Spec, opts switchsynth.Options, emit func(*Response, bool) error) (retry bool, err error) {
	var seen int64
	for done := false; !done; {
		var updated <-chan struct{} // nil, so never ready, without an emit
		if emit != nil {
			seq, best, upd := f.incumbent()
			if seq > seen {
				seen = seq
				if resp, aerr := e.assemble(&Response{Key: key, SolveTime: best.Runtime}, best, sp, opts); aerr == nil && emit(resp, false) != nil {
					emit = nil
				}
				continue // more incumbents may already have landed
			}
			updated = upd
		}
		select {
		case <-f.done:
			done = true
		case <-updated:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	if follower && f.err != nil && ctx.Err() == nil && e.baseCtx.Err() == nil &&
		!errors.Is(f.err, &search.ErrTimeout{}) &&
		(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
		return true, nil
	}
	return false, f.err
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
// produce itself: store reads, peer fills, replication pushes and
// anti-entropy pulls all pass through it before any tier
// holds them. Bytes digest-identical to a frame that already passed this
// check under key return at once. Anything else must decode as a binary
// frame, whose CRC32C it checks (JSON, which carries no checksum, is
// refused), must be flagged proven, must re-derive exactly key as its
// canonical job key, must carry its spec in exactly that key's canonical
// form (nameless, every field as Canonical spells it: what the engine
// itself stores), and must pass the full contamination verifier; only
// then is its digest recorded. Optimality is not re-proven: the Proven
// flag is trusted. Callers keep their own counters and heal actions.
func (e *Engine) admitPlan(key string, data []byte) (*spec.Result, error) {
	if res, ok := e.verified.Lookup(data, key); ok {
		return res, nil
	}
	reject := func(err error) (*spec.Result, error) {
		return nil, &ErrPlanRejected{Key: key, Err: err}
	}
	res, err := planio.DecodeBinary(data)
	if err != nil {
		return reject(err)
	}
	if !res.Proven {
		return reject(errors.New("plan is degraded (unproven plans never enter a tier)"))
	}
	if res.Engine != searchEngine {
		return reject(fmt.Errorf("plan is from engine %q, not %q", res.Engine, searchEngine))
	}
	canon, derived, err := canonicalJob(res.Spec)
	if err != nil {
		return reject(err)
	}
	if derived != key {
		return reject(fmt.Errorf("canonical key mismatch (derived %q)", derived))
	}
	if !canon.Equal(res.Spec) {
		return reject(errors.New("spec is not in canonical form"))
	}
	if err := switchsynth.Verify(res); err != nil {
		return reject(err)
	}
	e.verified.Add(data, key, res)
	return res, nil
}

// install puts a proven plan and its frame into the memory tier and the
// durable store: plans admitted from a peer (fill, import) and fresh
// solves alike. A store failure is returned; the store is a cache, so
// most callers absorb it.
func (e *Engine) install(key string, res *spec.Result, data []byte) error {
	e.cache.Put(key, cacheEntry{res, data})
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
// receiving side of replication pushes and anti-entropy sync
// (internal/cluster): bytes admitPlan refuses come back as an
// *ErrPlanRejected, never as a stored entry. Importing an
// already-present key is a cheap no-op.
func (e *Engine) ImportPlan(key string, data []byte) error {
	if _, ok := e.cache.Get(key); ok {
		return nil
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
// the memory tier first and the durable store second. This is what the
// plan stream hands to peers; absent keys report ok == false. The
// memory tier serves the frame cached next to the plan — the bytes the
// engine encoded or verified exactly once; an entry without a frame
// vouches for no bytes, so the lookup falls through to the store.
func (e *Engine) PlanBytes(key string) ([]byte, bool) {
	// Peek first: an entry without a frame is a miss and keeps its recency.
	if ent, ok := e.cache.Peek(key); ok && ent.wire != nil {
		e.cache.Get(key)
		return ent.wire, true
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
	for _, k := range e.cache.Keys() {
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
// routing). A nil sp presents the plan on its own canonical spec, for a
// watcher that supplied none (WatchKey). It records no metrics; callers
// classify the outcome, since a failed assembly of a cached entry is a
// heal, not a job failure.
func (e *Engine) assemble(resp *Response, shared *spec.Result, sp *spec.Spec, opts switchsynth.Options) (*Response, error) {
	if sp == nil {
		sp = shared.Spec
	}
	adapted, err := shared.Relabel(sp)
	if err != nil {
		return nil, fmt.Errorf("service: cached plan does not fit the request: %w", err)
	}
	syn, err := switchsynth.Analyze(adapted, opts)
	if err != nil {
		return nil, err
	}
	resp.Synthesis = syn
	return resp, nil
}

// onSpec presents a failure shared under one canonical key — a replayed
// infeasibility proof, a flight's error, a batch representative's error
// — on the requesting spec sp, as assemble does for plans: the error
// names sp. It is the only place a shared failure gets a name; solves
// run on the nameless canonical spec. The error's type, and with it
// errors.Is/As and the HTTP kind, is unchanged.
func onSpec(err error, sp *spec.Spec) error {
	switch e := err.(type) {
	case *spec.ErrNoSolution:
		c := *e
		c.SpecName = sp.Name
		return &c
	case *search.ErrTimeout:
		c := *e
		c.SpecName = sp.Name
		return &c
	case *ErrSolvePanic:
		c := *e
		c.SpecName = sp.Name
		return &c
	}
	return err
}

// runJob executes one queued solve inside a worker, with panic
// isolation: a panicking optimizer fails the job (and its attached
// waiters) but never kills the worker pool.
//
// The worker solves the job's canonical spec, derived when the request
// was keyed: the cached plan is then a pure function of the equivalence
// class and the engine, never of which member happened to submit first
// or of goroutine scheduling. Deterministic cache contents are what make
// cmd/experiments' parallel campaign byte-reproducible.
func (e *Engine) runJob(j job) {
	var (
		res *spec.Result
		err error
	)
	e.inj.Fire(faultinject.QueueStall)
	// Publish every anytime improvement the optimizer installs on the
	// flight: waiting DoStream and WatchKey watchers see each snapshot as
	// it lands, ahead of the optimality proof. The hook may fire from
	// solver worker goroutines concurrently; the flight serializes and
	// orders by objective.
	opts := j.opts
	opts.OnIncumbent = func(r *spec.Result) {
		e.metrics.incumbentsPublished.Add(1)
		j.flight.publish(r)
	}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, &ErrSolvePanic{Value: r}
			}
		}()
		if e.inj.Fire(faultinject.SolvePanic) {
			panic("faultinject: injected solver panic")
		}
		e.inj.Fire(faultinject.SolveSlow)
		res, err = e.solve(e.baseCtx, j.canon, opts)
		// The engine's own proof passes the door's contamination check
		// before it enters any tier: a plan that fails is not cached,
		// persisted, pushed or vouched for, and the request fails.
		if err == nil && res.Proven {
			if err = switchsynth.Verify(res); err != nil {
				res = nil
			}
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
			// plan-stream fetch. The plan passed the door's contamination
			// check above, so the digest of its frame enters the
			// verified-bytes cache — a replica receiving this push can skip
			// the redundant re-decode, while any corruption in transit
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
			// its own disk fault points). Only an engine with a memory tier
			// draws it: the injector's one seeded RNG must see the same draw
			// order, or every chaos schedule shifts.
			if e.cfg.cacheSize() > 0 && e.inj.Fire(faultinject.CacheCorrupt) {
				e.cache.Put(j.key, cacheEntry{res: corruptPlan(res)})
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
			e.neg.Put(j.key, nosol)
		}
	}
	// Cache before completing the flight: a request arriving after it
	// leaves the group must find the entry. The flight always carries the
	// pristine plan, never the possibly-corrupted cache copy.
	e.flights.complete(j.key, j.flight, res, err)
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
	s.CacheEntries = e.cache.Len()
	s.NegCacheSize = e.neg.Len()
	s.Admission = e.queue.Stats()
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
	s.SolverNodesTotal = search.Counters()
	if e.store != nil {
		st := e.store.Stats()
		s.StoreEnabled = true
		s.StoreEntries = st.Entries
		s.StoreDiskBytes = st.DiskBytes
		s.StoreDiskHits = st.Hits
		s.StoreDiskMisses = st.Misses
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

// searchEngine names the one engine whose plans the service holds: the
// branch and bound. Every job key ends in "|" + searchEngine, a suffix
// kept so that every key, store record, ring position and golden digest
// stays byte-identical with those filed when a second engine existed;
// New deletes persisted records under any other suffix.
const searchEngine = "search"

// JobKey is the canonical cache key the engine files sp's plan under:
// the spec's canonical key plus "|" + searchEngine. Analysis-only
// options (pressure sharing, control routing, SVG) run per request and
// do not partition the cache. The cluster tier (internal/cluster) and
// clients use it to pick the key's owning node consistently with the
// engine's own cache.
func JobKey(sp *spec.Spec) (string, error) {
	base, err := sp.CanonicalKey()
	if err != nil {
		return "", err
	}
	return JobKeyOf(base), nil
}

// canonicalJob derives sp's canonical spec and its job key in one pass:
// the engine's one canonicalization of a request.
func canonicalJob(sp *spec.Spec) (*spec.Spec, string, error) {
	canon, base, err := sp.Canonical()
	if err != nil {
		return nil, "", err
	}
	return canon, JobKeyOf(base), nil
}

// JobKeyOf is JobKey for a spec whose canonical key the caller already
// derived: the client keys idempotent retries by the canonical key and
// ranks peers by the job key, from one derivation.
func JobKeyOf(canonicalKey string) string {
	return canonicalKey + "|" + searchEngine
}
