// Metrics for the synthesis service: lock-free counters and a
// fixed-bucket latency histogram, aggregated into an immutable Snapshot
// for the /metrics endpoint and for tests. Everything here is safe for
// concurrent use; counters are monotonic over the engine's lifetime.
package service

import (
	"sync/atomic"
	"time"

	"switchsynth/internal/admission"
)

// solveBuckets are the upper bounds (seconds) of the solve-latency
// histogram buckets; the final implicit bucket is +Inf. The range covers
// sub-millisecond cache-adjacent solves up to the paper's multi-minute
// unfixed cases.
var solveBuckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
}

// numSolveBuckets includes the +Inf overflow bucket.
const numSolveBuckets = len(solveBuckets) + 1

// Metrics aggregates the engine's observability counters.
type Metrics struct {
	// jobsSubmitted counts every request handed to the engine, and
	// outcomes the finished ones by terminal bucket: each request ends
	// in exactly one (finish).
	jobsSubmitted atomic.Int64
	outcomes      [numBuckets]atomic.Int64

	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	dedupCoalesced atomic.Int64
	negCacheHits   atomic.Int64
	cacheHealed    atomic.Int64

	// Durable-tier counters (all zero when no store is configured).
	// storeHits/storeMisses count engine-level lookups that reached the
	// disk tier; storeHealed counts persisted entries that read back but
	// failed to decode, adapt or verify and were evicted and re-solved,
	// plus records under a foreign engine suffix deleted at boot.
	storeHits   atomic.Int64
	storeMisses atomic.Int64
	storeHealed atomic.Int64

	// Cluster-tier counters (all zero when no peer fill is configured).
	// peerHits count plans fetched from the owning peer, re-verified and
	// served without a local solve; peerMisses count fill attempts that
	// found no plan (owner down, not owner of the key, or owner lacks
	// it); peerRejected counts fetched plans that failed decoding, key
	// re-derivation or verification — these never reach a client or the
	// local store. peerImported counts plans pulled in by anti-entropy
	// sync and verified into the local tiers.
	peerHits     atomic.Int64
	peerMisses   atomic.Int64
	peerRejected atomic.Int64
	peerImported atomic.Int64

	// Batch intake counters: batchRequests counts POST /synthesize/batch
	// calls (Engine.DoBatch), batchSpecs the specs they carried, and
	// batchDeduped the members answered from another member's solve —
	// the intra-batch dedup the admission tier exists for.
	batchRequests atomic.Int64
	batchSpecs    atomic.Int64
	batchDeduped  atomic.Int64

	// Streaming counters: incumbentsPublished counts anytime plans the
	// optimizer pushed through the incumbent hook; streamWatches counts
	// DoStream/WatchKey subscriptions.
	incumbentsPublished atomic.Int64
	streamWatches       atomic.Int64

	solveCount   atomic.Int64
	solveNanos   atomic.Int64
	solveBucket  [numSolveBuckets]atomic.Int64
	solveMaxNano atomic.Int64
}

// bucket is a finished request's terminal /metrics bucket: completed,
// or the bucket of its failure's taxonomy row (failure.go).
type bucket uint8

const (
	bucketCompleted     bucket = iota // jobsCompleted
	bucketFailed                      // jobsFailed alone
	bucketInfeasible                  // jobsFailed, broken down as jobsInfeasible
	bucketInvalid                     // jobsFailed, broken down as jobsInvalid
	bucketPanicked                    // jobsFailed, broken down as jobsPanicked
	bucketTimedOut                    // jobsTimedOut
	bucketShed                        // jobsShed: the key's circuit breaker is open
	bucketShedQueue                   // jobsShedQueue: the admission queue shed it
	bucketDrainRejected               // jobsDrainRejected: the engine is draining
	numBuckets
)

// finish counts a finished request in its terminal bucket: completed
// when err is nil, else the bucket of err's row.
func (m *Metrics) finish(err error) {
	b := bucketCompleted
	if err != nil {
		b = classify(err).bucket
	}
	m.outcomes[b].Add(1)
}

// observeSolve records one completed (or failed) solve's wall-clock time.
func (m *Metrics) observeSolve(d time.Duration) {
	m.solveCount.Add(1)
	m.solveNanos.Add(d.Nanoseconds())
	for {
		prev := m.solveMaxNano.Load()
		if d.Nanoseconds() <= prev || m.solveMaxNano.CompareAndSwap(prev, d.Nanoseconds()) {
			break
		}
	}
	sec := d.Seconds()
	for i, ub := range solveBuckets {
		if sec <= ub {
			m.solveBucket[i].Add(1)
			return
		}
	}
	m.solveBucket[len(solveBuckets)].Add(1)
}

// Snapshot is a point-in-time copy of the service metrics, shaped for
// JSON serving. Quantiles are estimated from the histogram by linear
// interpolation inside the winning bucket (the overflow bucket reports
// the maximum observed value).
type Snapshot struct {
	// Job outcomes. Submitted counts every request handed to the
	// engine; each finished one ends in exactly one of Completed, Failed,
	// TimedOut, Shed, ShedQueue and DrainRejected, so at quiescence they
	// sum to Submitted. A failure's bucket is its taxonomy row's
	// (failure.go), so a coalesced request or batch dedup member that
	// shares its leader's error shares its leader's bucket. TimedOut
	// counts solves that spent their time limit (504); Shed counts
	// breaker fast-fails and ShedQueue admission-queue sheds (both 429),
	// DrainRejected requests refused during graceful drain (503); Failed
	// counts the other verdicts and a closed engine's refusals.
	JobsSubmitted int64 `json:"jobsSubmitted"`
	JobsCompleted int64 `json:"jobsCompleted"`
	JobsFailed    int64 `json:"jobsFailed"`
	JobsTimedOut  int64 `json:"jobsTimedOut"`

	// Infeasible/Invalid/Panicked break down JobsFailed.
	JobsInfeasible    int64 `json:"jobsInfeasible"`
	JobsInvalid       int64 `json:"jobsInvalid"`
	JobsPanicked      int64 `json:"jobsPanicked"`
	JobsShed          int64 `json:"jobsShed"`
	JobsShedQueue     int64 `json:"jobsShedQueue"`
	JobsDrainRejected int64 `json:"jobsDrainRejected"`

	// Result-cache effectiveness. A coalesced request neither hit nor
	// missed: it attached to another request's in-flight solve.
	// NegCacheHits are requests answered from the known-infeasible cache;
	// CacheHealed counts corrupted entries dropped and re-solved.
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`
	DedupCoalesced int64 `json:"dedupCoalesced"`
	NegCacheHits   int64 `json:"negCacheHits"`
	CacheHealed    int64 `json:"cacheHealed"`
	CacheEntries   int   `json:"cacheEntries"`
	NegCacheSize   int   `json:"negCacheEntries"`

	// Durable plan store (the disk tier behind the memory LRU). Enabled
	// reports whether a store is configured; the engine-level counters
	// (Hits/Misses/Healed) count two-tier lookups that reached disk,
	// the gauges mirror the store's own accounting — entries and bytes
	// on disk, and the recovery outcome of the last open (records
	// replayed, torn-tail bytes truncated).
	StoreEnabled        bool  `json:"storeEnabled"`
	StoreHits           int64 `json:"storeHits"`
	StoreMisses         int64 `json:"storeMisses"`
	StoreHealed         int64 `json:"storeHealed"`
	StoreEntries        int   `json:"storeEntries"`
	StoreDiskBytes      int64 `json:"storeDiskBytes"`
	StoreDiskHits       int64 `json:"storeDiskHits"`
	StoreDiskMisses     int64 `json:"storeDiskMisses"`
	StoreRecovered      int64 `json:"storeRecoveredRecords"`
	StoreTruncatedBytes int64 `json:"storeTruncatedBytes"`
	StoreCorruptEvicted int64 `json:"storeCorruptEvicted"`
	StoreFsyncErrors    int64 `json:"storeFsyncErrors"`

	// Cluster tier (the peer-fill path in front of the local solve).
	// PeerFillEnabled reports whether a fill hook is configured; the
	// counters mirror the Metrics fields of the same names.
	PeerFillEnabled bool  `json:"peerFillEnabled"`
	PeerHits        int64 `json:"peerHits"`
	PeerMisses      int64 `json:"peerMisses"`
	PeerRejected    int64 `json:"peerRejected"`
	PeerImported    int64 `json:"peerImported"`

	// The verified-bytes digest cache: the gauges mirror
	// planio.VerifiedCache.Stats — a hit means byte-identical plan bytes
	// skipped a redundant re-verify because the exact same bytes already
	// passed admitPlan's full check. The engine uses the process-wide
	// planio.SharedVerified cache, so the counters are process-wide too.
	DigestCacheEntries  int    `json:"digestCacheEntries"`
	DigestCacheCapacity int    `json:"digestCacheCapacity"`
	DigestCacheHits     uint64 `json:"digestCacheHits"`
	DigestCacheMisses   uint64 `json:"digestCacheMisses"`
	DigestCacheAdds     uint64 `json:"digestCacheAdds"`

	// Batch intake and streaming (the admission tier's other two jobs).
	BatchRequests       int64 `json:"batchRequests"`
	BatchSpecs          int64 `json:"batchSpecs"`
	BatchDeduped        int64 `json:"batchDeduped"`
	IncumbentsPublished int64 `json:"incumbentsPublished"`
	StreamWatches       int64 `json:"streamWatches"`

	// Engine load. BreakersOpen is the number of canonical keys currently
	// shedding load (open or probing half-open). Admission is the fair
	// queue's own gauge block: per-class depths, sheds, measured dequeue
	// gap and the current Retry-After hint.
	Workers      int             `json:"workers"`
	BreakersOpen int             `json:"breakersOpen"`
	Admission    admission.Stats `json:"admission"`

	// Exact-solver internals (process-wide, cumulative across every solve
	// in this process — including solves not routed through the engine).
	// SolverWorkers is the engine's default per-solve parallelism;
	// SolverNodesTotal counts branch-and-bound nodes expanded.
	SolverWorkers    int   `json:"solver_workers"`
	SolverNodesTotal int64 `json:"solver_nodes_total"`

	// Solve latency (actual optimizer runs only — cache hits excluded).
	SolveCount       int64   `json:"solveCount"`
	SolveMeanSeconds float64 `json:"solveMeanSeconds"`
	SolveP50Seconds  float64 `json:"solveP50Seconds"`
	SolveP90Seconds  float64 `json:"solveP90Seconds"`
	SolveP99Seconds  float64 `json:"solveP99Seconds"`
	SolveMaxSeconds  float64 `json:"solveMaxSeconds"`
}

// snapshot copies the counters; the engine fills in cache/queue gauges.
func (m *Metrics) snapshot() Snapshot {
	s := Snapshot{
		JobsSubmitted:     m.jobsSubmitted.Load(),
		JobsCompleted:     m.outcomes[bucketCompleted].Load(),
		JobsTimedOut:      m.outcomes[bucketTimedOut].Load(),
		JobsInfeasible:    m.outcomes[bucketInfeasible].Load(),
		JobsInvalid:       m.outcomes[bucketInvalid].Load(),
		JobsPanicked:      m.outcomes[bucketPanicked].Load(),
		JobsShed:          m.outcomes[bucketShed].Load(),
		JobsShedQueue:     m.outcomes[bucketShedQueue].Load(),
		JobsDrainRejected: m.outcomes[bucketDrainRejected].Load(),
		CacheHits:         m.cacheHits.Load(),
		CacheMisses:       m.cacheMisses.Load(),
		DedupCoalesced:    m.dedupCoalesced.Load(),
		NegCacheHits:      m.negCacheHits.Load(),
		CacheHealed:       m.cacheHealed.Load(),
		StoreHits:         m.storeHits.Load(),
		StoreMisses:       m.storeMisses.Load(),
		StoreHealed:       m.storeHealed.Load(),
		PeerHits:          m.peerHits.Load(),
		PeerMisses:        m.peerMisses.Load(),
		PeerRejected:      m.peerRejected.Load(),
		PeerImported:      m.peerImported.Load(),

		BatchRequests:       m.batchRequests.Load(),
		BatchSpecs:          m.batchSpecs.Load(),
		BatchDeduped:        m.batchDeduped.Load(),
		IncumbentsPublished: m.incumbentsPublished.Load(),
		StreamWatches:       m.streamWatches.Load(),

		SolveCount: m.solveCount.Load(),
		SolveMaxSeconds: time.Duration(
			m.solveMaxNano.Load()).Seconds(),
	}
	s.JobsFailed = m.outcomes[bucketFailed].Load() + s.JobsInfeasible + s.JobsInvalid + s.JobsPanicked
	if s.SolveCount > 0 {
		s.SolveMeanSeconds = time.Duration(m.solveNanos.Load() / s.SolveCount).Seconds()
	}
	var counts [numSolveBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = m.solveBucket[i].Load()
		total += counts[i]
	}
	s.SolveP50Seconds = quantile(counts[:], total, 0.50, s.SolveMaxSeconds)
	s.SolveP90Seconds = quantile(counts[:], total, 0.90, s.SolveMaxSeconds)
	s.SolveP99Seconds = quantile(counts[:], total, 0.99, s.SolveMaxSeconds)
	return s
}

// quantile estimates the q-quantile from cumulative histogram counts.
func quantile(counts []int64, total int64, q, max float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i == len(solveBuckets) {
			return max // overflow bucket: report the observed maximum
		}
		lo := 0.0
		if i > 0 {
			lo = solveBuckets[i-1]
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(solveBuckets[i]-lo)
	}
	return max
}
