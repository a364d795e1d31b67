// Package cluster turns a set of independent synthd nodes into a
// consistent-hash sharded cluster with no external dependencies and no
// coordinator: a static peer list, rendezvous hashing for ownership
// (ring.go), health-probed membership with flap damping
// (membership.go), request forwarding with local fallback (proxy.go),
// peer cache fill (FetchPlan below) and background anti-entropy plan
// sync (sync.go).
//
// The design invariants, in priority order:
//
//  1. Never fail a request a single node could have served. Every
//     cluster path — forwarding, peer fill, sync — degrades to "solve
//     it locally" on any error. A fully partitioned node behaves
//     exactly like a single-node synthd.
//  2. Only proven plans propagate. Every plan that crosses a node
//     boundary is re-verified by the receiver (decode, Proven flag,
//     canonical-key re-derivation, full contamination verification)
//     before it is served or stored. A corrupt or malicious peer can
//     cost a redundant solve, never a wrong answer.
//  3. Determinism is topology-independent. The solver produces
//     bit-identical plans at any worker count, so a plan is the same
//     bytes whether solved locally, by the owner, or recovered from a
//     dead node's replica — clients cannot tell which node solved.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchsynth/internal/faultinject"
	"switchsynth/internal/planio"
)

// Defaults; each is overridable via Config.
const (
	defaultProbeInterval = 2 * time.Second
	defaultProbeTimeout  = 1 * time.Second
	defaultSyncInterval  = 15 * time.Second
	defaultFetchTimeout  = 5 * time.Second
	defaultMaxHops       = 2
	defaultReplication   = 2

	// maxPlanBytes bounds a fetched plan; real plans are tens of KB.
	maxPlanBytes = 8 << 20

	// probeFanout bounds concurrent probes per round: enough to overlap
	// the timeouts of several hung peers without opening a connection
	// per member on large rings.
	probeFanout = 4
)

// Config wires a Cluster to its node list and to the local engine.
type Config struct {
	// SelfID is this node's ID; it must appear in Peers.
	SelfID string
	// Peers is the full static member list, self included.
	Peers []Node

	// ProbeInterval is the period of the /readyz health-probe loop;
	// ProbeTimeout bounds each probe round trip.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// SyncInterval is the period of the anti-entropy loop; < 0 disables
	// it (0 means default).
	SyncInterval time.Duration
	// FetchTimeout bounds one peer plan fetch.
	FetchTimeout time.Duration
	// MaxHops caps forwarding chains (see proxy.go); 0 means default.
	MaxHops int
	// Replication is the replica-set size R: every plan lives on the
	// first R nodes of its key's rendezvous ranking (replicate.go).
	// 0 means default (2); values above the cluster size are clamped to
	// it; 1 disables replication and reproduces the single-owner
	// behaviour.
	Replication int
	// UpAfter/DownAfter are the flap-damping streak thresholds
	// (membership.go); 0 means default.
	UpAfter   int
	DownAfter int

	// HTTPClient performs all peer traffic; nil uses a private client
	// with sane timeouts.
	HTTPClient *http.Client
	// FaultInjector, when non-nil, lets chaos tests break peer traffic
	// (PeerDown, PeerSlow, FetchCorrupt). Nil in production.
	FaultInjector *faultinject.Injector

	// LocalKeys returns the canonical keys of every plan held locally;
	// LocalImport verifies and stores one fetched plan. Both are
	// engine callbacks (Engine.PlanKeys / Engine.ImportPlan) passed as
	// plain funcs so the service layer never imports cluster.
	LocalKeys   func() []string
	LocalImport func(key string, data []byte) error
}

// Cluster is one node's view of the sharded deployment.
type Cluster struct {
	self Node
	ring *Ring
	mem  *membership
	hc   *http.Client
	// streamHC shares hc's transport but has no whole-request timeout:
	// forwarded streaming solves (?wait=proof, /synthesize/stream/) run
	// as long as the solve does, bounded by the watcher's own context.
	streamHC *http.Client
	inj      *faultinject.Injector
	cfg      Config

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// replq carries asynchronous replication and read-repair pushes
	// (replicate.go); replPending tracks enqueued-but-unfinished tasks
	// so tests can wait for the queue to settle.
	replq       chan replTask
	replPending atomic.Int64

	// streams pools the persistent plan-fetch channels (planstream.go).
	streams *planStreams

	// Counters for /cluster and /metrics.
	forwards         atomic.Int64 // requests proxied to the owner
	forwardFallbacks atomic.Int64 // forwards that fell back to local solve
	forwardFailovers atomic.Int64 // forwards served by a successor, not the owner
	localServes      atomic.Int64 // /synthesize served locally (owner or fallback)
	fillHits         atomic.Int64 // peer fills that returned plan bytes
	fillMisses       atomic.Int64 // peer fills answered 404 (peer lacks it)
	fillErrors       atomic.Int64 // peer fills that failed in transit
	fillFailovers    atomic.Int64 // peer fills served by a successor, not the owner
	streamFetches    atomic.Int64 // fetches served over the persistent plan stream
	streamDials      atomic.Int64 // plan-stream upgrade attempts (success or not)
	replPushes       atomic.Int64 // write-time replica pushes delivered
	replErrors       atomic.Int64 // replica/repair pushes that failed or were rejected
	replDropped      atomic.Int64 // pushes dropped because the queue was full
	repairPushes     atomic.Int64 // read-repair pushes delivered
	syncRounds       atomic.Int64
	syncPulls        atomic.Int64 // plans imported by anti-entropy
	syncErrors       atomic.Int64
	probes           atomic.Int64
}

// New validates cfg and builds the cluster (probe and sync loops start
// with Start). An empty peer list (or a list containing only self) is
// valid and yields a single-node cluster whose middleware and fill hook
// are pass-through.
func New(cfg Config) (*Cluster, error) {
	if cfg.SelfID == "" {
		return nil, fmt.Errorf("cluster: SelfID is required")
	}
	var self *Node
	for i := range cfg.Peers {
		if cfg.Peers[i].ID == cfg.SelfID {
			self = &cfg.Peers[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: SelfID %q not in peer list", cfg.SelfID)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = defaultProbeTimeout
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = defaultSyncInterval
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = defaultFetchTimeout
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = defaultMaxHops
	}
	if cfg.Replication <= 0 {
		cfg.Replication = defaultReplication
	}
	if cfg.Replication > len(cfg.Peers) {
		cfg.Replication = len(cfg.Peers)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Cluster{
		self:     *self,
		ring:     NewRing(cfg.Peers),
		mem:      newMembership(cfg.SelfID, cfg.Peers, cfg.UpAfter, cfg.DownAfter),
		hc:       hc,
		streamHC: &http.Client{Transport: hc.Transport},
		inj:      cfg.FaultInjector,
		cfg:      cfg,
		replq:    make(chan replTask, replQueueDepth),
		streams:  newPlanStreams(),
		stop:     make(chan struct{}),
	}, nil
}

// SelfID returns this node's ID.
func (c *Cluster) SelfID() string { return c.self.ID }

// Ring exposes the ownership ring (for the owner-routing client).
func (c *Cluster) Ring() *Ring { return c.ring }

// Start launches the probe loop, the replication push workers and,
// unless disabled, the anti-entropy loop. Call Stop after a successful
// Start.
func (c *Cluster) Start() {
	c.wg.Add(1)
	go c.probeLoop()
	for i := 0; i < replWorkers; i++ {
		c.wg.Add(1)
		go c.replLoop()
	}
	if c.cfg.SyncInterval > 0 && c.cfg.LocalKeys != nil && c.cfg.LocalImport != nil {
		c.wg.Add(1)
		go c.syncLoop()
	}
}

// Stop halts the background loops and waits for them to exit. It is
// idempotent: a crash test that kills a node and a deferred cleanup may
// both call it.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	// Hang up the persistent fetch channels so the peers' stream-serving
	// goroutines unblock; safe (and useful) even if Start never ran.
	c.streams.closeAll()
}

// Owner returns key's highest-ranked *alive* node and whether that is
// the local node. With every preferred peer down the local node answers
// for the whole keyspace (invariant 1: a partitioned node is a working
// single node).
func (c *Cluster) Owner(key string) (Node, bool) {
	for _, n := range c.ring.Rank(key) {
		if n.ID == c.self.ID {
			return n, true
		}
		if c.mem.alive(n.ID) {
			return n, false
		}
	}
	return c.self, true
}

// probeLoop hits every peer's /readyz on a jittered period, feeding the
// flap-damped state machines. The first round runs immediately so a
// dead peer at boot is detected within DownAfter probes, not
// DownAfter+1 intervals. The ±20% jitter keeps a fleet that was
// restarted together from probing in lockstep forever.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	for {
		c.probeOnce()
		t := time.NewTimer(jitterInterval(c.cfg.ProbeInterval))
		select {
		case <-c.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// jitterInterval spreads d uniformly over [0.8d, 1.2d).
func jitterInterval(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}

// probeOnce probes every non-self peer concurrently with a bounded
// fan-out, so one hung peer costs ProbeTimeout for its slot, not for
// the whole round.
func (c *Cluster) probeOnce() {
	sem := make(chan struct{}, probeFanout)
	var wg sync.WaitGroup
	for _, n := range c.ring.Members() {
		if n.ID == c.self.ID {
			continue
		}
		c.probes.Add(1)
		sem <- struct{}{}
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := c.probe(n); err != nil {
				c.mem.observe(n.ID, false, err.Error())
			} else {
				c.mem.observe(n.ID, true, "")
			}
		}(n)
	}
	wg.Wait()
}

// probe performs one /readyz round trip. A 503 (draining) counts as
// down: the peer is alive but asking not to be routed to.
func (c *Cluster) probe(n Node) error {
	if c.inj.LinkDown(c.self.ID, n.ID) {
		return fmt.Errorf("injected: link %s->%s cut", c.self.ID, n.ID)
	}
	if c.inj.Fire(faultinject.PeerDown) {
		return fmt.Errorf("injected: peer down")
	}
	c.inj.Fire(faultinject.PeerSlow)
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: status %d", resp.StatusCode)
	}
	return nil
}

// FetchPlan is the engine's peer-fill hook (service.Config.PeerFill):
// on a local memory+disk miss it walks key's replica set in rank order
// — owner first, then successors, up to Replication live candidates —
// asking each for the plan bytes before solving. A candidate that is
// down by membership or fails in transit is skipped (failover); the
// walk stops at the local node's own rank position, since everything
// ranked below it would hold the plan only by accident.
//
// Returns (nil, nil) — a clean miss that falls through to the local
// solve — when the local node is the highest-ranked live replica or no
// candidate has the plan. When every attempted candidate failed in
// transit, the last error is returned wrapped with the peer ID and the
// underlying cause (%w), so errors.Is(err, context.DeadlineExceeded)
// works through the cluster layer.
//
// Read-repair: when a successor serves a plan that an earlier live
// replica answered 404 for, the served bytes are pushed back to the
// lacking replica through the same verify-on-receipt import path as
// write-time replication. The engine re-verifies whatever this
// function returns; it only moves bytes.
func (c *Cluster) FetchPlan(ctx context.Context, key string) ([]byte, error) {
	var (
		lacked   []Node // live replicas that answered 404 before the hit
		lastErr  error
		failover bool
		tried    int
	)
	for _, n := range c.ring.Rank(key) {
		if n.ID == c.self.ID || tried >= c.cfg.Replication {
			break
		}
		if !c.mem.alive(n.ID) {
			failover = true
			continue
		}
		tried++
		data, found, err := c.fetchFrom(ctx, n, key)
		if err != nil {
			c.fillErrors.Add(1)
			c.mem.observe(n.ID, false, err.Error())
			lastErr = fmt.Errorf("cluster: fetch plan %s from peer %s: %w", key, n.ID, err)
			failover = true
			continue
		}
		if !found {
			c.fillMisses.Add(1)
			lacked = append(lacked, n)
			failover = true
			continue
		}
		c.fillHits.Add(1)
		if failover {
			c.fillFailovers.Add(1)
		}
		for _, back := range lacked {
			c.enqueue(replTask{key: key, data: data, to: back, repair: true})
		}
		return data, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, nil
}

// replicated reports whether the local node is in key's replica set —
// the first Replication entries of the rendezvous ranking.
func (c *Cluster) replicated(key string) bool {
	rank := c.ring.Rank(key)
	r := c.cfg.Replication
	if r > len(rank) {
		r = len(rank)
	}
	for _, n := range rank[:r] {
		if n.ID == c.self.ID {
			return true
		}
	}
	return false
}

// fetchFrom GETs /plans/{key} from n. found is false on 404 (the peer
// does not have the plan — not an error, not evidence of ill health).
func (c *Cluster) fetchFrom(ctx context.Context, n Node, key string) (data []byte, found bool, err error) {
	if c.inj.LinkDown(c.self.ID, n.ID) {
		return nil, false, fmt.Errorf("injected: link %s->%s cut", c.self.ID, n.ID)
	}
	if c.inj.Fire(faultinject.PeerDown) {
		return nil, false, fmt.Errorf("injected: peer down")
	}
	c.inj.Fire(faultinject.PeerSlow)
	// Persistent channel first: one length-prefixed exchange instead of
	// a full HTTP round trip. Any stream problem — pre-stream peer,
	// dial failure, mid-exchange error — falls through to the plain GET
	// below, which owns the error accounting.
	if data, found, ok := c.fetchViaStream(n, key); ok {
		if len(data) > 0 && c.inj.Fire(faultinject.FetchCorrupt) {
			data[len(data)/2] ^= 0x40
		}
		return data, found, nil
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/plans/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, false, err
	}
	// Ask for the binary frame (without the Accept header a peer answers
	// the JSON file format meant for humans).
	req.Header.Set("Accept", planio.ContentTypeBinary)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("plans/%s: status %d", key, resp.StatusCode)
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, maxPlanBytes+1))
	if err != nil {
		return nil, false, err
	}
	if len(data) > maxPlanBytes {
		return nil, false, fmt.Errorf("plans/%s: plan exceeds %d bytes", key, maxPlanBytes)
	}
	if len(data) > 0 && c.inj.Fire(faultinject.FetchCorrupt) {
		// Flip one byte mid-payload; the receiver's re-verification must
		// reject the plan (invariant 2).
		data[len(data)/2] ^= 0x40
	}
	return data, true, nil
}

// Status is the /cluster endpoint's payload: ownership scheme, the
// damped health of every peer, and the node's cluster counters.
type Status struct {
	Self        string `json:"self"`
	Hash        string `json:"hash"`
	MaxHops     int    `json:"maxHops"`
	Replication int    `json:"replication"`

	// Peers lists every member ID-sorted, self included (self is always
	// up and never probed).
	Peers []PeerStatus `json:"peers"`

	Forwards         int64 `json:"forwards"`
	ForwardFallbacks int64 `json:"forwardFallbacks"`
	ForwardFailovers int64 `json:"forwardFailovers"`
	LocalServes      int64 `json:"localServes"`
	FillHits         int64 `json:"fillHits"`
	FillMisses       int64 `json:"fillMisses"`
	FillErrors       int64 `json:"fillErrors"`
	FillFailovers    int64 `json:"fillFailovers"`
	StreamFetches    int64 `json:"streamFetches"`
	StreamDials      int64 `json:"streamDials"`
	ReplPushes       int64 `json:"replPushes"`
	ReplErrors       int64 `json:"replErrors"`
	ReplDropped      int64 `json:"replDropped"`
	RepairPushes     int64 `json:"repairPushes"`
	SyncRounds       int64 `json:"syncRounds"`
	SyncPulls        int64 `json:"syncPulls"`
	SyncErrors       int64 `json:"syncErrors"`
	Probes           int64 `json:"probes"`
}

// Status snapshots the cluster's externally visible state.
func (c *Cluster) Status() Status {
	health := c.mem.snapshot()
	peers := make([]PeerStatus, 0, len(c.ring.members))
	for _, n := range c.ring.Members() {
		if n.ID == c.self.ID {
			peers = append(peers, PeerStatus{ID: n.ID, URL: n.URL, Self: true, Up: true})
			continue
		}
		if ps, ok := health[n.ID]; ok {
			peers = append(peers, ps)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return Status{
		Self:             c.self.ID,
		Hash:             HashScheme,
		MaxHops:          c.cfg.MaxHops,
		Replication:      c.cfg.Replication,
		Peers:            peers,
		Forwards:         c.forwards.Load(),
		ForwardFallbacks: c.forwardFallbacks.Load(),
		ForwardFailovers: c.forwardFailovers.Load(),
		LocalServes:      c.localServes.Load(),
		FillHits:         c.fillHits.Load(),
		FillMisses:       c.fillMisses.Load(),
		FillErrors:       c.fillErrors.Load(),
		FillFailovers:    c.fillFailovers.Load(),
		StreamFetches:    c.streamFetches.Load(),
		StreamDials:      c.streamDials.Load(),
		ReplPushes:       c.replPushes.Load(),
		ReplErrors:       c.replErrors.Load(),
		ReplDropped:      c.replDropped.Load(),
		RepairPushes:     c.repairPushes.Load(),
		SyncRounds:       c.syncRounds.Load(),
		SyncPulls:        c.syncPulls.Load(),
		SyncErrors:       c.syncErrors.Load(),
		Probes:           c.probes.Load(),
	}
}

// writeJSON is the package's minimal response helper.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
