// Package cluster turns a set of independent synthd nodes into a
// consistent-hash sharded cluster with no external dependencies and no
// coordinator: a static peer list, rendezvous hashing for ownership
// (ring.go), health-probed membership with flap damping
// (membership.go), request forwarding with local fallback (proxy.go, a
// hook of the service handler),
// peer cache fill (FetchPlan below) and background anti-entropy plan
// sync (sync.go).
//
// The design invariants, in priority order:
//
//  1. Never fail a request a single node could have served. Every
//     cluster path — forwarding, peer fill, sync — degrades to "solve
//     it locally" on any error. A fully partitioned node behaves
//     exactly like a single-node synthd.
//  2. Only plans flagged proven propagate. Every plan that crosses a
//     node boundary is re-verified by the receiver (decode, Proven flag,
//     canonical-key re-derivation, full contamination verification)
//     before it is served or stored. A corrupt or malicious peer can
//     cost a redundant solve, never a contaminated or mis-keyed plan;
//     peers are trusted for optimality, which the receiver does not
//     re-prove.
//  3. Determinism is topology-independent. The solver produces
//     bit-identical plans at any worker count, so a plan is the same
//     bytes whether solved locally, by the owner, or recovered from a
//     dead node's replica — clients cannot tell which node solved.
package cluster

import (
	"context"
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
	"switchsynth/internal/service"
)

// Defaults for the Config fields that leave them zero.
const (
	defaultProbeInterval = 2 * time.Second
	defaultSyncInterval  = 15 * time.Second
	defaultFetchTimeout  = 5 * time.Second
)

const (
	// probeTimeout bounds each health-probe round trip.
	probeTimeout = 1 * time.Second
	// maxHops caps forwarding chains (see proxy.go).
	maxHops = 2
	// replication is the replica-set size R: every plan lives on the
	// first R nodes of its key's rendezvous ranking (replicate.go),
	// clamped to the cluster size — a single-node cluster has R = 1 and
	// never replicates.
	replication = 2

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

	// ProbeInterval is the period of the /readyz health-probe loop.
	ProbeInterval time.Duration
	// SyncInterval is the period of the anti-entropy loop; < 0 disables
	// it (0 means default).
	SyncInterval time.Duration
	// FetchTimeout bounds one peer plan fetch.
	FetchTimeout time.Duration
	// UpAfter/DownAfter are the flap-damping streak thresholds
	// (membership.go); 0 means default.
	UpAfter   int
	DownAfter int

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
	// hc is the one peer client. It has no whole-request timeout: every
	// round trip is bounded by its own context — probeTimeout for a
	// probe, FetchTimeout for a push or a manifest, and the caller's
	// request context for a forward, which runs as long as the owner's
	// solve does.
	hc  *http.Client
	inj *faultinject.Injector
	cfg Config
	// replicas is the replica-set size: replication clamped to the
	// cluster size.
	replicas int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// replq carries asynchronous replication pushes
	// (replicate.go); replPending tracks enqueued-but-unfinished tasks
	// so tests can wait for the queue to settle.
	replq       chan replTask
	replPending atomic.Int64

	// streams pools the persistent plan-fetch channels (planstream.go).
	streams *planStreams

	// Counters for the /metrics "cluster" block.
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
	replErrors       atomic.Int64 // replica pushes that failed or were rejected
	replDropped      atomic.Int64 // pushes dropped because the queue was full
	syncRounds       atomic.Int64
	syncPulls        atomic.Int64 // plans imported by anti-entropy
	syncErrors       atomic.Int64
	probes           atomic.Int64
}

// New validates cfg and builds the cluster (probe and sync loops start
// with Start). An empty peer list (or a list containing only self) is
// valid and yields a single-node cluster whose routing and fill hooks
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
	for _, n := range cfg.Peers {
		if n.ID == cfg.SelfID && n.URL == "" {
			continue // self is never dialed and may omit its URL
		}
		if err := checkPeerURL(n.URL); err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %w", n.ID, err)
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = defaultSyncInterval
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = defaultFetchTimeout
	}
	return &Cluster{
		self:     *self,
		ring:     NewRing(cfg.Peers),
		mem:      newMembership(cfg.SelfID, cfg.Peers, cfg.UpAfter, cfg.DownAfter),
		hc:       &http.Client{},
		inj:      cfg.FaultInjector,
		cfg:      cfg,
		replicas: min(replication, len(cfg.Peers)),
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
// fan-out, so one hung peer costs probeTimeout for its slot, not for
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
			_ = c.probe(n)
		}(n)
	}
	wg.Wait()
}

// checkPeerURL accepts exactly http://host:port. The plan stream dials
// the host raw, so a scheme, path, query or userinfo it cannot honour
// is a boot error rather than a permanent fill error.
func checkPeerURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme != "http" || u.Hostname() == "" || u.Port() == "" || "http://"+u.Host != raw {
		return fmt.Errorf("URL %q is not http://host:port", raw)
	}
	return nil
}

// peerCall runs one round trip to n behind the injected peer faults
// and records its outcome in membership by one rule: a transport error
// or an injected fault is a down observation, a refusal status
// (service.Transient: 429/502/503) is no evidence, and any other answer
// — a verdict such as a 504 solve timeout included — is an up
// observation. A transport error after ctx — the context of whoever
// wanted the answer — has ended is no evidence either: the caller left,
// the peer may be fine. rt returns the status the peer answered with, 0
// when no answer arrived.
func (c *Cluster) peerCall(ctx context.Context, n Node, rt func() (status int, err error)) error {
	var status int
	var err error
	switch {
	case c.inj.LinkDown(c.self.ID, n.ID):
		err = fmt.Errorf("injected: link %s->%s cut", c.self.ID, n.ID)
	case c.inj.Fire(faultinject.PeerDown):
		err = fmt.Errorf("injected: peer down")
	default:
		c.inj.Fire(faultinject.PeerSlow)
		status, err = rt()
	}
	switch {
	case status == 0 && err != nil:
		if ctx.Err() == nil {
			c.mem.observe(n.ID, false, err.Error())
		}
	case !service.Transient(status):
		c.mem.observe(n.ID, true, "")
	}
	return err
}

// probe performs one /readyz round trip.
func (c *Cluster) probe(n Node) error {
	return c.peerCall(context.Background(), n, func() (int, error) {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/readyz", nil)
		if err != nil {
			return 0, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			// Unlike any other round trip, every non-200 readiness
			// answer is a down observation: a draining 503 means alive
			// but asking not to be routed to.
			return 0, fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
		return resp.StatusCode, nil
	})
}

// walkReplicas offers key's candidates to try in rank order — owner
// first, then successors — until try reports success, the walk reaches
// the local node (everything ranked below it would hold the plan only
// by accident), or replicas live candidates were tried. Candidates
// that membership marks down are skipped without using a slot.
// failover tells try that an earlier candidate was skipped or failed.
// It returns the number of candidates tried.
func (c *Cluster) walkReplicas(key string, try func(n Node, failover bool) bool) (tried int) {
	failover := false
	for _, n := range c.ring.Rank(key) {
		if n.ID == c.self.ID || tried >= c.replicas {
			break
		}
		if !c.mem.alive(n.ID) {
			failover = true
			continue
		}
		tried++
		if try(n, failover) {
			break
		}
		failover = true
	}
	return tried
}

// replicaSet returns key's replica set: the first replicas nodes of its
// rendezvous ranking.
func (c *Cluster) replicaSet(key string) []Node {
	return c.ring.Rank(key)[:c.replicas]
}

// FetchPlan is the engine's peer-fill hook (service.Config.PeerFill):
// on a local memory+disk miss it walks key's replicas (walkReplicas),
// asking each for the plan bytes before solving. A candidate that
// fails in transit is skipped (failover).
//
// Returns (nil, nil) — a clean miss that falls through to the local
// solve — when the local node is the highest-ranked live replica or no
// candidate has the plan. When every attempted candidate failed in
// transit, the last error is returned wrapped with the peer ID and the
// underlying cause (%w), so errors.Is(err, context.DeadlineExceeded)
// works through the cluster layer. A caller whose ctx has ended stops
// the walk at the failed candidate.
//
// The engine re-verifies whatever this function returns; it only moves
// bytes. A replica that answered 404 catches up through anti-entropy
// (sync.go) alone.
func (c *Cluster) FetchPlan(ctx context.Context, key string) ([]byte, error) {
	var (
		lastErr error
		plan    []byte
	)
	c.walkReplicas(key, func(n Node, failover bool) bool {
		data, found, err := c.fetchFrom(ctx, n, key)
		if err != nil {
			c.fillErrors.Add(1)
			lastErr = fmt.Errorf("cluster: fetch plan %s from peer %s: %w", key, n.ID, err)
			return ctx.Err() != nil
		}
		if !found {
			c.fillMisses.Add(1)
			return false
		}
		c.fillHits.Add(1)
		if failover {
			c.fillFailovers.Add(1)
		}
		plan = data
		return true
	})
	if plan != nil {
		return plan, nil
	}
	return nil, lastErr
}

// replicated reports whether the local node is in key's replica set.
func (c *Cluster) replicated(key string) bool {
	for _, n := range c.replicaSet(key) {
		if n.ID == c.self.ID {
			return true
		}
	}
	return false
}

// fetchFrom asks n for key's plan bytes over the plan stream. found is
// false when the peer answered that it lacks the plan — not an error,
// and no evidence of ill health. Any failure to get an answer is an
// error.
func (c *Cluster) fetchFrom(ctx context.Context, n Node, key string) (data []byte, found bool, err error) {
	err = c.peerCall(ctx, n, func() (status int, err error) {
		data, found, status, err = c.streamFetch(ctx, n, key)
		return status, err
	})
	if len(data) > 0 && c.inj.Fire(faultinject.FetchCorrupt) {
		// Flip one byte mid-payload; the receiver's re-verification must
		// reject the plan (invariant 2).
		data[len(data)/2] ^= 0x40
	}
	return data, found, err
}

// Status is the "cluster" block of /metrics: ownership scheme, the
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
		MaxHops:          maxHops,
		Replication:      c.replicas,
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
		SyncRounds:       c.syncRounds.Load(),
		SyncPulls:        c.syncPulls.Load(),
		SyncErrors:       c.syncErrors.Load(),
		Probes:           c.probes.Load(),
	}
}
