// Write-time plan replication and read-repair: the push half of the
// replica-set design (the pull half is anti-entropy, sync.go).
//
// A key's replica set is the first Replication nodes of its rendezvous
// ranking. When the local engine proves and stores a plan, it calls
// ReplicatePlan (wired as service.Config.OnPlanStored), which enqueues
// one push per live replica-set member. Pushes are asynchronous — the
// solve's latency never waits on a peer — and the queue is bounded:
// under sustained overload pushes are dropped and counted, and the
// anti-entropy loop repairs the gap later. Read-repair rides the same
// queue: FetchPlan pushes a served plan back to earlier-ranked replicas
// that answered 404 for it.
//
// The receiving side is PUT /plans/{key} (service layer), which funnels
// into Engine.ImportPlan and through the engine's one admission door:
// decode, Proven check, canonical-key re-derivation and full
// contamination verification before any tier is touched. A corrupted or malicious push costs the sender a rejected
// request, never the receiver a wrong plan (invariant 2).
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"switchsynth/internal/faultinject"
	"switchsynth/internal/planio"
)

const (
	// replQueueDepth bounds the outstanding push backlog; a full queue
	// drops (and counts) rather than blocking the solve path.
	replQueueDepth = 256
	// replWorkers is the number of concurrent push goroutines.
	replWorkers = 2
)

// replTask is one queued push: deliver data (a wire-encoded proven
// plan) for key to node to. repair marks a read-repair push, which is
// counted separately from write-time replication.
type replTask struct {
	key    string
	data   []byte
	to     Node
	repair bool
}

// ReplicatePlan is the engine's write-time replication hook
// (service.Config.OnPlanStored): called after a proven plan is stored
// locally, it enqueues an asynchronous push to every live member of the
// key's replica set except self. The local node need not be in the
// replica set — a fallback solve on a non-replica still pushes toward
// the nodes where readers will look. Members that are down by
// membership are skipped silently; anti-entropy converges them after
// they rejoin.
func (c *Cluster) ReplicatePlan(key string, data []byte) {
	if c.cfg.Replication <= 1 {
		return
	}
	rank := c.ring.Rank(key)
	r := c.cfg.Replication
	if r > len(rank) {
		r = len(rank)
	}
	for _, n := range rank[:r] {
		if n.ID == c.self.ID || !c.mem.alive(n.ID) {
			continue
		}
		c.enqueue(replTask{key: key, data: data, to: n})
	}
}

// enqueue adds a push task unless the queue is full (then it is
// dropped and counted; anti-entropy is the backstop).
func (c *Cluster) enqueue(t replTask) {
	c.replPending.Add(1)
	select {
	case c.replq <- t:
	default:
		c.replPending.Add(-1)
		c.replDropped.Add(1)
	}
}

// replLoop drains the push queue until Stop.
func (c *Cluster) replLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case t := <-c.replq:
			if err := c.pushPlan(t.to, t.key, t.data); err != nil {
				c.replErrors.Add(1)
			} else if t.repair {
				c.repairPushes.Add(1)
			} else {
				c.replPushes.Add(1)
			}
			c.replPending.Add(-1)
		}
	}
}

// pushPlan PUTs the plan bytes to n, which re-verifies them before
// storing (a 422 rejection is the receiver's verify-on-receipt working
// as designed). Uses its own context: pushes are background work not
// tied to any request. Transport failures feed the membership state
// machine like any other peer round trip.
func (c *Cluster) pushPlan(n Node, key string, data []byte) error {
	if c.inj.LinkDown(c.self.ID, n.ID) {
		return fmt.Errorf("injected: link %s->%s cut", c.self.ID, n.ID)
	}
	if c.inj.Fire(faultinject.PeerDown) {
		c.mem.observe(n.ID, false, "injected: peer down")
		return fmt.Errorf("injected: peer down")
	}
	c.inj.Fire(faultinject.PeerSlow)
	if len(data) > 0 && c.inj.Fire(faultinject.ReplCorrupt) {
		// Flip one byte mid-payload on a copy (the caller's slice is
		// shared with local tiers); the receiver must reject it.
		cp := make([]byte, len(data))
		copy(cp, data)
		cp[len(cp)/2] ^= 0x40
		data = cp
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		n.URL+"/plans/"+url.PathEscape(key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", planio.ContentTypeOf(data))
	resp, err := c.hc.Do(req)
	if err != nil {
		c.mem.observe(n.ID, false, err.Error())
		return fmt.Errorf("cluster: push plan %s to peer %s: %w", key, n.ID, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: push plan %s to peer %s: status %d", key, n.ID, resp.StatusCode)
	}
	c.mem.observe(n.ID, true, "")
	return nil
}
