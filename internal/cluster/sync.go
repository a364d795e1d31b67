// Anti-entropy plan sync: a background loop that repairs the gaps
// forwarding and replication leave behind. Keys in this node's replica
// sets can be solved elsewhere — by a fallback solve while this node
// was down, by a client talking straight to a non-replica, by a
// replication push that was dropped or black-holed, or by ownership
// moving here after a peer died. The loop periodically pulls each
// peer's key manifest (GET /plans) and fetches every plan this node
// replicates but lacks, which is also how a killed-and-restarted node
// re-converges its replica sets after rejoining.
//
// The replication invariant holds here exactly as on the fill path:
// every pulled plan goes through LocalImport (Engine.ImportPlan), which
// decodes, re-derives the canonical key and fully re-verifies the plan
// before it touches a local tier. Sync converges the cluster toward
// "every replica-set member holds every plan for its keys" without
// ever trusting peer bytes.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// syncLoop runs syncOnce on a fixed period until Stop.
func (c *Cluster) syncLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.syncOnce(context.Background())
		}
	}
}

// syncOnce performs one anti-entropy round against every live peer and
// returns the number of plans imported. Exported to tests via
// export_test.go; production only reaches it through the loop.
func (c *Cluster) syncOnce(ctx context.Context) int {
	c.syncRounds.Add(1)
	local := make(map[string]bool)
	for _, k := range c.cfg.LocalKeys() {
		local[k] = true
	}
	pulled := 0
	for _, n := range c.ring.Members() {
		if n.ID == c.self.ID || !c.mem.alive(n.ID) {
			continue
		}
		keys, err := c.manifest(ctx, n)
		if err != nil {
			c.syncErrors.Add(1)
			continue
		}
		for _, key := range keys {
			if local[key] {
				continue
			}
			if !c.replicated(key) {
				continue // outside our replica sets; their members pull it
			}
			data, found, err := c.fetchFrom(ctx, n, key)
			if err != nil {
				c.syncErrors.Add(1)
				continue
			}
			if !found {
				continue // evicted between manifest and fetch
			}
			if err := c.cfg.LocalImport(key, data); err != nil {
				// Verification rejected the bytes (or a local tier
				// failed); the plan does not replicate.
				c.syncErrors.Add(1)
				continue
			}
			local[key] = true
			pulled++
			c.syncPulls.Add(1)
		}
	}
	return pulled
}

// manifest fetches n's plan-key list (GET /plans).
func (c *Cluster) manifest(ctx context.Context, n Node) (keys []string, err error) {
	err = c.peerCall(ctx, n, func() (int, error) {
		ctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/plans", nil)
		if err != nil {
			return 0, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return resp.StatusCode, fmt.Errorf("plans: status %d", resp.StatusCode)
		}
		var out struct {
			Keys []string `json:"keys"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxPlanBytes)).Decode(&out); err != nil {
			return 0, err
		}
		keys = out.Keys
		return resp.StatusCode, nil
	})
	return keys, err
}
