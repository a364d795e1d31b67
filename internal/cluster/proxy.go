// Request forwarding: the routing hook that makes any node a valid
// entry point. A /synthesize request landing on a non-owner is proxied
// to the key's owner so the cluster-wide cache and in-flight
// deduplication concentrate per key on one node; everything else (and
// every failure mode) is served by the local engine.
//
// Routing is a hook of the service handler (service.Router), not a
// layer in front of it: the handler reads, decodes and canonicalizes a
// /synthesize body once, then hands Route the job key and the buffered
// bytes, so each hop parses a request exactly once and a body the
// handler refuses (malformed, oversized, unknown field, invalid spec)
// is refused where it lands, never forwarded.
//
// Forwarding rules:
//
//   - POST /synthesize (including ?wait=proof) and GET
//     /synthesize/stream/{key} are routed to the key's owner; every
//     other path is served locally. POST /synthesize/batch stays local
//     by design: its members span many canonical keys, so there is no
//     single owner — per-key cache locality is recovered by the
//     engine's peer cache fill instead.
//   - A request is forwarded only when the owner is a live peer and the
//     X-Synthd-Hop count is below maxHops. The hop limit makes routing
//     loops (possible transiently when two nodes disagree about
//     liveness) terminate at a node that solves locally.
//   - Failover: a candidate that is down by membership is skipped, and
//     one that fails in transit is retried against the next node in the
//     key's rank order — up to replicas live candidates — before the
//     local fallback. A successor almost certainly holds the owner's
//     replicated plans, so failing over beats re-solving locally.
//   - The query string and the admission identity headers
//     (X-Synthd-Tenant, X-Synthd-Priority) ride along on the forward,
//     and the owner's response is flushed chunk by chunk, so streamed
//     ndjson frames pass through the proxy as they are produced.
//   - A forward that fails in transit, or that the owner refuses
//     (service.Transient: 429/502/503), falls back to the local engine.
//     Statuses that are per-request verdicts (400/404/422/504 etc.) are
//     relayed as-is — retrying locally would return the same verdict.
//     A 504 is a solve that spent its whole time limit on the owner:
//     re-solving it on a successor and then locally would spend the
//     limit up to three more times for the same answer, since a single
//     node would answer 504 too. A forward cut short because the caller
//     went away is neither: it marks no peer down, tries no other
//     replica and solves nothing locally.
//
// Every /synthesize response carries X-Synthd-Node: the ID of the node
// whose engine actually answered (forwarded responses keep the owner's
// header; the handler stamps its own on everything it serves).
package cluster

import (
	"bytes"
	"io"
	"net/http"
	"strconv"

	"switchsynth/internal/service"
)

// Forwarding headers.
const (
	// HopHeader counts forwards; a request above maxHops is served
	// locally no matter who owns it.
	HopHeader = "X-Synthd-Hop"
	// NodeHeader names the node whose engine produced the response.
	NodeHeader = service.NodeHeader
)

// Route is the service handler's routing hook (service.Router): it
// forwards the request for key to the first of key's replicas
// (walkReplicas) that answers and reports true once that answer is
// written. body is the buffered request body, nil for a stream watch.
// It reports false — serve locally — when the hop limit is reached, the
// local node outranks every live replica, or none answers: the replica
// walk narrows where the cluster looks for the plan, never whether the
// request is served (invariant 1). A forward that fails because the
// caller has gone ends the walk and reports true with nothing written:
// no one is left to serve, so nothing is solved locally and no replica
// is tried.
func (c *Cluster) Route(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	hop, _ := strconv.Atoi(r.Header.Get(HopHeader))
	if hop < maxHops {
		served, gone := false, false
		tried := c.walkReplicas(key, func(n Node, failover bool) bool {
			served = c.forward(w, r, n, body, hop)
			if served && failover {
				c.forwardFailovers.Add(1)
			}
			gone = !served && r.Context().Err() != nil
			return served || gone
		})
		if served || gone {
			return true
		}
		if tried > 0 {
			c.forwardFallbacks.Add(1)
		}
	}
	c.localServes.Add(1)
	return false
}

// Report is Status for the service handler's routing hook: the
// "cluster" block of /metrics.
func (c *Cluster) Report() any { return c.Status() }

// forward proxies the request (same method, path and query) to owner;
// body is the buffered request body, nil for body-less methods. It
// reports whether a response was written; false means the caller must
// fall back to the local engine (nothing has been written yet in that
// case). The round trip feeds membership like any other (peerCall),
// under the caller's context: a caller that leaves is no evidence
// against the owner.
// Plain and streamed forwards alike are bounded by the caller's request
// context alone, so an owner's solve is never cut short by the proxy; a
// hung owner holds the request until the caller gives up, while the
// probe loop takes it out of routing for later requests.
func (c *Cluster) forward(w http.ResponseWriter, r *http.Request, owner Node, body []byte, hop int) bool {
	target := owner.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, rd)
	if err != nil {
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(HopHeader, strconv.Itoa(hop+1))
	for _, k := range []string{service.TenantHeader, service.PriorityHeader} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	var resp *http.Response
	if c.peerCall(r.Context(), owner, func() (status int, err error) {
		if resp, err = c.hc.Do(req); err != nil {
			return 0, err
		}
		return resp.StatusCode, nil
	}) != nil {
		return false
	}
	defer resp.Body.Close()
	if service.Transient(resp.StatusCode) {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false
	}
	c.forwards.Add(1)
	h := w.Header()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	node := resp.Header.Get(NodeHeader)
	if node == "" {
		node = owner.ID
	}
	h.Set(NodeHeader, node)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
	return true
}

// flushCopy streams src to w, flushing after every chunk, so ndjson
// frames forwarded from an owner's streaming solve reach the client as
// the owner produces them instead of when a proxy buffer fills.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			return
		}
	}
}
