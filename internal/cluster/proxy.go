// Request forwarding: the middleware that makes any node a valid entry
// point. A /synthesize request landing on a non-owner is proxied to the
// key's owner so the cluster-wide cache and in-flight deduplication
// concentrate per key on one node; everything else (and every failure
// mode) is served by the local engine underneath.
//
// Forwarding rules:
//
//   - POST /synthesize (including ?wait=proof) and GET
//     /synthesize/stream/{key} are routed to the key's owner; all other
//     paths go straight to the local handler. POST /synthesize/batch
//     stays local by design: its members span many canonical keys, so
//     there is no single owner — per-key cache locality is recovered by
//     the engine's peer cache fill instead.
//   - The /synthesize body is read (bounded by service.MaxRequestBody)
//     to compute the canonical job key; a body that cannot be decoded
//     or keyed is handed to the local handler, which owns error
//     reporting. The stream endpoint carries its key in the path.
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
//   - A forward that fails in transit, or that the owner sheds
//     (429/502/503/504), falls back to the local engine. Shed statuses
//     that are per-request verdicts (400/404/422 etc.) are relayed
//     as-is — retrying locally would return the same verdict.
//
// Every response carries X-Synthd-Node: the ID of the node whose engine
// actually answered (forwarded responses keep the owner's header).
package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"switchsynth/internal/service"
)

// Forwarding headers.
const (
	// HopHeader counts forwards; a request above maxHops is served
	// locally no matter who owns it.
	HopHeader = "X-Synthd-Hop"
	// NodeHeader names the node whose engine produced the response.
	NodeHeader = "X-Synthd-Node"
)

// shedStatus reports whether a proxied status means the owner refused
// load (fall back to the local engine) rather than judged the request.
func shedStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Middleware wraps a synthd handler with owner routing and the
// /cluster status endpoint.
func (c *Cluster) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster" {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			writeJSON(w, http.StatusOK, c.Status())
			return
		}
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/synthesize/stream/") {
			c.routeStreamKey(w, r, next)
			return
		}
		if r.Method != http.MethodPost || r.URL.Path != "/synthesize" {
			next.ServeHTTP(w, r)
			return
		}
		c.routeSynthesize(w, r, next)
	})
}

// routeSynthesize decides local vs forward for one /synthesize request.
func (c *Cluster) routeSynthesize(w http.ResponseWriter, r *http.Request, next http.Handler) {
	body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxRequestBody+1))
	if err != nil {
		// Couldn't buffer the body; hand the stub downstream so the
		// local handler reports the read error uniformly.
		c.serveLocal(w, r, next, body)
		return
	}
	key, ok := jobKeyOf(body)
	if !ok || len(body) > service.MaxRequestBody {
		// Undecodable or oversized: local handler owns the 400/413.
		c.serveLocal(w, r, next, body)
		return
	}
	c.routeKey(w, r, next, key, body)
}

// routeStreamKey routes GET /synthesize/stream/{key}: the watched
// solve's feed — and its cached plan — live on the key's owner, so a
// watcher landing anywhere else is forwarded there. Local fallback is
// still correct (the local engine answers 404 or serves its own copy).
func (c *Cluster) routeStreamKey(w http.ResponseWriter, r *http.Request, next http.Handler) {
	key := strings.TrimPrefix(r.URL.Path, "/synthesize/stream/")
	if key == "" {
		c.serveLocal(w, r, next, nil)
		return
	}
	c.routeKey(w, r, next, key, nil)
}

// routeKey forwards to the first of key's replicas (walkReplicas) that
// answers. When none answers (or the local node outranks every live
// one) the request is served locally: the replica walk narrows where
// the cluster looks for the plan, never whether the request is served
// (invariant 1).
func (c *Cluster) routeKey(w http.ResponseWriter, r *http.Request, next http.Handler, key string, body []byte) {
	hop, _ := strconv.Atoi(r.Header.Get(HopHeader))
	if hop >= maxHops {
		c.serveLocal(w, r, next, body)
		return
	}
	served := false
	tried := c.walkReplicas(key, func(n Node, failover bool) bool {
		served = c.forward(w, r, n, body, hop)
		if served && failover {
			c.forwardFailovers.Add(1)
		}
		return served
	})
	if served {
		return
	}
	if tried > 0 {
		c.forwardFallbacks.Add(1)
	}
	c.serveLocal(w, r, next, body)
}

// serveLocal replays the buffered body into the wrapped handler.
func (c *Cluster) serveLocal(w http.ResponseWriter, r *http.Request, next http.Handler, body []byte) {
	c.localServes.Add(1)
	w.Header().Set(NodeHeader, c.self.ID)
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	next.ServeHTTP(w, r2)
}

// forward proxies the request (same method, path and query) to owner;
// body is the buffered request body, nil for body-less methods. It
// reports whether a response was written; false means the caller must
// fall back to the local engine (nothing has been written yet in that
// case). The round trip feeds membership like any other (peerCall).
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
	// Streaming forwards stay open for the whole solve; everything else
	// keeps the bounded client so a hung owner falls back quickly.
	hc := c.hc
	if r.Method == http.MethodGet || r.URL.Query().Get("wait") == "proof" {
		hc = c.streamHC
	}
	var resp *http.Response
	if c.peerCall(owner, func() (status int, err error) {
		if resp, err = hc.Do(req); err != nil {
			return 0, err
		}
		return resp.StatusCode, nil
	}) != nil {
		return false
	}
	defer resp.Body.Close()
	if shedStatus(resp.StatusCode) {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false
	}
	c.forwards.Add(1)
	h := w.Header()
	for _, k := range []string{"Content-Type", "Retry-After", NodeHeader} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	if h.Get(NodeHeader) == "" {
		h.Set(NodeHeader, owner.ID)
	}
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

// jobKeyOf extracts the canonical job key from a /synthesize body. The
// decode here is deliberately lenient (no unknown-field rejection) —
// strict validation is the local handler's job; the router only needs
// the key.
func jobKeyOf(body []byte) (string, bool) {
	var req service.SynthesizeRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Spec == nil {
		return "", false
	}
	key, err := service.JobKey(req.Spec)
	if err != nil {
		return "", false
	}
	return key, true
}
