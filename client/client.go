// Package client is the Go client for a synthd daemon
// (cmd/synthd): it submits synthesis requests over HTTP with
// context-aware retries and exponential backoff with full jitter.
//
// Retry policy: network errors and the refusals (service.Transient:
// 429 and 503 from the daemon, 502 from a gateway in front of it) are
// retried up to Config.MaxAttempts times; a Retry-After header from the
// daemon's circuit breaker, admission queue or drain window — either the
// delay-seconds or the HTTP-date form — overrides the computed backoff.
// A refusal spent nothing on the request, so retrying it is safe: the
// daemon derives each spec's canonical key itself, and a retry of the
// same spec lands on its result cache (or coalesces onto an in-flight
// solve) if another request solved it meanwhile. Every other status is
// a verdict and fails at once: 422 no-solution is an infeasibility
// proof, and 504 timeout a solve that spent its whole time limit —
// timeouts are never cached, so a retry would spend the limit again.
//
// Against a sharded deployment (Config.Peers), the client computes each
// spec's owning node with the same rendezvous ring the daemons use and
// sends the request there directly, skipping the server-side forwarding
// hop; retries walk down the preference order, so a dead owner degrades
// to the next-ranked node instead of burning attempts on one host —
// and a transport failure (connection refused, reset) fails over to
// the successor immediately, without the backoff sleep, since backoff
// paces overload, not node death.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchsynth"
	"switchsynth/internal/cluster"
	"switchsynth/internal/service"
)

// Config configures a Client.
type Config struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (default: a plain http.Client;
	// deadlines come from the caller's context).
	HTTPClient *http.Client
	// MaxAttempts bounds the total tries per request, first attempt
	// included (default 4; negative disables retries entirely).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff cap (default 100ms); the
	// cap doubles per attempt up to MaxBackoff (default 2s). The actual
	// sleep is uniform in [0, cap): full jitter, so synchronized clients
	// spread out instead of retrying in lockstep.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic for tests; 0 seeds from the
	// clock.
	Seed int64
	// Peers, when non-empty, is the cluster's static peer list in the
	// daemon's -peers format ("id=url,..."). The client then routes each
	// request to the spec's owning node (owner-first routing) and walks
	// down the preference order on retries. BaseURL becomes optional and
	// is only used for the non-spec endpoints (Metrics, Healthz),
	// defaulting to the first peer.
	Peers string
	// Tenant names this client in the daemon's per-tenant fair queue
	// (sent as X-Synthd-Tenant; empty means the daemon's default tenant).
	Tenant string
	// Priority is the admission class for this client's solves:
	// "interactive", "batch" or "background". Empty defers to the
	// endpoint's default (interactive for Synthesize/Stream, batch for
	// Batch). The daemon rejects unknown classes with a 400.
	Priority string
}

// Client is a synthd HTTP client; safe for concurrent use.
type Client struct {
	base        string
	ring        *cluster.Ring // nil without Config.Peers
	hc          *http.Client
	maxAttempts int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	tenant      string
	priority    string

	mu  sync.Mutex
	rng *rand.Rand
}

// APIError is a non-2xx daemon response, carrying the service error
// taxonomy (kind service.KindInvalid, KindNoSolution, KindTimeout,
// KindOverloaded, ...) and any Retry-After hint.
type APIError struct {
	Status     int
	Kind       string
	Message    string
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("synthd: %s (%d %s)", e.Message, e.Status, e.Kind)
}

// Temporary reports whether the daemon refused the request rather than
// answered it, so retrying it can succeed (service.Transient).
func (e *APIError) Temporary() bool { return service.Transient(e.Status) }

// New creates a client for the daemon at cfg.BaseURL (or the cluster
// listed in cfg.Peers).
func New(cfg Config) (*Client, error) {
	var ring *cluster.Ring
	if cfg.Peers != "" {
		nodes, err := cluster.ParsePeers(cfg.Peers)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		if len(nodes) == 0 {
			return nil, fmt.Errorf("client: Peers is blank")
		}
		ring = cluster.NewRing(nodes)
		if cfg.BaseURL == "" {
			cfg.BaseURL = nodes[0].URL
		}
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: BaseURL is required")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	attempts := cfg.MaxAttempts
	switch {
	case attempts < 0:
		attempts = 1
	case attempts == 0:
		attempts = 4
	}
	base := cfg.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := cfg.MaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{
		base:        strings.TrimRight(cfg.BaseURL, "/"),
		ring:        ring,
		hc:          hc,
		maxAttempts: attempts,
		baseBackoff: base,
		maxBackoff:  max,
		tenant:      cfg.Tenant,
		priority:    cfg.Priority,
		rng:         rand.New(rand.NewSource(seed)),
	}, nil
}

// setIdentity attaches the admission identity headers configured on the
// client; absent values defer to the daemon's per-endpoint defaults.
func (c *Client) setIdentity(req *http.Request) {
	if c.tenant != "" {
		req.Header.Set(service.TenantHeader, c.tenant)
	}
	if c.priority != "" {
		req.Header.Set(service.PriorityHeader, c.priority)
	}
}

// Synthesize submits sp and returns the daemon's response, retrying
// transient failures until ctx is done or MaxAttempts is exhausted.
func (c *Client) Synthesize(ctx context.Context, sp *switchsynth.Spec, opts service.RequestOptions) (*service.SynthesizeResponse, error) {
	var out *service.SynthesizeResponse
	err := c.synthesize(ctx, sp, opts, "/synthesize", false, func(body io.Reader) error {
		out = new(service.SynthesizeResponse) // nothing kept from a failed attempt
		return decodeJSON(body, out, "response")
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// synthesize sends sp to path on its targets (see targets) through call.
// The canonical key validates the spec locally (no round trip for
// garbage) and, as a job key, ranks peers.
func (c *Client) synthesize(ctx context.Context, sp *switchsynth.Spec, opts service.RequestOptions, path string, streamed bool, read func(io.Reader) error) error {
	key, err := switchsynth.CanonicalKey(sp)
	if err != nil {
		return err
	}
	return c.call(ctx, c.targets(key), path, service.SynthesizeRequest{Spec: sp, Options: opts}, streamed, read)
}

// targets returns the bases to try, in attempt order, for the spec
// whose canonical key is key. Without a peer ring there is one: BaseURL.
// With one, the ring's full preference order for the spec's job key
// (built from key, not re-derived) — the first attempt goes straight to
// the owner (same cache-locality win as the server-side proxy, minus
// the extra hop), and each retry moves to the next-ranked node so a
// dead owner costs one attempt, not all of them.
func (c *Client) targets(key string) []string {
	if c.ring == nil {
		return []string{c.base}
	}
	rank := c.ring.Rank(service.JobKeyOf(key))
	targets := make([]string, len(rank))
	for i, n := range rank {
		targets[i] = strings.TrimRight(n.URL, "/")
	}
	return targets
}

// call POSTs payload as JSON to path, attempt i going to
// targets[i%len(targets)], and hands a 200 answer's body to read. It is
// the one retry loop: network errors, temporary statuses and read
// failures are retried until ctx is done or MaxAttempts is exhausted,
// sleeping the backoff between attempts — except after a transport
// failure when there is another target to fail over to. A permanent
// status fails at once. With streamed set, a 200 commits the call: its
// frames may already have been delivered, so a failure after it is not
// retried.
func (c *Client) call(ctx context.Context, targets []string, path string, payload any, streamed bool, read func(io.Reader) error) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 && !(transportFailure(lastErr) && len(targets) > 1) {
			if err := c.sleep(ctx, attempt, lastErr); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, targets[attempt%len(targets)]+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		c.setIdentity(req)
		answered, err := c.do(req, read)
		if err == nil {
			return nil
		}
		lastErr = err
		if (streamed && answered) || ctx.Err() != nil {
			return err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			return err
		}
	}
	return lastErr
}

// do performs one round trip and hands a 200 answer's body to read;
// any other status is an *APIError. answered reports that the daemon
// answered 200.
func (c *Client) do(req *http.Request, read func(io.Reader) error) (answered bool, err error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, readAPIError(resp)
	}
	return true, read(resp.Body)
}

// decodeJSON decodes one JSON value of the named kind from body into v.
func decodeJSON(body io.Reader, v any, what string) error {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("client: decoding %s: %w", what, err)
	}
	return nil
}

// transportFailure reports whether err is a network-level failure — no
// daemon response at all — rather than a daemon verdict (*APIError).
// When the next attempt targets a different node (owner→successor
// failover), a transport failure skips the backoff sleep entirely:
// backoff paces retries against an overloaded daemon, and a dead host
// says nothing about the health of its successor.
func transportFailure(err error) bool {
	var apiErr *APIError
	return err != nil && !errors.As(err, &apiErr)
}

// sleep waits the retry backoff before attempt: the server's Retry-After
// hint when present, otherwise full jitter under an exponentially
// doubling cap. Returns early with ctx.Err() on cancellation.
func (c *Client) sleep(ctx context.Context, attempt int, lastErr error) error {
	var wait time.Duration
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
		wait = apiErr.RetryAfter
	} else {
		cap := c.baseBackoff << (attempt - 1)
		if cap > c.maxBackoff {
			cap = c.maxBackoff
		}
		c.mu.Lock()
		wait = time.Duration(c.rng.Float64() * float64(cap))
		c.mu.Unlock()
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BatchItem is one member's outcome from Batch. Exactly one of Response
// or Err is set: a failed member carries an *APIError with the daemon's
// per-item kind/status taxonomy (service.KindInvalid, KindOverloaded,
// ...), so one shed or malformed member never hides its neighbours'
// plans.
type BatchItem struct {
	// Key is the member's canonical job key (empty when the spec never
	// canonicalized).
	Key string
	// Dedup marks a member answered by adapting another member's plan
	// from the same batch instead of a solve of its own.
	Dedup    bool
	Response *service.SynthesizeResponse
	Err      error
}

// Batch submits the members in one POST /synthesize/batch: the daemon
// canonicalizes and dedups them against each other and its cache tiers,
// solving once per distinct canonical key. It returns the envelope plus
// one BatchItem per input, in input order. opts are the batch-level
// defaults; a member's own Options override them. The whole batch is
// retried on transient envelope-level failures (the request is
// idempotent — every member lands on the daemon's result cache), and
// per-item failures are reported in the items, never as a method error.
//
// Batches are sent to BaseURL even when Peers is set: a batch spans many
// canonical keys, so there is no single owning node to route to.
func (c *Client) Batch(ctx context.Context, items []service.BatchRequestItem, opts service.RequestOptions) (*service.BatchResponse, []BatchItem, error) {
	var envelope *service.BatchResponse
	err := c.call(ctx, []string{c.base}, "/synthesize/batch", service.BatchRequest{Specs: items, Options: opts}, false, func(body io.Reader) error {
		envelope = new(service.BatchResponse) // nothing kept from a failed attempt
		return decodeJSON(body, envelope, "batch response")
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]BatchItem, len(envelope.Items))
	for i, it := range envelope.Items {
		out[i] = BatchItem{Key: it.Key, Dedup: it.Dedup, Response: it.Response}
		if it.Response == nil {
			out[i].Err = &APIError{Status: it.Status, Kind: it.Kind, Message: it.Error}
		}
	}
	return envelope, out, nil
}

// Stream submits sp with ?wait=proof and follows the daemon's ndjson
// stream: onFrame (optional) receives every anytime incumbent — a
// Degraded plan with a Gap — as the solver improves, and Stream returns
// the final proven response, whose plan is byte-identical to what a
// plain Synthesize of the same spec returns. A non-nil error from
// onFrame abandons the stream (the daemon's solve continues; its result
// still lands in the cache).
//
// Refusals before the first frame (429/503) are retried like
// Synthesize, honoring Retry-After. Once frames are flowing there are
// no retries — a broken stream returns an error and the caller may call
// Stream again, which attaches to the in-flight solve instead of
// restarting it.
func (c *Client) Stream(ctx context.Context, sp *switchsynth.Spec, opts service.RequestOptions, onFrame func(*service.SynthesizeResponse) error) (*service.SynthesizeResponse, error) {
	var final *service.SynthesizeResponse
	err := c.synthesize(ctx, sp, opts, "/synthesize?wait=proof", true, func(body io.Reader) error {
		// Each ndjson line is either a SynthesizeResponse frame or, after a
		// mid-stream failure, the daemon's {"error","kind"} envelope.
		type streamLine struct {
			service.SynthesizeResponse
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		dec := json.NewDecoder(body)
		for {
			var line streamLine
			if err := dec.Decode(&line); err != nil {
				if errors.Is(err, io.EOF) {
					return fmt.Errorf("client: stream ended without a final frame")
				}
				return fmt.Errorf("client: reading stream: %w", err)
			}
			if line.Error != "" {
				return &APIError{Status: service.KindStatus(line.Kind), Kind: line.Kind, Message: line.Error}
			}
			if line.Final {
				final = &line.SynthesizeResponse
				return nil
			}
			if onFrame != nil {
				if err := onFrame(&line.SynthesizeResponse); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return final, nil
}

// Metrics fetches the daemon's /metrics snapshot (no retries).
func (c *Client) Metrics(ctx context.Context) (*service.Snapshot, error) {
	var snap service.Snapshot
	if err := c.get(ctx, "/metrics", func(body io.Reader) error {
		return decodeJSON(body, &snap, "metrics")
	}); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Healthz probes the daemon's liveness endpoint (no retries).
func (c *Client) Healthz(ctx context.Context) error {
	return c.get(ctx, "/healthz", func(body io.Reader) error {
		io.Copy(io.Discard, body)
		return nil
	})
}

// get performs one GET of path on BaseURL through do.
func (c *Client) get(ctx context.Context, path string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	_, err = c.do(req, read)
	return err
}

// readAPIError decodes the daemon's JSON error envelope and Retry-After
// header into an *APIError.
func readAPIError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode, Kind: service.KindInternal}
	var envelope struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(data, &envelope); err == nil && envelope.Kind != "" {
		apiErr.Kind = envelope.Kind
		apiErr.Message = envelope.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(data))
	}
	if apiErr.Message == "" {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	// Retry-After comes in two RFC 9110 forms: delay-seconds and
	// HTTP-date. Proxies in front of the daemon may rewrite one into the
	// other, so honor both.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(ra); err == nil {
			if d := time.Until(at); d > 0 {
				apiErr.RetryAfter = d
			}
		}
	}
	return apiErr
}
