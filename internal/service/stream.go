// Streaming refinement: a flight's anytime incumbents, delivered while
// callers wait on it.
//
// The optimizer's branch-and-bound is an anytime algorithm — it installs
// a feasible plan early and keeps tightening it until the optimality
// proof lands. Every running solve publishes each improving incumbent on
// its flight (runJob), the one in-flight record per canonical key, and
// the engine's one wait (Engine.wait) hands them to streaming callers:
// DoStream, WatchKey, and the ?wait=proof / GET /synthesize/stream/{key}
// HTTP endpoints on top of them receive the degraded snapshots as they
// land, ahead of the final proven plan. A flight keeps only strict
// improvements, so every watcher observes a monotonically decreasing
// objective.
//
// Streaming adds no lifecycle of its own: incumbents live and die with
// the flight, so a request served from a cache tier holds no flight and
// sees no frames, and a watcher of a flight that fails — a solve error,
// or a leader shed or drained before its job was queued — receives that
// flight's error.
package service

import (
	"context"
	"errors"

	"switchsynth"
	"switchsynth/internal/spec"
)

// ErrUnknownKey is returned by WatchKey when the key has no cached plan
// and no in-flight solve to attach to. Degraded (unproven) results are
// never cached, so a watcher arriving after such a solve finished sees
// this too. HTTP maps it to 404.
var ErrUnknownKey = errors.New("service: no cached plan or in-flight solve for this key")

// DoStream is Do with streaming refinement: it submits sp like Do, but
// while the solve runs it delivers every improving anytime incumbent to
// emit as a degraded plan (Proven false, Gap > 0), adapted onto sp's own
// flow indexing like any cached result. emit's final parameter is always
// false — the proven plan is DoStream's return value, byte-identical to
// what a plain Do of the same spec returns. A request served from a
// cache tier or coalesced onto a nearly finished solve may see no
// intermediate frames at all. If emit returns an error (the client went
// away), delivery stops; the solve itself continues for other waiters
// and the cache.
func (e *Engine) DoStream(ctx context.Context, sp *spec.Spec, opts switchsynth.Options, emit func(resp *Response, final bool) error) (*Response, error) {
	e.metrics.streamWatches.Add(1)
	return e.do(ctx, sp, opts, emit)
}

// WatchKey attaches to key's solve without submitting a spec: frames and
// the final plan are presented on the solve's canonical spec (the
// watcher supplied none of its own), which carries no name. A key whose plan is already cached
// (memory or disk tier) returns it immediately with no frames. A watched
// flight that fails returns its error. A key with no cached plan and no
// in-flight solve — including one whose solve just finished degraded,
// since degraded plans are never cached — fails with ErrUnknownKey.
func (e *Engine) WatchKey(ctx context.Context, key string, emit func(resp *Response, final bool) error) (*Response, error) {
	e.metrics.streamWatches.Add(1)
	for {
		if resp, ok := e.fromTiers(key, nil, switchsynth.Options{}); ok {
			return resp, nil
		}
		f, ok := e.flights.lookup(key)
		if !ok {
			// A solve that completed between the tier lookup above and
			// this one has already cached its plan (runJob caches before
			// the flight leaves the group), so a miss here is not yet a
			// 404: re-check the tiers once before declaring the key
			// unknown.
			if resp, ok := e.fromTiers(key, nil, switchsynth.Options{}); ok {
				return resp, nil
			}
			return nil, ErrUnknownKey
		}
		retry, err := e.wait(ctx, f, true, key, nil, switchsynth.Options{}, emit)
		if retry {
			continue
		}
		if err != nil {
			return nil, err
		}
		return e.assemble(&Response{Key: key, Coalesced: true, SolveTime: f.res.Runtime}, f.res, nil, switchsynth.Options{})
	}
}
