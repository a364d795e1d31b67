// Batch intake: many specs, one admission decision per distinct plan.
//
// A synthesis campaign (cmd/experiments, a client's design sweep)
// arrives as a pile of specs, most of which are isomorphic to one
// another under the canonical key. DoBatch canonicalizes the whole pile
// first and performs exactly one solve per distinct canonical key: the
// other members of each group are answered by adapting the shared plan
// onto their own flow indexing — the same adaptation every cache hit
// performs — so a 100-spec batch with 7 distinct keys costs 7 solves.
// Cross-batch dedup is free: each group's representative takes Do's
// path under the key the grouping derived, which consults the memory,
// disk and peer cache tiers and attaches to any in-flight solve of the
// same key.
//
// Failure is per-item: an invalid member (a nil spec included), or a
// representative shed by the breaker or the admission queue, fails only
// its own group, and the outcome slice reports each member's error
// independently. A member answered from its representative's failure
// ends in the representative's /metrics bucket.
package service

import (
	"context"
	"sync"

	"switchsynth"
	"switchsynth/internal/spec"
)

// BatchSpec is one member of a DoBatch call.
type BatchSpec struct {
	Spec *spec.Spec
	Opts switchsynth.Options
}

// BatchOutcome is one member's result, in the batch's original order.
type BatchOutcome struct {
	// Index is the member's position in the DoBatch input.
	Index int
	// Key is the member's canonical job key ("" when the spec was too
	// invalid to canonicalize).
	Key string
	// Dedup reports that this member was answered from another batch
	// member's solve rather than its own admission.
	Dedup bool
	// Resp is the member's synthesis (nil iff Err is non-nil).
	Resp *Response
	// Err is the member's failure, carrying the same typed errors Do
	// returns (*spec.ValidationError, *admission.ErrOverloaded, *admission.ErrShed,
	// *search.ErrTimeout, ...).
	Err error
}

// DoBatch synthesizes every item, solving each distinct canonical key
// exactly once. Groups run concurrently; within a group the first member
// is the representative whose request admits, solves (or hits a cache
// tier) and pays the queue wait, and the rest adapt its plan. The
// returned slice has one outcome per input item, in input order.
func (e *Engine) DoBatch(ctx context.Context, items []BatchSpec) []BatchOutcome {
	e.metrics.batchRequests.Add(1)
	e.metrics.batchSpecs.Add(int64(len(items)))
	out := make([]BatchOutcome, len(items))
	canons := make([]*spec.Spec, len(items)) // what a group's solve runs on
	groups := make(map[string][]int, len(items))
	order := make([]string, 0, len(items))
	for i, it := range items {
		out[i].Index = i
		canon, key, err := e.canonical(it.Spec)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Key, canons[i] = key, canon
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	var wg sync.WaitGroup
	for _, key := range order {
		members := groups[key]
		wg.Add(1)
		go func(key string, members []int) {
			defer wg.Done()
			rep := members[0]
			resp, err := e.doKeyed(ctx, key, canons[rep], items[rep].Spec, items[rep].Opts, nil)
			out[rep].Resp, out[rep].Err = resp, err
			for _, i := range members[1:] {
				e.metrics.jobsSubmitted.Add(1)
				out[i].Dedup = true
				if err != nil {
					out[i].Err = onSpec(err, items[i].Spec)
				} else {
					out[i].Resp, out[i].Err = e.assemble(&Response{
						Key:       out[i].Key,
						CacheHit:  resp.CacheHit,
						DiskHit:   resp.DiskHit,
						PeerHit:   resp.PeerHit,
						Coalesced: true,
						SolveTime: resp.SolveTime,
					}, resp.Synthesis.Result, items[i].Spec, items[i].Opts)
				}
				e.metrics.finish(out[i].Err)
				if out[i].Err == nil {
					e.metrics.batchDeduped.Add(1)
				}
			}
		}(key, members)
	}
	wg.Wait()
	return out
}
