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
// Failure is per-item: an invalid member, or a representative shed by
// the breaker or the admission queue, fails only its own group, and the
// outcome slice reports each member's error independently.
package service

import (
	"context"
	"errors"
	"sync"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/spec"
)

// errNilBatchSpec fails a batch member that carries no spec at all. HTTP
// rejects these before the engine, so this guards direct library misuse.
var errNilBatchSpec = errors.New("service: batch item has no spec")

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
	// returns (*spec.ValidationError, *ErrOverloaded, *admission.ErrShed,
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
		if it.Spec == nil {
			e.metrics.jobsSubmitted.Add(1)
			e.metrics.jobsFailed.Add(1)
			e.metrics.jobsInvalid.Add(1)
			out[i].Err = errNilBatchSpec
			continue
		}
		canon, key, err := canonicalJob(it.Spec)
		if err != nil {
			e.metrics.jobsSubmitted.Add(1)
			e.classifyFailure(err)
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
			e.metrics.jobsSubmitted.Add(1)
			resp, err := e.doKeyed(ctx, key, canons[rep], items[rep].Spec, items[rep].Opts, nil)
			out[rep].Resp, out[rep].Err = resp, err
			for _, i := range members[1:] {
				e.metrics.jobsSubmitted.Add(1)
				out[i].Dedup = true
				if err != nil {
					e.classifyDedupFailure(err)
					out[i].Err = onSpec(err, items[i].Spec)
					continue
				}
				mresp, merr := e.assemble(&Response{
					Key:       out[i].Key,
					CacheHit:  resp.CacheHit,
					DiskHit:   resp.DiskHit,
					PeerHit:   resp.PeerHit,
					Coalesced: true,
					SolveTime: resp.SolveTime,
				}, resp.Synthesis.Result, items[i].Spec, items[i].Opts)
				if merr != nil {
					e.metrics.jobsFailed.Add(1)
					out[i].Err = merr
					continue
				}
				e.metrics.jobsCompleted.Add(1)
				e.metrics.batchDeduped.Add(1)
				out[i].Resp = mresp
			}
		}(key, members)
	}
	wg.Wait()
	return out
}

// classifyDedupFailure counts a dedup member inheriting its
// representative's failure, mirroring the buckets Do used for the
// representative itself (shed and drain rejections are not generic job
// failures).
func (e *Engine) classifyDedupFailure(err error) {
	switch {
	case errors.Is(err, &ErrOverloaded{}):
		e.metrics.jobsShed.Add(1)
	case errors.Is(err, &admission.ErrShed{}):
		e.metrics.jobsShedQueue.Add(1)
	case errors.Is(err, &admission.ErrDraining{}):
		e.metrics.jobsDrainRejected.Add(1)
	default:
		e.classifyFailure(err)
	}
}
