package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"time"
)

// request is one pre-encoded POST /synthesize.
type request struct {
	body []byte
	// want is the answer to the pool spec this request presents; nil
	// while set-up solves the pool for the first time.
	want *expectation
	// fresh marks a presentation under new module names: it has a new
	// canonical key and must be solved, not served from a cache.
	fresh bool
	// audit marks a spec whose served plan verifyplan can re-verify.
	audit bool
}

// response holds the /synthesize response fields the benchmark checks;
// Kind is set on error responses only.
type response struct {
	CacheHit     bool            `json:"cacheHit"`
	Coalesced    bool            `json:"coalesced"`
	Key          string          `json:"key"`
	NumSets      int             `json:"numSets"`
	Objective    float64         `json:"objective"`
	Proven       bool            `json:"proven"`
	Degraded     bool            `json:"degraded"`
	SolveSeconds float64         `json:"solveSeconds"`
	Plan         json.RawMessage `json:"plan"`
	Kind         string          `json:"kind"`
}

// record is the outcome of one request.
type record struct {
	rtt   time.Duration // send to last response byte
	bytes int
	// infeasible is set when synthd answered with a no-solution proof.
	infeasible bool
	resp       response
	err        string // "" when the response passed every check
}

// expectation is what every presentation of a pool spec must be answered
// with: a plan with this flow-set count and objective, or, for a spec the
// campaign makes infeasible, a no-solution proof. key is the canonical
// key of the pool spec's own module names.
type expectation struct {
	key        string
	numSets    int
	objective  float64
	infeasible bool
}

// requestBody wraps a spec into the /synthesize payload. Pressure sharing
// is on so that every request, hit or miss, runs the full control-layer
// analysis.
func requestBody(sp *Spec) []byte {
	body, err := json.Marshal(map[string]any{
		"spec":    sp,
		"options": map[string]bool{"pressureSharing": true},
	})
	if err != nil {
		panic(err) // Spec holds only strings, numbers and slices and maps of them
	}
	return body
}

// round builds the fixed work of round r: every pool spec once, in an
// order and presentation that depend only on the seed and r. A fresh
// workload presents each spec under new module names, the other as a
// variant under its pool names.
func (b *bench) round(r int) []request {
	rng := rand.New(rand.NewSource(b.seed*1_000_003 + int64(r)))
	reqs := make([]request, len(b.pool))
	for i, k := range rng.Perm(len(b.pool)) {
		name, sp := fmt.Sprintf("r%d.%d", r, i), b.pool[k]
		if b.fresh {
			sp = renamed(sp, name+"-", name)
		}
		v := variant(rng, sp, name)
		reqs[i] = request{body: requestBody(v), want: &b.expect[k], fresh: b.fresh, audit: fluidConflicts(v)}
	}
	return reqs
}

// probe times the hit and the miss path on both workloads, including the
// one whose traffic has only one of them: for every pool spec it sends a
// presentation under new module names, then a variant of that
// presentation, which is a cache hit (or a negative-cache hit) since it
// follows its solve directly.
func (b *bench) probe(ctx context.Context) []record {
	rng := rand.New(rand.NewSource(b.seed*1_000_003 - 2))
	var reqs []request
	var recs []record
	for k := range b.pool {
		name := fmt.Sprintf("t%d", k)
		fresh := renamed(b.pool[k], name+"-", name)
		want := b.expect[k]
		rq := request{body: requestBody(fresh), want: &want, fresh: true, audit: fluidConflicts(fresh)}
		rec := b.send(ctx, rq)
		reqs, recs = append(reqs, rq), append(recs, rec)
		if rec.err != "" {
			continue
		}
		again := want
		again.key = rec.resp.Key
		v := variant(rng, fresh, name+"v")
		rq = request{body: requestBody(v), want: &again, audit: fluidConflicts(v)}
		reqs, recs = append(reqs, rq), append(recs, b.send(ctx, rq))
	}
	b.checkRound(reqs, recs)
	return recs
}

// run sends reqs one at a time, each as soon as the previous one is
// answered, and returns one record per request.
func (b *bench) run(ctx context.Context, reqs []request) []record {
	recs := make([]record, len(reqs))
	for i, rq := range reqs {
		recs[i] = b.send(ctx, rq)
	}
	return recs
}

// send performs one request and checks its response on its own; checks
// that span requests (fresh keys are new) run in checkRound.
func (b *bench) send(ctx context.Context, rq request) (rec record) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.node.url+"/synthesize", bytes.NewReader(rq.body))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.hc.Do(req)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.rtt = time.Since(start)
	rec.bytes = len(body)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		rec.err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
		return rec
	}
	if err := json.Unmarshal(body, &rec.resp); err != nil {
		rec.err = "decoding response: " + err.Error()
		return rec
	}
	if resp.StatusCode == http.StatusUnprocessableEntity {
		if rec.resp.Kind != "no-solution" {
			rec.err = fmt.Sprintf("status 422: %.200s", body)
			return rec
		}
		rec.infeasible = true
	}
	rec.err = check(rq, &rec)
	return rec
}

// check validates one response. Every plan is proven optimal, and a
// fresh presentation is solved, not served from a cache or coalesced onto
// another request. Against a pool spec's answer (want not nil), the plan
// has the expected flow-set count and objective, an infeasible spec gets
// its no-solution proof, and any other presentation than a fresh one is a
// cache hit under the pool spec's key.
func check(rq request, rec *record) string {
	r, want := &rec.resp, rq.want
	switch {
	case want != nil && rec.infeasible != want.infeasible:
		return fmt.Sprintf("no-solution answer %v, want %v", rec.infeasible, want.infeasible)
	case rec.infeasible:
		return ""
	case !r.Proven || r.Degraded:
		return "plan not proven optimal"
	case len(r.Plan) == 0 || r.Key == "":
		return "response without plan or key"
	case rq.fresh && (r.CacheHit || r.Coalesced):
		return "fresh presentation answered from a cache"
	case want == nil:
		return ""
	case !rq.fresh && !r.CacheHit:
		return "presentation of a solved spec missed the cache"
	case !rq.fresh && r.Key != want.key:
		return fmt.Sprintf("key %s, want %s", r.Key, want.key)
	case r.NumSets != want.numSets || math.Abs(r.Objective-want.objective) > 1e-9*math.Max(1, math.Abs(want.objective)):
		return fmt.Sprintf("plan (sets %d, objective %v), want (sets %d, objective %v)",
			r.NumSets, r.Objective, want.numSets, want.objective)
	}
	return ""
}

// checkRound runs the checks that span requests: no two fresh
// presentations may share a key. It also keeps a few auditable plans for
// the verifier audit.
func (b *bench) checkRound(reqs []request, recs []record) {
	for i := range recs {
		rec := &recs[i]
		if rec.err != "" || !reqs[i].fresh || rec.infeasible {
			continue
		}
		if b.seen[rec.resp.Key] {
			rec.err = "fresh key served twice: " + rec.resp.Key
		}
		b.seen[rec.resp.Key] = true
	}
	for i := 0; i < len(recs) && len(b.audit) < auditPlans; i += len(recs)/4 + 1 {
		if recs[i].err == "" && !recs[i].infeasible && reqs[i].audit {
			b.audit = append(b.audit, recs[i].resp.Plan)
		}
	}
}
