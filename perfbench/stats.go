package main

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// roundStats summarises one round of fixed work.
type roundStats struct {
	p50, p90 float64 // latency, ms
	rps      float64 // requests answered per second of round wall time
}

func newRoundStats(recs []record, wall time.Duration) roundStats {
	lat := make([]float64, 0, len(recs))
	for _, r := range recs {
		lat = append(lat, ms(r.rtt))
	}
	return roundStats{
		p50: quantile(lat, 0.50),
		p90: quantile(lat, 0.90),
		rps: float64(len(recs)) / wall.Seconds(),
	}
}

// quantile returns the nearest-rank q-quantile of v (0 for an empty v).
// v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(q*float64(len(v))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// traceStats gathers the client-side spans of a traced run: response
// size over the measured rounds, and round trips split by serving path
// over the layer probe.
type traceStats struct {
	bytes    int
	n        int
	hitRTT   []float64 // probe cache hits, µs
	missRTT  []float64 // probe solves, ms
	solve    []float64 // server-reported solve time of probe solves, ms
	overhead []float64 // round trip minus solve time of probe solves, ms
}

// add records the spans of a measured round.
func (t *traceStats) add(recs []record) {
	for _, r := range recs {
		if r.err == "" {
			t.n++
			t.bytes += r.bytes
		}
	}
}

// addProbe records the layer probe's round trips by serving path. A
// no-solution answer reports no solve time, so it is left out.
func (t *traceStats) addProbe(recs []record) {
	for _, r := range recs {
		switch {
		case r.err != "" || r.infeasible:
		case r.resp.CacheHit:
			t.hitRTT = append(t.hitRTT, float64(r.rtt)/float64(time.Microsecond))
		default:
			solve := r.resp.SolveSeconds * 1e3
			t.missRTT = append(t.missRTT, ms(r.rtt))
			t.solve = append(t.solve, solve)
			t.overhead = append(t.overhead, ms(r.rtt)-solve)
		}
	}
}

// report fills the per-layer metrics: request spans from the client,
// counters from the daemons over the measured rounds.
func (t *traceStats) report(m map[string]metric, rounds []roundStats, used counters) {
	m["traced_latency_p50_ms"] = metric{median(rounds, func(s roundStats) float64 { return s.p50 }), "ms"}
	m["hit_rtt_us"] = metric{quantile(t.hitRTT, 0.5), "us"}
	m["miss_rtt_ms"] = metric{quantile(t.missRTT, 0.5), "ms"}
	m["solve_ms"] = metric{quantile(t.solve, 0.5), "ms"}
	m["miss_overhead_ms"] = metric{quantile(t.overhead, 0.5), "ms"}
	m["response_bytes"] = metric{float64(t.bytes) / nonZero(float64(t.n)), "bytes"}

	m["server_cpu_ms_per_req"] = metric{used["cpuSeconds"] * 1e3 / nonZero(float64(t.n)), "ms"}
	m["cache_hits"] = metric{used["cacheHits"], "count"}
	m["cache_misses"] = metric{used["cacheMisses"], "count"}
	m["neg_cache_hits"] = metric{used["negCacheHits"], "count"}
	m["hit_ratio"] = metric{(used["cacheHits"] + used["negCacheHits"]) / nonZero(used["cacheHits"]+used["negCacheHits"]+used["cacheMisses"]), "ratio"}
	m["solves"] = metric{used["solveCount"], "count"}
	m["solver_nodes_per_solve"] = metric{used["solver_nodes_total"] / nonZero(used["solveCount"]), "count"}
}

// counters is a snapshot of the daemon counters the per-layer report
// reads. A counter the daemon does not publish reads as zero.
type counters map[string]float64

// counters snapshots the daemon's CPU time and /metrics.
func (b *bench) counters(ctx context.Context) counters {
	c := counters{"cpuSeconds": cpuSeconds(b.node.cmd.Process.Pid)}
	obj := map[string]any{}
	if code, body := get(ctx, b.hc, b.node.url+"/metrics"); code == http.StatusOK {
		_ = json.Unmarshal(body, &obj) // an odd body reads as no counters
	}
	for _, k := range []string{"cacheHits", "cacheMisses", "negCacheHits", "solveCount", "solver_nodes_total"} {
		if v, ok := obj[k].(float64); ok {
			c[k] = v
		}
	}
	return c
}
