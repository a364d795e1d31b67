// Command perfbench measures synthd end to end: it takes its specs from
// casegen, starts real synthd processes built from the checkout one after
// another, drives each over HTTP with one closed-loop client, checks every
// response, audits a sample of the served plans with verifyplan, and
// prints one JSON result line.
//
// Usage (run.sh builds the binaries and supplies -bin and -work):
//
//	perfbench -workload hit-heavy|first-seen -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics, with -trace 1
// the per-layer breakdown. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workloads maps each workload name to whether its presentations are
// fresh (new module names, so every request is solved) or variants of the
// primed pool (so every request is a cache hit).
var workloads = map[string]bool{
	"hit-heavy":  false,
	"first-seen": true,
}

const (
	// daemons is how many daemons a run sets up and measures in turn;
	// the median set-up time is reported.
	daemons = 5
	// auditPlans bounds the served plans re-verified by verifyplan.
	auditPlans = 64
)

// bench is the state of one run.
type bench struct {
	seed   int64
	fresh  bool
	hc     *http.Client
	node   *node
	pool   []*Spec
	expect []expectation   // answers to the pool, by pool index
	seen   map[string]bool // keys of every fresh presentation served
	audit  []json.RawMessage
}

func main() {
	var (
		name    = flag.String("workload", "", "hit-heavy or first-seen")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured duration")
		trace   = flag.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
		bin     = flag.String("bin", "", "directory holding the synthd, verifyplan and casegen binaries")
		work    = flag.String("work", "", "scratch directory for the cases, the daemon log and the plan audit")
	)
	flag.Parse()
	fresh, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (hit-heavy or first-seen), -seconds > 0, -bin and -work")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	cases, err := loadCampaigns(*bin, dir)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tr := &http.Transport{DisableCompression: true}
	b := &bench{
		seed:  *seed,
		fresh: fresh,
		hc:    &http.Client{Transport: tr},
		pool:  newPool(*seed, cases),
		seen:  make(map[string]bool),
	}
	res, err := b.measure(ctx, *bin, dir, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	tr.CloseIdleConnections()
	if err != nil {
		fatal(fmt.Errorf("%v (logs in %s)", err, dir))
	}
	if res.Correct {
		os.RemoveAll(dir)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %s (logs in %s)\n", res.reason, dir)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	reason    string            // first failure, for stderr
}

// fail records a failed check; the first reason is kept.
func (r *result) fail(format string, args ...any) {
	if r.Correct {
		r.reason = fmt.Sprintf(format, args...)
	}
	r.Correct = false
}

// tally counts recs as attempted and records their failures.
func (r *result) tally(phase string, recs []record) {
	for i := range recs {
		r.Attempted++
		if recs[i].err != "" {
			r.Failed++
			r.fail("%s request %d: %s", phase, i, recs[i].err)
		}
	}
}

// measure splits the run over daemons daemon processes. Each one is set
// up (started and primed, which also warms it) and then runs rounds of
// fixed work for its share of d; the rounds of all of them are pooled. A
// daemon's speed varies with its process (memory layout, hash seeds), so
// pooling several evens that out within one run. A traced run then sends
// the layer probe to the last daemon. The plan audit comes last.
func (b *bench) measure(ctx context.Context, bin, dir string, d time.Duration, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups []float64
	var rounds []roundStats
	var tr traceStats
	used := counters{} // daemon counters over the measured rounds
	r := 0             // round number, unique over the run
	for rep := 0; rep < daemons; rep++ {
		if b.node != nil {
			b.node.stop()
		}
		t := time.Now()
		nd, err := startNode(ctx, b.hc, bin, dir)
		if err != nil {
			return nil, err
		}
		b.node = nd
		if err := b.prime(ctx, rep == 0); err != nil {
			res.fail("set-up: %v", err)
		}
		setups = append(setups, time.Since(t).Seconds())

		var start counters
		if traced {
			start = b.counters(ctx)
		}
		// A round starts only if it is expected to end within the
		// daemon's share, judged by the previous round's duration; the
		// first round always runs.
		begin, wall := time.Now(), time.Duration(0)
		for first := true; first || time.Since(begin)+wall <= d/daemons; first = false {
			if ctx.Err() != nil {
				b.node.stop()
				return nil, ctx.Err()
			}
			reqs := b.round(r)
			t := time.Now()
			recs := b.run(ctx, reqs)
			wall = time.Since(t)
			b.checkRound(reqs, recs)
			rounds = append(rounds, newRoundStats(recs, wall))
			res.tally(fmt.Sprintf("round %d", r), recs)
			if traced {
				tr.add(recs)
			}
			r++
		}
		if traced {
			for k, v := range b.counters(ctx) {
				used[k] += v - start[k]
			}
		}
	}
	defer b.node.stop()

	if traced {
		recs := b.probe(ctx)
		res.tally("layer probe", recs)
		tr.addProbe(recs)
	}
	if err := b.auditPlans(ctx, bin, dir); err != nil {
		res.fail("plan audit: %v", err)
	}
	if traced {
		tr.report(res.Metrics, rounds, used)
	} else {
		res.Metrics["latency_p50_ms"] = metric{median(rounds, func(s roundStats) float64 { return s.p50 }), "ms"}
		res.Metrics["latency_p90_ms"] = metric{median(rounds, func(s roundStats) float64 { return s.p90 }), "ms"}
		res.Metrics["throughput_rps"] = metric{median(rounds, func(s roundStats) float64 { return s.rps }), "1/s"}
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	}
	return res, nil
}

// prime solves every pool spec once and records the answers later
// presentations must match. The first set-up records them; repeated
// set-ups must reproduce them exactly, since a fresh daemon has to solve
// to the same plans and no-solution proofs.
func (b *bench) prime(ctx context.Context, first bool) error {
	if first {
		b.expect = make([]expectation, len(b.pool))
	}
	for i, sp := range b.pool {
		rec := b.send(ctx, request{body: requestBody(sp), fresh: true})
		got := expectation{rec.resp.Key, rec.resp.NumSets, rec.resp.Objective, rec.infeasible}
		switch {
		case rec.err != "":
			return fmt.Errorf("priming %s: %s", sp.Name, rec.err)
		case first:
			b.expect[i] = got
		case got != b.expect[i]:
			return fmt.Errorf("priming %s after restart: %+v, first set-up gave %+v", sp.Name, got, b.expect[i])
		}
	}
	return nil
}

// auditPlans re-verifies the sampled served plans with verifyplan, which
// checks routing, contamination, valves and the fluidic simulation.
func (b *bench) auditPlans(ctx context.Context, bin, dir string) error {
	adir := filepath.Join(dir, "audit")
	if err := os.MkdirAll(adir, 0o755); err != nil {
		return err
	}
	for i, plan := range b.audit {
		if err := os.WriteFile(filepath.Join(adir, fmt.Sprintf("plan-%03d.json", i)), plan, 0o644); err != nil {
			return err
		}
	}
	if len(b.audit) == 0 {
		return fmt.Errorf("no plan to audit")
	}
	out, err := exec.CommandContext(ctx, filepath.Join(bin, "verifyplan"), "-q", adir).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	return nil
}

// median returns the median over rounds of the field f picks.
func median(rounds []roundStats, f func(roundStats) float64) float64 {
	v := make([]float64, len(rounds))
	for i, s := range rounds {
		v[i] = f(s)
	}
	return quantile(v, 0.5)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nonZero guards a ratio's denominator.
func nonZero(x float64) float64 { return math.Max(x, 1e-12) }
