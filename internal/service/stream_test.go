package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/search"
	"switchsynth/internal/spec"
)

// stream16 is the saturated 16-pin ring of the search tier's hard set
// without its flow m0→m14 (the ring16-drop9 row): under clockwise
// binding the solver installs a degraded incumbent within a millisecond
// and about twenty better ones before the proof lands after roughly two
// seconds of search. The tests whose subject is the real solver's
// anytime behaviour use it; the streaming-contract tests use gatedSolve,
// which does not depend on how fast today's solver proves anything.
func stream16(name string) *spec.Spec {
	return &spec.Spec{
		Name:       name,
		SwitchPins: 16,
		Modules: []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7",
			"m8", "m9", "m10", "m11", "m12", "m13", "m15"},
		Flows: []spec.Flow{
			{From: "m3", To: "m1"}, {From: "m6", To: "m2"}, {From: "m9", To: "m4"},
			{From: "m12", To: "m5"}, {From: "m0", To: "m7"}, {From: "m3", To: "m8"},
			{From: "m6", To: "m10"}, {From: "m9", To: "m11"}, {From: "m12", To: "m13"},
			{From: "m3", To: "m15"},
		},
		Binding: spec.Clockwise,
	}
}

// gatedSolve replaces e's solve with one whose incumbents come before
// its proof however fast the solver is: it solves the spec for real,
// hands two degraded copies of the plan (a worse objective, Gap > 0) to
// the incumbent hook, and returns the proven plan only once the returned
// open has been called — or after 10 s, so that a test whose frames
// never arrive fails on its assertions instead of hanging.
func gatedSolve(t *testing.T, e *Engine) (open func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	e.solve = func(ctx context.Context, sp *spec.Spec, opts switchsynth.Options) (*spec.Result, error) {
		res, err := switchsynth.SolvePlan(ctx, sp, switchsynth.Options{})
		if err != nil {
			return nil, err
		}
		for _, worse := range []float64{1.5, 1.25} {
			c := *res
			c.Objective = res.Objective * worse
			c.Proven, c.Degraded = false, true
			c.LowerBound, c.Gap = res.Objective, (c.Objective-res.Objective)/c.Objective
			opts.OnIncumbent(&c)
		}
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
		}
		return res, nil
	}
	return open
}

// TestDoStreamDeliversDegradedIncumbentBeforeProof is the streaming
// acceptance check: a solve must hand the watcher at least one degraded
// plan (Gap > 0) before the proven one arrives as the call's return
// value. The proof waits for the first frame.
func TestDoStreamDeliversDegradedIncumbentBeforeProof(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	open := gatedSolve(t, e)
	var frames []*Response
	res, err := e.DoStream(context.Background(), serviceSpec("stream"), switchsynth.Options{},
		func(r *Response, final bool) error {
			if final {
				t.Error("DoStream emitted final=true; the proven plan is the return value")
			}
			frames = append(frames, r)
			open()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Synthesis.Proven {
		t.Fatal("the final plan is not proven")
	}
	if len(frames) == 0 {
		t.Fatal("no degraded incumbents streamed before the proof")
	}
	for i, f := range frames {
		syn := f.Synthesis
		if !syn.Degraded || syn.Proven {
			t.Errorf("frame %d: Degraded=%v Proven=%v, want degraded snapshot", i, syn.Degraded, syn.Proven)
		}
		if syn.Gap <= 0 {
			t.Errorf("frame %d: Gap = %v, want > 0", i, syn.Gap)
		}
		if syn.Objective < res.Synthesis.Objective {
			t.Errorf("frame %d: objective %v beats the proven optimum %v", i, syn.Objective, res.Synthesis.Objective)
		}
		if err := switchsynth.Verify(syn.Result); err != nil {
			t.Errorf("frame %d failed verification: %v", i, err)
		}
	}
}

// TestDoStreamCacheHitHasNoFrames: a spec whose plan is already cached
// resolves through the cache tier like any Do — nothing to stream.
func TestDoStreamCacheHitHasNoFrames(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	if _, err := e.Do(context.Background(), serviceSpec("warm"), switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	frames := 0
	res, err := e.DoStream(context.Background(), serviceSpec("warm"), switchsynth.Options{},
		func(*Response, bool) error { frames++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("second DoStream of the same spec missed the cache")
	}
	if frames != 0 {
		t.Errorf("cache hit streamed %d frames, want 0", frames)
	}
}

// TestWatchKeyAttachesToInFlightSolve: a watcher holding only the
// canonical key attaches to someone else's running solve, receives its
// incumbents, and gets the proven plan when it lands.
func TestWatchKeyAttachesToInFlightSolve(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	open := gatedSolve(t, e)
	sp := serviceSpec("watch")
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		resp *Response
		err  error
	}
	doCh := make(chan outcome, 1)
	go func() {
		resp, err := e.Do(context.Background(), sp, switchsynth.Options{})
		doCh <- outcome{resp, err}
	}()

	frames := 0
	var watched *Response
	for {
		resp, err := e.WatchKey(context.Background(), key, func(*Response, bool) error { frames++; open(); return nil })
		if errors.Is(err, ErrUnknownKey) {
			time.Sleep(time.Millisecond) // the solve has not been picked up yet
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		watched = resp
		break
	}
	done := <-doCh
	if done.err != nil {
		t.Fatal(done.err)
	}
	if !watched.Synthesis.Proven {
		t.Error("watcher's final plan is not proven")
	}
	if watched.Synthesis.Objective != done.resp.Synthesis.Objective {
		t.Errorf("watcher objective %v != submitter objective %v",
			watched.Synthesis.Objective, done.resp.Synthesis.Objective)
	}
	if frames == 0 {
		t.Error("watcher attached mid-solve but saw no incumbent frames")
	}
}

// TestDoStreamCancelMidSolveKeepsFeedAliveForWatchers: a ?wait=proof
// client that disconnects mid-solve must not end the flight's incumbent
// stream for anyone else — the solve continues on the engine's base
// context for other waiters, and a WatchKey watcher attached to the same
// flight still receives later incumbents and the proven plan, never a
// spurious ErrUnknownKey.
func TestDoStreamCancelMidSolveKeepsFeedAliveForWatchers(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	open := gatedSolve(t, e)
	sp := serviceSpec("cancelkeep")
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamFrame := make(chan struct{}, 1)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		_, _ = e.DoStream(ctx, sp, switchsynth.Options{},
			func(*Response, bool) error {
				select {
				case streamFrame <- struct{}{}:
				default:
				}
				return nil
			})
	}()
	within(t, streamFrame, "the streaming client's first frame")

	// A watcher attaches to the live flight; the already-published
	// incumbent reaches it immediately, proving it is attached before
	// the streaming client goes away.
	watchFrame := make(chan struct{}, 1)
	type outcome struct {
		resp *Response
		err  error
	}
	watchDone := make(chan outcome, 1)
	go func() {
		resp, werr := e.WatchKey(context.Background(), key, func(*Response, bool) error {
			select {
			case watchFrame <- struct{}{}:
			default:
			}
			return nil
		})
		watchDone <- outcome{resp, werr}
	}()
	within(t, watchFrame, "the watcher's first frame")

	// The streaming client disconnects mid-solve; only its own wait may
	// end. Then the solve proves.
	cancel()
	<-streamDone
	open()

	out := <-watchDone
	if out.err != nil {
		t.Fatalf("watcher of a still-running solve failed: %v", out.err)
	}
	if !out.resp.Synthesis.Proven {
		t.Error("watcher's final plan is not proven")
	}
}

// TestWatchKeyUnknownKey: no cached plan, no in-flight solve — the typed
// miss, mapped to 404 by HTTP.
func TestWatchKeyUnknownKey(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	_, err := e.WatchKey(context.Background(), "no-such-key", func(*Response, bool) error { return nil })
	if !errors.Is(err, ErrUnknownKey) {
		t.Errorf("WatchKey error = %v, want ErrUnknownKey", err)
	}
}

// saturate parks e's single worker on a blocked solve and queues queued
// more blocked solves behind it (distinct keys), so the next submission
// meets a backlog. The blocked solves are released at cleanup, before
// the engine closes.
func saturate(t *testing.T, e *Engine, queued int) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	e.solve = func(ctx context.Context, sp *spec.Spec, _ switchsynth.Options) (*spec.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, &search.ErrTimeout{SpecName: sp.Name, Cause: context.Canceled}
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(release)
		wg.Wait()
	})
	for i := 0; i <= queued; i++ {
		sp := serviceSpec(fmt.Sprintf("blocker-%d", i))
		sp.Alpha = float64(100 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.Do(context.Background(), sp, switchsynth.Options{})
		}()
		if i == 0 {
			within(t, started, "the blocking solve to start")
		}
	}
	for e.queue.Stats().Depth < queued {
		time.Sleep(time.Millisecond)
	}
}

// within fails the test unless ch is closed or receives within 10s.
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// errWithin returns the next error on ch, failing the test if none
// arrives within 10s: a waiter that hangs is the defect under test.
func errWithin(t *testing.T, ch <-chan error, who string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", who)
		return nil
	}
}

// gateCtx parks its first Value lookup until release is closed,
// closing reached when it parks. A leader's first lookup is the
// admission-identity read in Engine.enqueue: after the leader joined its
// flight, before the queue decides.
type gateCtx struct {
	context.Context
	once             sync.Once
	reached, release chan struct{}
}

func (c *gateCtx) Value(k any) any {
	c.once.Do(func() {
		close(c.reached)
		<-c.release
	})
	return c.Context.Value(k)
}

// attachCtx closes attached the first time a waiter selects on its Done
// channel: the moment it blocks on a flight.
type attachCtx struct {
	context.Context
	once     sync.Once
	attached chan struct{}
}

func newAttachCtx() *attachCtx {
	return &attachCtx{Context: context.Background(), attached: make(chan struct{})}
}

func (c *attachCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.attached) })
	return c.Context.Done()
}

// TestWatchKeyAndDoStreamGetShedLeadersError: a WatchKey watcher and a
// second DoStream attach to a flight whose leader the admission queue
// then sheds. Both return the flight's own *admission.ErrShed at once —
// a 429 with Retry-After over HTTP — and neither hangs.
func TestWatchKeyAndDoStreamGetShedLeadersError(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	saturate(t, e, 1) // backlog 1 of 2: the background depth watermark sheds
	sp := serviceSpec("shed")
	sp.Alpha = 3
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	noFrames := func(*Response, bool) error {
		t.Error("frame from a flight that never ran")
		return nil
	}

	gate := &gateCtx{
		Context: admission.WithCaller(context.Background(),
			admission.Caller{Tenant: "lab", Class: admission.Background}),
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.DoStream(gate, sp, switchsynth.Options{}, noFrames)
		leaderErr <- err
	}()
	within(t, gate.reached, "the leader to join its flight")

	watch, follow := newAttachCtx(), newAttachCtx()
	watchErr, followErr := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := e.WatchKey(watch, key, noFrames)
		watchErr <- err
	}()
	follower := permutedServiceSpec("shed-follower")
	follower.Alpha = 3
	go func() {
		_, err := e.DoStream(follow, follower, switchsynth.Options{}, noFrames)
		followErr <- err
	}()
	within(t, watch.attached, "the watcher to attach")
	within(t, follow.attached, "the follower to attach")
	close(gate.release)

	for _, w := range []struct {
		who string
		ch  <-chan error
	}{{"leader", leaderErr}, {"watcher", watchErr}, {"follower", followErr}} {
		err := errWithin(t, w.ch, w.who)
		if !errors.Is(err, &admission.ErrShed{}) {
			t.Errorf("%s: error = %v, want the flight's *admission.ErrShed", w.who, err)
			continue
		}
		rec := httptest.NewRecorder()
		writeFailure(rec, e, err)
		var env errorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		if rec.Code != http.StatusTooManyRequests || env.Kind != KindOverloaded || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s: HTTP %d %q Retry-After %q, want 429 overloaded with Retry-After",
				w.who, rec.Code, env.Kind, rec.Header().Get("Retry-After"))
		}
	}
}

// TestWatchKeyRetriesLeadersPrivateCancel: a watcher attached to a
// flight whose leader gave up while still waiting for a queue slot must
// not inherit the leader's context.Canceled; it looks the key up again
// and, with nothing cached or in flight, gets ErrUnknownKey.
func TestWatchKeyRetriesLeadersPrivateCancel(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	saturate(t, e, 1) // queue full: an interactive leader blocks for a slot
	sp := serviceSpec("cancelled")
	sp.Alpha = 3
	key, err := JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, sp, switchsynth.Options{})
		leaderErr <- err
	}()
	for e.queue.Stats().Pending == 0 {
		time.Sleep(time.Millisecond)
	}

	watch := newAttachCtx()
	watchErr := make(chan error, 1)
	go func() {
		_, err := e.WatchKey(watch, key, func(*Response, bool) error { return nil })
		watchErr <- err
	}()
	within(t, watch.attached, "the watcher to attach")
	cancel()

	if err := errWithin(t, leaderErr, "leader"); !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", err)
	}
	if err := errWithin(t, watchErr, "watcher"); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("watcher error = %v, want ErrUnknownKey", err)
	}
}

// TestWatchKeyAfterDegradedSolveIsUnknown: degraded plans are never
// cached, so once such a solve finishes there is nothing to watch.
func TestWatchKeyAfterDegradedSolveIsUnknown(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	base := solveOnce(t, serviceSpec("degraded"))
	e.solve = func(context.Context, *spec.Spec, switchsynth.Options) (*spec.Result, error) {
		c := *base
		c.Proven, c.Degraded, c.Gap = false, true, 0.5
		return &c, nil
	}
	resp, err := e.Do(context.Background(), serviceSpec("degraded"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Synthesis.Degraded {
		t.Fatal("stub should produce a degraded plan")
	}
	_, err = e.WatchKey(context.Background(), resp.Key, func(*Response, bool) error { return nil })
	if !errors.Is(err, ErrUnknownKey) {
		t.Errorf("WatchKey after a degraded solve: error = %v, want ErrUnknownKey", err)
	}
}

// TestHTTPWaitProofStreamsAndMatchesCold drives POST /synthesize
// ?wait=proof end to end: an ndjson stream whose first frame is a
// degraded incumbent with a gap, whose seq numbers increase, whose last
// frame carries final=true with the proof — and whose final plan is
// byte-identical to what a plain POST /synthesize returns for the same
// spec.
func TestHTTPWaitProofStreamsAndMatchesCold(t *testing.T) {
	srv, e := newTestServer(t)
	open := gatedSolve(t, e)
	body, err := json.Marshal(SynthesizeRequest{Spec: serviceSpec("ws")})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/synthesize?wait=proof", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	var framesList []SynthesizeResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var f SynthesizeResponse
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("frame %d is not a SynthesizeResponse: %v: %.200s", len(framesList), err, sc.Text())
		}
		framesList = append(framesList, f)
		open() // the proof waits for the first frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(framesList) < 2 {
		t.Fatalf("stream delivered %d frames, want a degraded incumbent before the proof", len(framesList))
	}
	first, last := framesList[0], framesList[len(framesList)-1]
	if !first.Degraded || first.Proven || first.Final {
		t.Errorf("first frame: degraded=%v proven=%v final=%v, want a non-final degraded plan",
			first.Degraded, first.Proven, first.Final)
	}
	if first.Gap <= 0 {
		t.Errorf("first frame gap = %v, want > 0", first.Gap)
	}
	if !last.Final || !last.Proven {
		t.Errorf("last frame: final=%v proven=%v, want the proof", last.Final, last.Proven)
	}
	for i := 1; i < len(framesList); i++ {
		if framesList[i].Seq <= framesList[i-1].Seq {
			t.Errorf("frame %d: seq %d does not increase over %d", i, framesList[i].Seq, framesList[i-1].Seq)
		}
		if framesList[i].Final && i != len(framesList)-1 {
			t.Errorf("frame %d flagged final before the stream ended", i)
		}
	}

	cold, raw := postJSON(t, srv.URL+"/synthesize", string(body))
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("plain POST status %d: %.300s", cold.StatusCode, raw)
	}
	var coldResp SynthesizeResponse
	if err := json.Unmarshal(raw, &coldResp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last.Plan, coldResp.Plan) {
		t.Error("final streamed plan is not byte-identical to POST /synthesize")
	}
}

// TestHTTPStreamKeyEndpoint: GET /synthesize/stream/{key} for a cached
// plan is a single final frame; an unknown key is a 404 envelope; an
// empty key a 400.
func TestHTTPStreamKeyEndpoint(t *testing.T) {
	srv, e := newTestServer(t)
	resp, err := e.Do(context.Background(), serviceSpec("streamkey"), switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(srv.URL + "/synthesize/stream/" + resp.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream of cached key: status %d, want 200", sresp.StatusCode)
	}
	var lines []SynthesizeResponse
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var f SynthesizeResponse
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame: %v: %.200s", err, sc.Text())
		}
		lines = append(lines, f)
	}
	if len(lines) != 1 || !lines[0].Final || !lines[0].Proven || !lines[0].CacheHit {
		t.Errorf("cached-key stream = %d frames (first: final=%v proven=%v cacheHit=%v), want one final cached frame",
			len(lines), lines[0].Final, lines[0].Proven, lines[0].CacheHit)
	}
	if lines[0].Key != resp.Key {
		t.Errorf("frame key %q, want %q", lines[0].Key, resp.Key)
	}

	nresp, err := http.Get(srv.URL + "/synthesize/stream/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", nresp.StatusCode)
	}
	var env errorResponse
	if err := json.NewDecoder(nresp.Body).Decode(&env); err != nil || env.Kind != "not-found" {
		t.Errorf("404 envelope = %+v (err %v), want kind not-found", env, err)
	}

	eresp, err := http.Get(srv.URL + "/synthesize/stream/")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty key: status %d, want 400", eresp.StatusCode)
	}
}

// TestStreamTimeToFirstPlanBench checks that a streaming watcher holds a
// usable plan sooner than a blocking caller holds the proof, and logs
// both times. It runs in every test run except -short; the admission
// record (TestAdmissionBenchReport) measures the same pair on its own.
func TestStreamTimeToFirstPlanBench(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive benchmark companion")
	}
	e := newTestEngine(t, Config{Workers: 1})
	start := time.Now()
	var firstPlan time.Duration
	res, err := e.DoStream(context.Background(), stream16("ttfp"), switchsynth.Options{TimeLimit: 2 * time.Minute},
		func(*Response, bool) error {
			if firstPlan == 0 {
				firstPlan = time.Since(start)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	proof := time.Since(start)
	if firstPlan == 0 {
		t.Fatal("no streamed frame before the proof")
	}
	if !res.Synthesis.Proven {
		t.Fatal("solve did not prove")
	}
	if firstPlan >= proof {
		t.Errorf("first plan at %s, proof at %s: streaming bought nothing", firstPlan, proof)
	}
	t.Logf("time-to-first-plan %s vs time-to-proof %s (%.1fx earlier)",
		firstPlan, proof, float64(proof)/float64(firstPlan))
}
