// Peer cache fill and anti-entropy sync, including the chaos cases the
// replication invariant exists for: corrupted bytes from a peer must
// never be served or stored, only cost a redundant (and bit-identical)
// local solve.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/service"
)

func TestPeerFillServesVerifiedPlan(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")

	// Owner solves first; the plan now lives only on n0.
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}

	// n1 misses memory and disk, fetches from the owner, re-verifies,
	// and serves without solving.
	resp, err := nodes[1].eng.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.PeerHit || !resp.CacheHit {
		t.Errorf("peerHit=%v cacheHit=%v, want true/true", resp.PeerHit, resp.CacheHit)
	}
	if err := switchsynth.Verify(resp.Synthesis.Result); err != nil {
		t.Fatalf("peer-filled plan failed verification: %v", err)
	}
	snap := nodes[1].eng.Snapshot()
	if snap.PeerHits != 1 || snap.SolveCount != 0 {
		t.Errorf("peerHits=%d solveCount=%d, want 1/0 (no local solve)", snap.PeerHits, snap.SolveCount)
	}
	if st := nodes[1].cl.Status(); st.FillHits != 1 {
		t.Errorf("fillHits = %d, want 1", st.FillHits)
	}

	// The fill wrote through: both nodes now hold identical plan bytes.
	a, okA := nodes[0].eng.PlanBytes(key)
	b, okB := nodes[1].eng.PlanBytes(key)
	if !okA || !okB {
		t.Fatalf("plan bytes present: owner=%v filler=%v, want both", okA, okB)
	}
	if !bytes.Equal(a, b) {
		t.Error("peer-filled plan bytes differ from the owner's")
	}
}

func TestPeerFillMissFallsThroughToSolve(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, _ := specOwnedBy(t, nodes[0].cl.Ring(), "n0")

	// Owner has nothing: n1's fill is a clean miss and n1 solves.
	resp, err := nodes[1].eng.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PeerHit || resp.CacheHit {
		t.Errorf("peerHit=%v cacheHit=%v, want cold solve", resp.PeerHit, resp.CacheHit)
	}
	snap := nodes[1].eng.Snapshot()
	if snap.PeerMisses != 1 || snap.SolveCount != 1 {
		t.Errorf("peerMisses=%d solveCount=%d, want 1/1", snap.PeerMisses, snap.SolveCount)
	}
}

func TestCorruptFetchNeverServedOrStored(t *testing.T) {
	var inj *faultinject.Injector
	nodes := startNodes(t, 2, func(i int, ccfg *Config, scfg *service.Config) {
		if i == 1 {
			inj = faultinject.New(7).Set(faultinject.FetchCorrupt, faultinject.Rule{Probability: 1})
			ccfg.FaultInjector = inj
		}
	})
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}

	// Every fetched byte stream is corrupted; n1 must reject the plan
	// and fall back to solving — the request still succeeds.
	resp, err := nodes[1].eng.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PeerHit {
		t.Fatal("corrupted fetch served as a peer hit")
	}
	if err := switchsynth.Verify(resp.Synthesis.Result); err != nil {
		t.Fatalf("plan failed verification after corrupt-fetch fallback: %v", err)
	}
	if inj.Fired(faultinject.FetchCorrupt) == 0 {
		t.Fatal("fault never fired; test exercised nothing")
	}
	snap := nodes[1].eng.Snapshot()
	if snap.PeerRejected == 0 {
		t.Error("peerRejected = 0, want the corrupted plan counted")
	}
	if snap.SolveCount != 1 {
		t.Errorf("solveCount = %d, want 1 (local fallback solve)", snap.SolveCount)
	}

	// Determinism makes the fallback solve bit-identical to the owner's.
	a, _ := nodes[0].eng.PlanBytes(key)
	b, okB := nodes[1].eng.PlanBytes(key)
	if !okB {
		t.Fatal("fallback solve not stored locally")
	}
	if !bytes.Equal(a, b) {
		t.Error("locally solved plan differs from the owner's — determinism broken")
	}
}

// TestFetchPlanErrorWrapsPeerAndCause pins the fill error contract:
// the returned error names the failing peer and the key, and wraps the
// underlying cause with %w so callers can match it with errors.Is
// through the cluster layer.
func TestFetchPlanErrorWrapsPeerAndCause(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answer; the fetch timeout must fire
	}))
	defer hung.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // the port now refuses connections

	tests := []struct {
		name    string
		peerURL string
		want    error
	}{
		{"deadline exceeded", hung.URL, context.DeadlineExceeded},
		{"connection refused", dead.URL, syscall.ECONNREFUSED},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(Config{
				SelfID: "self",
				Peers: []Node{
					{ID: "self", URL: "http://127.0.0.1:1"},
					{ID: "peer-a", URL: tc.peerURL},
				},
				FetchTimeout: 50 * time.Millisecond,
				SyncInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Pick a key the peer outranks self for, so the walk tries it.
			key := ""
			for i := 0; i < 100 && key == ""; i++ {
				if k := fmt.Sprintf("key-%d", i); cl.Ring().OwnerID(k) == "peer-a" {
					key = k
				}
			}
			if key == "" {
				t.Fatal("no key owned by peer-a in 100 tries")
			}
			_, err = cl.FetchPlan(context.Background(), key)
			if err == nil {
				t.Fatal("FetchPlan returned nil error for an unreachable peer")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("errors.Is(%v, %v) = false; the cause must survive the wrap", err, tc.want)
			}
			if !strings.Contains(err.Error(), "peer-a") {
				t.Errorf("error %q does not name the failing peer", err)
			}
			if !strings.Contains(err.Error(), key) {
				t.Errorf("error %q does not name the key", err)
			}
		})
	}
}

func TestAntiEntropyPullsOwnedKeys(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n1")

	// n0 solved a key n1 owns (a fallback solve while n1 was down, say).
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[1].eng.PlanBytes(key); ok {
		t.Fatal("n1 already has the plan; test setup broken")
	}

	pulled := nodes[1].cl.syncOnce(context.Background())
	if pulled != 1 {
		t.Fatalf("syncOnce pulled %d plans, want 1", pulled)
	}
	a, _ := nodes[0].eng.PlanBytes(key)
	b, ok := nodes[1].eng.PlanBytes(key)
	if !ok || !bytes.Equal(a, b) {
		t.Fatalf("synced plan present=%v identical=%v, want true/true", ok, bytes.Equal(a, b))
	}
	if snap := nodes[1].eng.Snapshot(); snap.PeerImported != 1 {
		t.Errorf("peerImported = %d, want 1", snap.PeerImported)
	}

	// A second round is a no-op: the manifest diff is empty.
	if pulled := nodes[1].cl.syncOnce(context.Background()); pulled != 0 {
		t.Errorf("second syncOnce pulled %d, want 0", pulled)
	}

	// n0 is in the key's replica set (2-node R=2) but already holds the
	// plan, so its round pulls nothing either.
	if pulled := nodes[0].cl.syncOnce(context.Background()); pulled != 0 {
		t.Errorf("already-holding replica syncOnce pulled %d, want 0", pulled)
	}
}

func TestAntiEntropyRejectsCorruptPlans(t *testing.T) {
	var inj *faultinject.Injector
	nodes := startNodes(t, 2, func(i int, ccfg *Config, scfg *service.Config) {
		if i == 1 {
			inj = faultinject.New(11).Set(faultinject.FetchCorrupt, faultinject.Rule{Probability: 1})
			ccfg.FaultInjector = inj
		}
	})
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n1")
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}

	if pulled := nodes[1].cl.syncOnce(context.Background()); pulled != 0 {
		t.Fatalf("syncOnce imported %d corrupted plans, want 0", pulled)
	}
	if inj.Fired(faultinject.FetchCorrupt) == 0 {
		t.Fatal("fault never fired; test exercised nothing")
	}
	if _, ok := nodes[1].eng.PlanBytes(key); ok {
		t.Fatal("corrupted plan reached the local store")
	}
	if st := nodes[1].cl.Status(); st.SyncErrors == 0 {
		t.Error("syncErrors = 0, want the rejected import counted")
	}
	if snap := nodes[1].eng.Snapshot(); snap.PeerRejected == 0 {
		t.Error("peerRejected = 0, want the rejected import counted")
	}
}

// peerFacing builds a cluster whose only other member, peer-a, is at
// peerURL, and returns it with a key peer-a owns, so a fill tries
// peer-a first and stops at self after it.
func peerFacing(t *testing.T, peerURL string, fetchTimeout time.Duration) (*Cluster, string) {
	t.Helper()
	cl, err := New(Config{
		SelfID:       "self",
		Peers:        []Node{{ID: "self", URL: "http://127.0.0.1:1"}, {ID: "peer-a", URL: peerURL}},
		FetchTimeout: fetchTimeout,
		SyncInterval: -1,
		DownAfter:    1 << 30, // keep trying the peer, however often it fails
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, keyOwnedBy(t, cl.Ring(), "peer-a")
}

// hungPeer accepts connections and requests but never answers one.
func hungPeer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestFetchPlanHungPeerCostsOneTimeout: a fill against a peer that
// never answers costs one FetchTimeout, on every attempt — there is no
// second transport to time out in turn.
func TestFetchPlanHungPeerCostsOneTimeout(t *testing.T) {
	const timeout = 300 * time.Millisecond
	cl, key := peerFacing(t, hungPeer(t), timeout)
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := cl.FetchPlan(context.Background(), key)
		took := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("fill %d: err = %v, want context.DeadlineExceeded", i, err)
		}
		if took > timeout+100*time.Millisecond {
			t.Errorf("fill %d against a hung peer took %v, want <= FetchTimeout (%v) + 100ms", i, took, timeout)
		}
	}
}

// TestFetchPlanEndsWithCallerContext: the caller's context bounds the
// fill, well inside FetchTimeout — by its deadline and by cancellation.
func TestFetchPlanEndsWithCallerContext(t *testing.T) {
	peer := hungPeer(t)
	tests := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, context.DeadlineExceeded},
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cl, key := peerFacing(t, peer, 2*time.Second)
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, err := cl.FetchPlan(ctx, key)
			took := time.Since(start)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if took > 150*time.Millisecond {
				t.Errorf("fill ended %v after it started, want <= 150ms (the caller gave up at 50ms)", took)
			}
		})
	}
}

// TestFetchPlanDeadOwnerCostsOneDial: an owner that dies on every
// connection (accepts it, then closes it) costs each fill exactly one
// dial, counted where the owner accepts.
func TestFetchPlanDeadOwnerCostsOneDial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close()
		}
	}()

	cl, key := peerFacing(t, "http://"+l.Addr().String(), 2*time.Second)
	const fills = 3
	for i := 0; i < fills; i++ {
		if _, err := cl.FetchPlan(context.Background(), key); err == nil {
			t.Fatalf("fill %d against a dead owner succeeded", i)
		}
	}
	if n := accepts.Load(); n != fills {
		t.Errorf("dead owner accepted %d connections for %d fills, want one each", n, fills)
	}
	if st := cl.Status(); st.FillErrors != fills || st.StreamDials != fills {
		t.Errorf("fillErrors=%d streamDials=%d, want %d/%d", st.FillErrors, st.StreamDials, fills, fills)
	}
}

// TestPlanStreamRedialsDeadPooledStream: a restarted owner has dropped
// the reader's pooled stream. The next fill closes it, re-dials once
// and succeeds — no fill error and no down observation.
func TestPlanStreamRedialsDeadPooledStream(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	reader := nodes[1].cl
	if _, err := reader.FetchPlan(context.Background(), key); err != nil {
		t.Fatal(err)
	}

	// Restart the owner on its address with a fresh engine that holds
	// the plan again; the old engine hangs up the pooled stream.
	addr := nodes[0].srv.Listener.Addr().String()
	nodes[0].srv.Close()
	nodes[0].eng.CloseNow()
	peers := []Node{{ID: "n0", URL: nodes[0].url}, {ID: "n1", URL: nodes[1].url}}
	owner := bootNode(t, peers, listenOn(t, addr), 0, false, nil)
	if _, err := owner.eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _ := owner.eng.PlanBytes(key)

	got, err := reader.FetchPlan(context.Background(), key)
	if err != nil {
		t.Fatalf("fill over a dead pooled stream: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("re-dialed fill returned different bytes than the owner holds")
	}
	st := reader.Status()
	if st.FillErrors != 0 || st.FillHits != 2 || st.StreamDials != 2 {
		t.Errorf("fillErrors=%d fillHits=%d streamDials=%d, want 0/2/2", st.FillErrors, st.FillHits, st.StreamDials)
	}
	if ps := reader.mem.snapshot()["n0"]; !ps.Up || ps.Streak != 0 || ps.LastErr != "" {
		t.Errorf("owner health after the re-dial = %+v, want up with no failure recorded", ps)
	}
}
