package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/service"
)

func TestMembershipFlapDamping(t *testing.T) {
	m := newMembership("self", []Node{{ID: "self"}, {ID: "p"}}, 2, 3)

	if !m.alive("self") {
		t.Fatal("self must always be alive")
	}
	if m.alive("stranger") {
		t.Fatal("unknown peers must not be alive")
	}
	if !m.alive("p") {
		t.Fatal("peers start optimistically up")
	}

	// Two failures are below DownAfter=3: still up.
	m.observe("p", false, "conn refused")
	m.observe("p", false, "conn refused")
	if !m.alive("p") {
		t.Fatal("peer went down after 2/3 failures — damping broken")
	}
	// A success resets the failure streak entirely.
	m.observe("p", true, "")
	m.observe("p", false, "x")
	m.observe("p", false, "x")
	if !m.alive("p") {
		t.Fatal("failure streak survived an intervening success")
	}
	// Third consecutive failure flips the state.
	if flipped := m.observe("p", false, "x"); !flipped {
		t.Fatal("3rd consecutive failure should flip to down")
	}
	if m.alive("p") {
		t.Fatal("peer still alive after DownAfter failures")
	}

	// One success is below UpAfter=2: still down.
	m.observe("p", true, "")
	if m.alive("p") {
		t.Fatal("peer revived after 1/2 successes — damping broken")
	}
	if flipped := m.observe("p", true, ""); !flipped {
		t.Fatal("2nd consecutive success should flip to up")
	}
	if !m.alive("p") {
		t.Fatal("peer not alive after UpAfter successes")
	}

	snap := m.snapshot()
	ps, ok := snap["p"]
	if !ok {
		t.Fatal("snapshot missing peer p")
	}
	if ps.Flaps != 2 {
		t.Errorf("flaps = %d, want 2 (one down, one up)", ps.Flaps)
	}
	if ps.Probes != 8 {
		t.Errorf("probes = %d, want 8", ps.Probes)
	}
	if _, ok := snap["self"]; ok {
		t.Error("snapshot must not include self")
	}

	// Observations about self are ignored, not state-changing.
	for i := 0; i < 10; i++ {
		m.observe("self", false, "x")
	}
	if !m.alive("self") {
		t.Fatal("self went down from observations")
	}
}

// TestMembershipThresholdBoundaries pins the exact flap-damping
// boundaries: upAfter-1 successes keeps a peer down, the downAfter-th
// consecutive failure (not one sooner) flips it, and any contrary
// observation resets the streak in both directions.
func TestMembershipThresholdBoundaries(t *testing.T) {
	tests := []struct {
		name      string
		upAfter   int
		downAfter int
		obs       []bool // observation sequence, in order
		wantUp    bool
	}{
		{"downAfter-1 failures keeps up", 2, 3, []bool{false, false}, true},
		{"exactly downAfter failures flips down", 2, 3, []bool{false, false, false}, false},
		{"success mid-streak resets the failure count", 2, 3, []bool{false, false, true, false, false}, true},
		{"upAfter-1 successes keeps down", 2, 3, []bool{false, false, false, true}, false},
		{"exactly upAfter successes flips up", 2, 3, []bool{false, false, false, true, true}, true},
		{"failure mid-recovery resets the success count", 2, 3, []bool{false, false, false, true, false, true}, false},
		{"downAfter=1 flips on the first failure", 1, 1, []bool{false}, false},
		{"upAfter=1 revives on the first success", 1, 1, []bool{false, true}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := newMembership("self", []Node{{ID: "self"}, {ID: "p"}}, tc.upAfter, tc.downAfter)
			for _, ok := range tc.obs {
				msg := ""
				if !ok {
					msg = "injected failure"
				}
				m.observe("p", ok, msg)
			}
			if got := m.alive("p"); got != tc.wantUp {
				t.Errorf("after %v: alive = %v, want %v", tc.obs, got, tc.wantUp)
			}
			if snap := m.snapshot()["p"]; snap.Probes != int64(len(tc.obs)) {
				t.Errorf("probes = %d, want %d", snap.Probes, len(tc.obs))
			}
		})
	}
}

// TestRequestPathAndProbeObservationsShareThresholds proves a failed
// plan fetch and a failed health probe feed the same damped state
// machine: either source alone is below DownAfter=2, together they
// flip the peer down.
func TestRequestPathAndProbeObservationsShareThresholds(t *testing.T) {
	nodes := startNodes(t, 2, func(i int, ccfg *Config, scfg *service.Config) {
		ccfg.DownAfter = 2
	})
	sp, _ := specOwnedBy(t, nodes[0].cl.Ring(), "n1")
	nodes[1].srv.Close()

	// First evidence: a request-path fetch failure. One observation is
	// below the threshold — and the request itself still succeeds
	// locally (invariant 1).
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := nodes[0].cl.Status(); st.FillErrors != 1 {
		t.Fatalf("fillErrors = %d, want 1 (setup: the fetch must have failed)", st.FillErrors)
	}
	if !nodes[0].cl.mem.alive("n1") {
		t.Fatal("a single request-path failure flipped the peer — damping broken")
	}

	// Second evidence: one probe round. Request-path + probe failures
	// combined reach DownAfter.
	nodes[0].cl.probeOnce()
	if nodes[0].cl.mem.alive("n1") {
		t.Fatal("mixed request-path + probe failures did not accumulate to DownAfter")
	}
}

// TestProbeLoopDetectsDownAndRecovery drives the real probe loop
// against a peer whose /readyz flips from healthy to failing and back,
// checking the damped state machine follows with the configured lag.
func TestProbeLoopDetectsDownAndRecovery(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	c, err := New(Config{
		SelfID: "self",
		Peers: []Node{
			{ID: "self", URL: "http://127.0.0.1:0"},
			{ID: "p", URL: peer.URL},
		},
		ProbeInterval: 10 * time.Millisecond,
		SyncInterval:  -1,
		UpAfter:       2,
		DownAfter:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.mem.alive("p") == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("peer never became %s", what)
	}

	waitFor(true, "up")
	healthy.Store(false)
	waitFor(false, "down (2 consecutive 503 probes)")
	healthy.Store(true)
	waitFor(true, "up again (2 consecutive 200 probes)")

	if st := c.Status(); st.Probes == 0 {
		t.Error("probe counter never advanced")
	}
}

// TestPeerRoundTripObservationRule: every kind of peer round trip feeds
// membership by one rule. A transport error or an injected fault is a
// down observation, a shed status is no evidence, and any other answer
// is an up observation — except the probe, for which every non-200
// readiness answer is down.
func TestPeerRoundTripObservationRule(t *testing.T) {
	eng := service.New(service.Config{Workers: 2})
	t.Cleanup(eng.CloseNow)
	sp := clusterSpecVariant(0)
	resp, err := eng.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := resp.Key
	plan, _ := eng.PlanBytes(key)
	body, err := json.Marshal(service.SynthesizeRequest{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}

	healthy := httptest.NewServer(service.NewHandler(eng))
	t.Cleanup(healthy.Close)
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(shedding.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	const (
		none = "none"
		up   = "up"
		down = "down"
	)
	// call reports whether the round trip did its job, so each row also
	// checks that it drove the outcome it names.
	kinds := []struct {
		name     string
		call     func(c *Cluster, n Node) bool
		whenShed string
	}{
		{"probe", func(c *Cluster, n Node) bool { return c.probe(n) == nil }, down},
		{"fill", func(c *Cluster, n Node) bool {
			_, found, err := c.fetchFrom(context.Background(), n, key)
			return err == nil && found
		}, none},
		{"manifest", func(c *Cluster, n Node) bool {
			keys, err := c.manifest(context.Background(), n)
			return err == nil && len(keys) == 1
		}, none},
		{"push", func(c *Cluster, n Node) bool { return c.pushPlan(n, key, plan) == nil }, none},
		{"forward", func(c *Cluster, n Node) bool {
			r := httptest.NewRequest(http.MethodPost, "/synthesize", bytes.NewReader(body))
			return c.forward(httptest.NewRecorder(), r, n, body, 0)
		}, none},
	}
	for _, kind := range kinds {
		outcomes := []struct {
			name string
			url  string
			inj  func() *faultinject.Injector
			want string
		}{
			{"transport error", dead.URL, nil, down},
			{"injected peer down", healthy.URL, func() *faultinject.Injector {
				return faultinject.New(1).Set(faultinject.PeerDown, faultinject.Rule{Probability: 1})
			}, down},
			{"injected link down", healthy.URL, func() *faultinject.Injector {
				inj := faultinject.New(1)
				inj.CutLink("self", "p")
				return inj
			}, down},
			{"shed status", shedding.URL, nil, kind.whenShed},
			{"success", healthy.URL, nil, up},
		}
		for _, oc := range outcomes {
			t.Run(kind.name+"/"+oc.name, func(t *testing.T) {
				cfg := Config{
					SelfID:       "self",
					Peers:        []Node{{ID: "self"}, {ID: "p", URL: oc.url}},
					SyncInterval: -1,
				}
				if oc.inj != nil {
					cfg.FaultInjector = oc.inj()
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Stop)
				if ok := kind.call(c, Node{ID: "p", URL: oc.url}); ok != (oc.name == "success") {
					t.Fatalf("round trip succeeded = %v, want %v", ok, oc.name == "success")
				}

				ps := c.mem.snapshot()["p"]
				got := none
				switch {
				case ps.Probes == 1 && ps.Streak == 1 && ps.LastErr != "":
					got = down
				case ps.Probes == 1 && ps.Streak == 0 && ps.LastErr == "":
					got = up
				case ps.Probes != 0:
					got = fmt.Sprintf("%+v", ps)
				}
				if got != oc.want {
					t.Errorf("observation = %s, want %s", got, oc.want)
				}
			})
		}
	}
}
