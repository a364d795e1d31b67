// Shared multi-node test harness: real engines, real handlers, real
// HTTP servers on loopback listeners, wired exactly as cmd/synthd wires
// them. Background loops (probe, sync) stay off unless a test starts
// them, so membership defaults to the optimistic all-up boot state.
package cluster

import (
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"switchsynth/internal/service"
	"switchsynth/internal/spec"
)

// clusterSpecVariant returns one of a family of small, fast-solving
// specs with pairwise-distinct canonical keys (the canonical key
// ignores Name, so the variants differ structurally: pin count, flow
// set, conflicts).
func clusterSpecVariant(i int) *spec.Spec {
	sp := &spec.Spec{
		Name:       fmt.Sprintf("cluster-%02d", i),
		SwitchPins: 8 + 4*(i/4), // 8, 12, 16, ... — the supported sizes
		Modules:    []string{"sample", "buffer", "mix1", "mix2"},
		Binding:    spec.Unfixed,
	}
	switch i % 4 {
	case 0:
		sp.Flows = []spec.Flow{{From: "sample", To: "mix1"}, {From: "buffer", To: "mix2"}}
		sp.Conflicts = [][2]int{{0, 1}}
	case 1:
		sp.Flows = []spec.Flow{{From: "sample", To: "mix1"}, {From: "buffer", To: "mix2"}}
	case 2:
		sp.Modules = []string{"sample", "mix1"}
		sp.Flows = []spec.Flow{{From: "sample", To: "mix1"}}
	case 3:
		sp.Modules = []string{"sample", "buffer", "rinse", "mix1", "mix2", "mix3"}
		sp.Flows = []spec.Flow{{From: "sample", To: "mix1"}, {From: "buffer", To: "mix2"}, {From: "rinse", To: "mix3"}}
		sp.Conflicts = [][2]int{{0, 1}}
	}
	return sp
}

// specOwnedBy searches the variant family for a spec whose canonical
// job key lands on ownerID under r.
func specOwnedBy(t *testing.T, r *Ring, ownerID string) (*spec.Spec, string) {
	t.Helper()
	for i := 0; i < 20; i++ {
		sp := clusterSpecVariant(i)
		key, err := service.JobKey(sp)
		if err != nil {
			t.Fatalf("JobKey(variant %d): %v", i, err)
		}
		if r.OwnerID(key) == ownerID {
			return sp, key
		}
	}
	t.Fatalf("no spec variant owned by %q", ownerID)
	return nil, ""
}

// keyOwnedBy returns a synthetic key that ranks ownerID first under r,
// for transport tests that never decode a plan.
func keyOwnedBy(t *testing.T, r *Ring, ownerID string) string {
	t.Helper()
	for i := 0; i < 100; i++ {
		if k := fmt.Sprintf("key-%d", i); r.OwnerID(k) == ownerID {
			return k
		}
	}
	t.Fatalf("no key owned by %q in 100 tries", ownerID)
	return ""
}

// testNode is one in-process synthd: engine + cluster + HTTP server.
type testNode struct {
	id  string
	url string
	eng *service.Engine
	cl  *Cluster
	srv *httptest.Server
}

// startNodes boots n nodes sharing one static peer list. mut (optional)
// customizes node i's cluster and service configs before construction;
// the harness then finishes the synthd wiring: cluster first (its
// engine callbacks late-bind), then the engine with the cluster's fill
// hook, then the clustered handler's server on the pre-bound listener.
// Background loops stay off: tests drive syncOnce/probeOnce directly.
func startNodes(t *testing.T, n int, mut func(i int, ccfg *Config, scfg *service.Config)) []*testNode {
	t.Helper()
	return startCluster(t, n, false, mut)
}

// startReplNodes boots n nodes with the full write-path wiring of
// cmd/synthd: each engine's OnPlanStored hook feeds the cluster's
// replication queue and the cluster's background workers (probe loop
// plus push workers) run. The anti-entropy loop still stays off so
// tests drive syncOnce deterministically.
func startReplNodes(t *testing.T, n int, mut func(i int, ccfg *Config, scfg *service.Config)) []*testNode {
	t.Helper()
	return startCluster(t, n, true, mut)
}

func startCluster(t *testing.T, n int, repl bool, mut func(i int, ccfg *Config, scfg *service.Config)) []*testNode {
	t.Helper()
	peers := make([]Node, n)
	listeners := make([]net.Listener, n)
	for i := range peers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = l
		peers[i] = Node{ID: fmt.Sprintf("n%d", i), URL: "http://" + l.Addr().String()}
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = bootNode(t, peers, listeners[i], i, repl, mut)
	}
	return nodes
}

// bootNode builds and starts one node on a pre-bound listener. It is a
// separate helper so crash tests can restart a killed node on its old
// address with a fresh (empty) engine.
func bootNode(t *testing.T, peers []Node, l net.Listener, i int, repl bool, mut func(i int, ccfg *Config, scfg *service.Config)) *testNode {
	t.Helper()
	node := &testNode{id: peers[i].ID, url: peers[i].URL}
	ccfg := Config{
		SelfID:       node.id,
		Peers:        peers,
		SyncInterval: -1, // loops off by default; tests drive syncOnce
	}
	scfg := service.Config{Workers: 2}
	if mut != nil {
		mut(i, &ccfg, &scfg)
	}
	ccfg.LocalKeys = func() []string { return node.eng.PlanKeys() }
	ccfg.LocalImport = func(key string, data []byte) error { return node.eng.ImportPlan(key, data) }
	cl, err := New(ccfg)
	if err != nil {
		t.Fatalf("cluster.New(%s): %v", node.id, err)
	}
	scfg.PeerFill = cl.FetchPlan
	if repl {
		scfg.OnPlanStored = cl.ReplicatePlan
	}
	eng := service.New(scfg)
	node.eng, node.cl = eng, cl
	h := service.NewHandlerWith(eng, service.HandlerConfig{Cluster: cl})
	srv := httptest.NewUnstartedServer(h)
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	node.srv = srv
	if repl {
		cl.Start()
	}
	// Stop is safe without Start; it also hangs up the node's pooled
	// plan-stream connections so peers' serving goroutines unblock.
	t.Cleanup(cl.Stop)
	t.Cleanup(srv.Close)
	t.Cleanup(eng.CloseNow)
	return node
}

// nodeByID resolves a rank entry back to its test node.
func nodeByID(t *testing.T, nodes []*testNode, id string) *testNode {
	t.Helper()
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	t.Fatalf("no test node %q", id)
	return nil
}

// settleRepl blocks until every node's replication/repair queue has
// drained, so tests can assert on the post-push state without racing
// the async workers.
func settleRepl(t *testing.T, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		pending := int64(0)
		for _, n := range nodes {
			pending += n.cl.replPending.Load()
		}
		if pending == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("replication queue never drained")
}
