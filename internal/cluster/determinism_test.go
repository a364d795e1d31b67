// The cluster determinism acceptance test, in an external test package:
// it drives the full stack (exp campaign -> client -> daemon handler ->
// cluster routing hook), and the client package itself imports cluster, so
// an in-package test would be an import cycle.
//
// The property under test is the tentpole invariant: a fixed campaign
// produces a byte-identical deterministic report no matter the topology
// it ran on — one node, three nodes behind a single entry point, three
// replicating nodes, or three nodes with one killed mid-run. Sharding
// and replication decide only WHERE a plan is solved, never WHAT the
// plan is.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/client"
	"switchsynth/internal/cluster"
	"switchsynth/internal/contam"
	"switchsynth/internal/exp"
	"switchsynth/internal/planio"
	"switchsynth/internal/report"
	"switchsynth/internal/service"
	"switchsynth/internal/spec"

	"net"
	"net/http/httptest"
)

// detNode is one in-process synthd, wired the way cmd/synthd wires it.
// This mirrors the in-package harness (cluster_test.go); it is
// duplicated here because the external package cannot reach it.
type detNode struct {
	id  string
	url string
	eng *service.Engine
	cl  *cluster.Cluster
	srv *httptest.Server
}

// bootNodes starts n nodes; with repl set, each engine's OnPlanStored
// hook feeds the cluster's replication queue and the push workers run
// (the full cmd/synthd write-path wiring).
func bootNodes(t *testing.T, n int, repl bool) []*detNode {
	t.Helper()
	peers := make([]cluster.Node, n)
	listeners := make([]net.Listener, n)
	for i := range peers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = l
		peers[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), URL: "http://" + l.Addr().String()}
	}
	nodes := make([]*detNode, n)
	for i := range nodes {
		node := &detNode{id: peers[i].ID, url: peers[i].URL}
		ccfg := cluster.Config{
			SelfID:        node.id,
			Peers:         peers,
			SyncInterval:  -1, // no anti-entropy loop: the campaign is the traffic
			ProbeInterval: time.Hour,
			LocalKeys:     func() []string { return node.eng.PlanKeys() },
			LocalImport:   func(key string, data []byte) error { return node.eng.ImportPlan(key, data) },
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", node.id, err)
		}
		scfg := service.Config{
			Workers:          2,
			PeerFill:         cl.FetchPlan,
			DefaultTimeLimit: 10 * time.Second,
		}
		if repl {
			scfg.OnPlanStored = cl.ReplicatePlan
		}
		eng := service.New(scfg)
		node.eng, node.cl = eng, cl
		h := service.NewHandlerWith(eng, service.HandlerConfig{Cluster: cl})
		srv := httptest.NewUnstartedServer(h)
		srv.Listener.Close()
		srv.Listener = listeners[i]
		srv.Start()
		node.srv = srv
		if repl {
			cl.Start()
		}
		t.Cleanup(cl.Stop) // safe without Start; also hangs up plan streams
		t.Cleanup(srv.Close)
		t.Cleanup(eng.CloseNow)
		nodes[i] = node
	}
	return nodes
}

// TestCampaignDeterministicAcrossTopologies is the acceptance gate from
// the cluster design: the same seeded campaign, byte-identical on one
// node, on three nodes entered through a non-owner, on three nodes that
// replicate every plan (so the entry node also serves peer-filled and
// pushed frames), and on three nodes with one killed mid-run.
func TestCampaignDeterministicAcrossTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node campaign in -short mode")
	}
	const count, seed = 24, 42
	run := func(url string) (table, stats string) {
		res := exp.RunCampaign(exp.Config{
			DaemonURL: url,
			Workers:   4,
			// Generous per-case budget: a timeout row would be real
			// nondeterminism in this test, not a solver property.
			TimeLimit: 10 * time.Second,
		}, count, seed)
		return report.CampaignTable(res.Rows), res.Stats.DeterministicString()
	}

	single := bootNodes(t, 1, false)
	wantTable, wantStats := run(single[0].url)

	three := bootNodes(t, 3, false)
	gotTable, gotStats := run(three[0].url)
	if gotTable != wantTable {
		t.Errorf("3-node campaign table differs from single-node:\n--- single\n%s\n--- three\n%s", wantTable, gotTable)
	}
	if gotStats != wantStats {
		t.Errorf("3-node campaign stats differ: %q vs %q", gotStats, wantStats)
	}
	// Sanity: the entry node actually exercised the sharded path rather
	// than serving everything locally by accident.
	st := three[0].cl.Status()
	if st.Forwards == 0 {
		t.Error("3-node campaign forwarded nothing; sharding untested")
	}

	repl := bootNodes(t, 3, true)
	rTable, rStats := run(repl[0].url)
	if rTable != wantTable {
		t.Errorf("replicating 3-node campaign table differs from single-node:\n--- single\n%s\n--- replicating\n%s", wantTable, rTable)
	}
	if rStats != wantStats {
		t.Errorf("replicating 3-node campaign stats differ: %q vs %q", rStats, wantStats)
	}
	forwards := int64(0)
	for _, n := range repl {
		forwards += n.cl.Status().Forwards
	}
	if forwards == 0 {
		t.Error("replicating campaign forwarded nothing; sharding untested")
	}

	killed := bootNodes(t, 3, false)
	timer := time.AfterFunc(75*time.Millisecond, killed[2].srv.Close)
	defer timer.Stop()
	kTable, kStats := run(killed[0].url)
	if kTable != wantTable {
		t.Errorf("kill-one campaign table differs from single-node:\n--- single\n%s\n--- killed\n%s", wantTable, kTable)
	}
	if kStats != wantStats {
		t.Errorf("kill-one campaign stats differ: %q vs %q", kStats, wantStats)
	}
}

// TestFPVAPlanClusterMatchesSingleNode is the FPVA acceptance gate: an
// FPVA grid spec served through a replicating three-node cluster returns
// plan bytes identical to a cold single-node solve — and every node
// returns the same bytes, whether it owns the key, forwards to the
// owner, or peer-fills.
func TestFPVAPlanClusterMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node solve in -short mode")
	}
	sp := &switchsynth.Spec{
		Name:     "fpva-cluster",
		Topology: spec.TopologyFPVA,
		GridRows: 3,
		GridCols: 3,
		Modules:  []string{"in1", "in2", "out1", "out2", "out3"},
		Flows: []spec.Flow{
			{From: "in1", To: "out1"},
			{From: "in2", To: "out2"},
			{From: "in1", To: "out3"},
		},
		Conflicts: [][2]int{{0, 1}},
		Binding:   spec.Unfixed,
	}
	opts := service.RequestOptions{TimeLimitMS: (10 * time.Second).Milliseconds()}
	solve := func(url string) []byte {
		t.Helper()
		cl, err := client.New(client.Config{BaseURL: url})
		if err != nil {
			t.Fatalf("client.New: %v", err)
		}
		resp, err := cl.Synthesize(context.Background(), sp, opts)
		if err != nil {
			t.Fatalf("synthesize via %s: %v", url, err)
		}
		if !resp.Proven {
			t.Fatalf("FPVA solve via %s returned an unproven plan", url)
		}
		plan, err := planio.Decode(resp.Plan)
		if err != nil {
			t.Fatalf("decode plan from %s: %v", url, err)
		}
		if err := contam.Verify(plan); err != nil {
			t.Fatalf("plan from %s fails verification: %v", url, err)
		}
		if !plan.Spec.IsFPVA() {
			t.Fatalf("plan from %s lost the FPVA topology", url)
		}
		return resp.Plan
	}

	single := bootNodes(t, 1, false)
	want := solve(single[0].url)

	three := bootNodes(t, 3, true)
	for _, n := range three {
		if got := solve(n.url); !bytes.Equal(got, want) {
			t.Errorf("cluster plan from %s differs from cold single-node solve:\n--- single\n%s\n--- %s\n%s",
				n.id, want, n.id, got)
		}
	}
	// Sanity: only the owner serves the key locally, so querying all
	// three nodes must have exercised the forwarding path.
	forwards := int64(0)
	for _, n := range three {
		forwards += n.cl.Status().Forwards
	}
	if forwards == 0 {
		t.Error("FPVA solve forwarded nothing; sharding untested")
	}
}
