// Write-time replication and successor failover: every proven plan
// must end up on R = 2 nodes, and reads must walk the replica set
// instead of giving up at a dead owner.
package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/url"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/service"
)

func TestWriteTimeReplicationPushesToSuccessor(t *testing.T) {
	nodes := startReplNodes(t, 3, func(i int, ccfg *Config, scfg *service.Config) {
		ccfg.ProbeInterval = time.Hour // one boot round only
	})
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
	rank := nodes[0].cl.Ring().Rank(key)
	owner := nodeByID(t, nodes, rank[0].ID)
	succ := nodeByID(t, nodes, rank[1].ID)
	third := nodeByID(t, nodes, rank[2].ID)

	// A fresh solve on the owner pushes the plan to its successor.
	if _, err := owner.eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	settleRepl(t, nodes)

	a, okA := owner.eng.PlanBytes(key)
	b, okB := succ.eng.PlanBytes(key)
	if !okA || !okB {
		t.Fatalf("plan present: owner=%v successor=%v, want both", okA, okB)
	}
	if !bytes.Equal(a, b) {
		t.Error("replicated plan bytes differ from the owner's")
	}
	// The successor verified and imported; it never solved.
	if snap := succ.eng.Snapshot(); snap.PeerImported != 1 || snap.SolveCount != 0 {
		t.Errorf("successor peerImported=%d solveCount=%d, want 1/0", snap.PeerImported, snap.SolveCount)
	}
	if st := owner.cl.Status(); st.ReplPushes != 1 || st.ReplErrors != 0 {
		t.Errorf("owner replPushes=%d replErrors=%d, want 1/0", st.ReplPushes, st.ReplErrors)
	}
	// Replication is bounded: the node outside the replica set got nothing.
	if _, ok := third.eng.PlanBytes(key); ok {
		t.Error("plan replicated past the replica set")
	}

	// Re-serving from cache must not push again (only fresh solves do).
	if _, err := owner.eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	settleRepl(t, nodes)
	if st := owner.cl.Status(); st.ReplPushes != 1 {
		t.Errorf("cache hit re-pushed: replPushes = %d, want 1", st.ReplPushes)
	}
}

// TestReplicationDisabledAtROne checks the clamp of R to the cluster
// size: a single-node cluster has R = 1 and keeps single-owner
// behaviour, storing its plans locally and pushing nothing.
func TestReplicationDisabledAtROne(t *testing.T) {
	nodes := startReplNodes(t, 1, func(i int, ccfg *Config, scfg *service.Config) {
		ccfg.ProbeInterval = time.Hour
	})
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	settleRepl(t, nodes)
	if _, ok := nodes[0].eng.PlanBytes(key); !ok {
		t.Error("plan not held locally")
	}
	if st := nodes[0].cl.Status(); st.Replication != 1 || st.ReplPushes != 0 {
		t.Errorf("replication=%d replPushes=%d, want 1/0 on a single-node cluster", st.Replication, st.ReplPushes)
	}
}

func TestFetchPlanFailsOverToSuccessor(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
	rank := nodes[0].cl.Ring().Rank(key)
	owner := nodeByID(t, nodes, rank[0].ID)
	succ := nodeByID(t, nodes, rank[1].ID)
	third := nodeByID(t, nodes, rank[2].ID)

	// The successor holds the plan (it solved after a clean fill miss);
	// then the owner dies while membership still believes it is up.
	if _, err := succ.eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	owner.srv.Close()

	// The read fails over: owner errors in transit, successor serves.
	resp, err := third.eng.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.PeerHit {
		t.Fatal("failover read did not serve from the successor's replica")
	}
	st := third.cl.Status()
	if st.FillErrors != 1 || st.FillHits != 1 || st.FillFailovers != 1 {
		t.Errorf("fillErrors=%d fillHits=%d fillFailovers=%d, want 1/1/1",
			st.FillErrors, st.FillHits, st.FillFailovers)
	}
	if snap := third.eng.Snapshot(); snap.SolveCount != 0 {
		t.Errorf("solveCount = %d, want 0 — failover must beat re-solving", snap.SolveCount)
	}
	a, _ := succ.eng.PlanBytes(key)
	b, ok := third.eng.PlanBytes(key)
	if !ok || !bytes.Equal(a, b) {
		t.Errorf("failover-read plan present=%v identical=%v, want true/true", ok, bytes.Equal(a, b))
	}
}

func TestCorruptReplicaPushNeverStoredOrServed(t *testing.T) {
	var inj *faultinject.Injector
	nodes := startReplNodes(t, 2, func(i int, ccfg *Config, scfg *service.Config) {
		ccfg.ProbeInterval = time.Hour
		if i == 0 {
			inj = faultinject.New(13).Set(faultinject.ReplCorrupt, faultinject.Rule{Probability: 1})
			ccfg.FaultInjector = inj
		}
	})
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")

	// Every push from n0 is corrupted in flight; the receiver's
	// verify-on-receipt must reject it (invariant 2).
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	settleRepl(t, nodes)

	if inj.Fired(faultinject.ReplCorrupt) == 0 {
		t.Fatal("fault never fired; test exercised nothing")
	}
	if _, ok := nodes[1].eng.PlanBytes(key); ok {
		t.Fatal("corrupted push reached the replica's store")
	}
	if snap := nodes[1].eng.Snapshot(); snap.PeerRejected == 0 {
		t.Error("peerRejected = 0, want the rejected push counted")
	}
	st := nodes[0].cl.Status()
	if st.ReplErrors == 0 || st.ReplPushes != 0 {
		t.Errorf("replErrors=%d replPushes=%d, want the 422 counted as an error, not a push", st.ReplErrors, st.ReplPushes)
	}

	// And the replica never serves it either.
	resp, err := http.Get(nodes[1].url + "/plans/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /plans/{key} on the replica = %d, want 404", resp.StatusCode)
	}
}
