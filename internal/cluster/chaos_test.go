// Cluster chaos: asymmetric partitions and node crashes, driven
// through the fault injector's directed link cuts and real server
// kills. The property under test is convergence — after the fault
// heals, every plan is present and byte-identical on every member of
// its replica set — plus invariant 1 throughout (no request fails).
package cluster

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/faultinject"
	"switchsynth/internal/service"
)

// replicaSet resolves key's first-R rank members to test nodes.
func replicaSet(t *testing.T, nodes []*testNode, key string) []*testNode {
	t.Helper()
	cl := nodes[0].cl
	rank := cl.Ring().Rank(key)
	set := make([]*testNode, 0, cl.replicas)
	for _, n := range rank[:cl.replicas] {
		set = append(set, nodeByID(t, nodes, n.ID))
	}
	return set
}

// assertConverged checks every solved key is byte-identical on every
// member of its replica set.
func assertConverged(t *testing.T, nodes []*testNode, keys []string) {
	t.Helper()
	for _, key := range keys {
		var want []byte
		for _, member := range replicaSet(t, nodes, key) {
			got, ok := member.eng.PlanBytes(key)
			if !ok {
				t.Errorf("key %s missing on replica %s", key, member.id)
				continue
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Errorf("key %s differs across its replica set", key)
			}
		}
	}
}

func TestChaosPartitionHealAntiEntropyConverges(t *testing.T) {
	injs := make([]*faultinject.Injector, 3)
	nodes := startReplNodes(t, 3, func(i int, ccfg *Config, scfg *service.Config) {
		injs[i] = faultinject.New(int64(29 + i))
		ccfg.FaultInjector = injs[i]
		ccfg.ProbeInterval = time.Hour
		// Keep membership optimistic through the partition: this test is
		// about anti-entropy convergence, not failure detection, and a
		// peer marked down would (correctly) be skipped by syncOnce.
		ccfg.DownAfter = 100
	})

	// Asymmetric partition: n0 and n2 cannot reach each other, and n1
	// cannot push toward n0 (but n0 can still reach n1).
	injs[0].CutLink("n0", "n2")
	injs[2].CutLink("n2", "n0")
	injs[1].CutLink("n1", "n0")

	// Solves land on every node during the partition; invariant 1 says
	// each succeeds locally no matter which links are dark.
	keys := make([]string, 6)
	for i := range keys {
		sp := clusterSpecVariant(i)
		key, err := service.JobKey(sp)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		if _, err := nodes[i%3].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
			t.Fatalf("solve %d during partition: %v", i, err)
		}
	}
	settleRepl(t, nodes)
	fired := injs[0].Fired(faultinject.PeerPartition) +
		injs[1].Fired(faultinject.PeerPartition) +
		injs[2].Fired(faultinject.PeerPartition)
	if fired == 0 {
		t.Fatal("partition fault never fired; test exercised nothing")
	}

	// Heal and run one anti-entropy round per node: every replica set
	// must converge to identical bytes.
	for _, inj := range injs {
		inj.HealAllLinks()
	}
	for _, n := range nodes {
		n.cl.syncOnce(context.Background())
	}
	assertConverged(t, nodes, keys)
}

// listenOn rebinds addr, retrying briefly while the old socket drains.
func listenOn(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosKillRestartRejoinConverges(t *testing.T) {
	mut := func(i int, ccfg *Config, scfg *service.Config) {
		ccfg.ProbeInterval = time.Hour
	}
	nodes := startReplNodes(t, 2, mut)
	peers := []Node{
		{ID: nodes[0].id, URL: nodes[0].url},
		{ID: nodes[1].id, URL: nodes[1].url},
	}

	// Warm phase: both nodes solve; replication fills both (2-node R=2
	// puts every key on both nodes).
	keys := make([]string, 5)
	for i := 0; i < 4; i++ {
		sp := clusterSpecVariant(i)
		key, err := service.JobKey(sp)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		if _, err := nodes[i%2].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	settleRepl(t, nodes)

	// Kill n1: server, workers and engine all die.
	addr := nodes[1].srv.Listener.Addr().String()
	nodes[1].srv.Close()
	nodes[1].cl.Stop()
	nodes[1].eng.CloseNow()

	// The survivor keeps serving fresh solves; its push to the corpse
	// fails and is counted, not retried inline.
	sp := clusterSpecVariant(4)
	key4, err := service.JobKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	keys[4] = key4
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatalf("solve during the outage: %v", err)
	}
	settleRepl(t, nodes[:1])
	if st := nodes[0].cl.Status(); st.ReplPushes+st.ReplErrors == 0 {
		t.Error("outage push neither delivered nor counted as an error")
	}

	// Restart n1 empty on its old address; one anti-entropy round
	// recovers every plan in its replica sets.
	restarted := bootNode(t, peers, listenOn(t, addr), 1, true, mut)
	if got := len(restarted.eng.PlanKeys()); got != 0 {
		t.Fatalf("restarted node booted with %d plans, want empty", got)
	}
	pulled := restarted.cl.syncOnce(context.Background())
	if pulled != len(keys) {
		t.Errorf("rejoin syncOnce pulled %d plans, want %d", pulled, len(keys))
	}
	for _, key := range keys {
		a, _ := nodes[0].eng.PlanBytes(key)
		b, ok := restarted.eng.PlanBytes(key)
		if !ok || !bytes.Equal(a, b) {
			t.Errorf("key %s after rejoin: present=%v identical=%v, want true/true", key, ok, bytes.Equal(a, b))
		}
	}
	if snap := restarted.eng.Snapshot(); snap.SolveCount != 0 {
		t.Errorf("rejoined node solveCount = %d, want 0 — recovery must not re-solve", snap.SolveCount)
	}
}
