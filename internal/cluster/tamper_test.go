// One table for every door plan bytes can enter a node through: the
// durable store read, the peer fill, the PUT /plans/{key} push, the
// anti-entropy import and read-repair. Each door is driven with a
// one-byte-flipped frame, with a valid frame filed under the wrong key,
// with a well-formed frame whose set labels leave a gap, with the right
// plan in the JSON file format, and with the right plan whose spec
// carries a requester's name or a permuted module list; every door must
// refuse all six through the engine's single admission check, and the
// receiving node must hold nothing under the key afterwards.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"testing"
	"time"

	"switchsynth"
	"switchsynth/internal/admission"
	"switchsynth/internal/planio"
	"switchsynth/internal/service"
	"switchsynth/internal/spec"
	"switchsynth/internal/store"
)

// tamperedPlans derives the two kinds of bad bytes from plans a donor
// engine solved (and caches, so repeats are memory hits).
type tamperedPlans struct {
	donor *service.Engine
}

func (tp *tamperedPlans) plan(t *testing.T, sp *spec.Spec) (string, []byte) {
	t.Helper()
	resp, err := tp.donor.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, ok := tp.donor.PlanBytes(resp.Key)
	if !ok {
		t.Fatal("donor holds no plan bytes")
	}
	return resp.Key, data
}

// flipped is sp's valid frame with one byte flipped mid-payload.
func (tp *tamperedPlans) flipped(t *testing.T, sp *spec.Spec, key string) []byte {
	_, good := tp.plan(t, sp)
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	return bad
}

// misfiled is a valid, proven frame of a different spec than key's.
func (tp *tamperedPlans) misfiled(t *testing.T, sp *spec.Spec, key string) []byte {
	for i := 0; i < 4; i++ {
		if k, data := tp.plan(t, clusterSpecVariant(i)); k != key {
			return data
		}
	}
	t.Fatal("no variant with a different key")
	return nil
}

// gapped is sp's valid frame, re-encoded with the flows of its last set
// moved to label NumSets: the set count still matches, but a label
// indexes past it.
func (tp *tamperedPlans) gapped(t *testing.T, sp *spec.Spec, key string) []byte {
	_, good := tp.plan(t, sp)
	res, err := planio.DecodeAny(good)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Routes {
		if res.Routes[i].Set == res.NumSets-1 {
			res.Routes[i].Set = res.NumSets
		}
	}
	bad, err := planio.EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// respelled is sp's valid frame re-encoded with its spec changed by
// edit: a spelling of the same key that is not its canonical form.
func (tp *tamperedPlans) respelled(edit func(*spec.Spec)) func(t *testing.T, sp *spec.Spec, key string) []byte {
	return func(t *testing.T, sp *spec.Spec, key string) []byte {
		_, good := tp.plan(t, sp)
		res, err := planio.DecodeBinary(good)
		if err != nil {
			t.Fatal(err)
		}
		edit(res.Spec)
		if k, err := service.JobKey(res.Spec); err != nil || k != key {
			t.Fatalf("respelled spec keys to %q (%v), want %q", k, err, key)
		}
		bad, err := planio.EncodeBinary(res)
		if err != nil {
			t.Fatal(err)
		}
		return bad
	}
}

// asJSON is sp's valid plan in the JSON file format. JSON carries no
// checksum, so the doors, which promise a CRC32C check, take binary
// frames only.
func (tp *tamperedPlans) asJSON(t *testing.T, sp *spec.Spec, key string) []byte {
	_, good := tp.plan(t, sp)
	data, err := planio.ToJSON(good)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withStores gives every node a durable tier, recorded in stores by
// node ID.
func withStores(t *testing.T, stores map[string]*store.Store) func(int, *Config, *service.Config) {
	return func(i int, ccfg *Config, scfg *service.Config) {
		ccfg.ProbeInterval = time.Hour
		st, err := store.Open(t.TempDir(), store.Options{FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		scfg.Store = st
		stores[fmt.Sprintf("n%d", i)] = st
	}
}

// drainedDo asks a draining engine for sp: every tier and door is tried,
// but nothing is solved, so whatever it holds afterwards came through a
// door.
func drainedDo(t *testing.T, n *testNode, sp *spec.Spec) {
	t.Helper()
	n.eng.StartDrain()
	resp, err := n.eng.Do(context.Background(), sp, switchsynth.Options{})
	if !errors.Is(err, &admission.ErrDraining{}) {
		t.Fatalf("drained Do = %+v, %v; want the drain rejection (nothing served)", resp, err)
	}
}

func assertRejected(t *testing.T, err error, key string) {
	t.Helper()
	var rej *service.ErrPlanRejected
	if !errors.As(err, &rej) {
		t.Fatalf("rejection %v is not a *service.ErrPlanRejected", err)
	}
	if rej.Key != key {
		t.Errorf("rejected key = %q, want %q", rej.Key, key)
	}
}

func assertHoldsNothing(t *testing.T, n *testNode, key string) {
	t.Helper()
	if _, ok := n.eng.PlanBytes(key); ok {
		t.Errorf("%s holds tampered bytes under %s", n.id, key)
	}
	for _, k := range n.eng.PlanKeys() {
		if k == key {
			t.Errorf("%s lists %s in its manifest", n.id, key)
		}
	}
}

func putPlan(t *testing.T, n *testNode, key string, data []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, n.url+"/plans/"+url.PathEscape(key), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestTamperedPlanBytesRejectedAtEveryDoor(t *testing.T) {
	tp := &tamperedPlans{donor: service.New(service.Config{Workers: 2})}
	defer tp.donor.CloseNow()

	tampers := []struct {
		name string
		bad  func(t *testing.T, sp *spec.Spec, key string) []byte
	}{
		{"flipped-byte", tp.flipped},
		{"wrong-key", tp.misfiled},
		{"gapped-sets", tp.gapped},
		{"valid-json", tp.asJSON},
		{"named-spec", tp.respelled(func(sp *spec.Spec) { sp.Name = "tenant-a" })},
		{"permuted-modules", tp.respelled(func(sp *spec.Spec) { slices.Reverse(sp.Modules) })},
	}
	doors := []struct {
		name string
		run  func(t *testing.T, stores map[string]*store.Store, bad func(*testing.T, *spec.Spec, string) []byte)
	}{
		{"store-read", func(t *testing.T, stores map[string]*store.Store, bad func(*testing.T, *spec.Spec, string) []byte) {
			n := startNodes(t, 1, withStores(t, stores))[0]
			sp, key := specOwnedBy(t, n.cl.Ring(), "n0")
			if err := stores["n0"].Put(key, "search", bad(t, sp, key)); err != nil {
				t.Fatal(err)
			}
			drainedDo(t, n, sp)
			if got := n.eng.Snapshot().StoreHealed; got != 1 {
				t.Errorf("storeHealed = %d, want 1", got)
			}
			assertHoldsNothing(t, n, key)
		}},
		{"peer-fill", func(t *testing.T, stores map[string]*store.Store, bad func(*testing.T, *spec.Spec, string) []byte) {
			nodes := startNodes(t, 2, withStores(t, stores))
			sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
			if err := stores["n0"].Put(key, "search", bad(t, sp, key)); err != nil {
				t.Fatal(err)
			}
			drainedDo(t, nodes[1], sp)
			if st := nodes[1].cl.Status(); st.FillHits != 1 {
				t.Fatalf("fillHits = %d, want 1 (the bad bytes must reach the filler)", st.FillHits)
			}
			if got := nodes[1].eng.Snapshot().PeerRejected; got != 1 {
				t.Errorf("peerRejected = %d, want 1", got)
			}
			assertHoldsNothing(t, nodes[1], key)
		}},
		{"push", func(t *testing.T, stores map[string]*store.Store, bad func(*testing.T, *spec.Spec, string) []byte) {
			n := startNodes(t, 1, withStores(t, stores))[0]
			sp, key := specOwnedBy(t, n.cl.Ring(), "n0")
			if code := putPlan(t, n, key, bad(t, sp, key)); code != http.StatusUnprocessableEntity {
				t.Errorf("PUT /plans/{key} = %d, want 422", code)
			}
			if got := n.eng.Snapshot().PeerRejected; got != 1 {
				t.Errorf("peerRejected = %d, want 1", got)
			}
			assertHoldsNothing(t, n, key)
		}},
		{"anti-entropy", func(t *testing.T, stores map[string]*store.Store, bad func(*testing.T, *spec.Spec, string) []byte) {
			nodes := startNodes(t, 2, withStores(t, stores))
			sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n1")
			data := bad(t, sp, key)
			if err := stores["n0"].Put(key, "search", data); err != nil {
				t.Fatal(err)
			}
			if pulled := nodes[1].cl.syncOnce(context.Background()); pulled != 0 {
				t.Errorf("syncOnce imported %d tampered plans, want 0", pulled)
			}
			if st := nodes[1].cl.Status(); st.SyncErrors != 1 {
				t.Errorf("syncErrors = %d, want 1", st.SyncErrors)
			}
			// The same import callback the sync loop just used, called
			// directly for its typed verdict.
			assertRejected(t, nodes[1].cl.cfg.LocalImport(key, data), key)
			if got := nodes[1].eng.Snapshot().PeerRejected; got != 2 {
				t.Errorf("peerRejected = %d, want 2", got)
			}
			assertHoldsNothing(t, nodes[1], key)
		}},
		{"read-repair", func(t *testing.T, stores map[string]*store.Store, bad func(*testing.T, *spec.Spec, string) []byte) {
			nodes := startReplNodes(t, 3, withStores(t, stores))
			sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
			rank := nodes[0].cl.Ring().Rank(key)
			owner := nodeByID(t, nodes, rank[0].ID)
			succ := nodeByID(t, nodes, rank[1].ID)
			third := nodeByID(t, nodes, rank[2].ID)
			// The successor holds bad bytes, the owner nothing: a read
			// through the third node finds the owner lacking and pushes the
			// successor's bytes back to it.
			if err := stores[succ.id].Put(key, "search", bad(t, sp, key)); err != nil {
				t.Fatal(err)
			}
			if _, err := third.cl.FetchPlan(context.Background(), key); err != nil {
				t.Fatal(err)
			}
			settleRepl(t, nodes)
			st := third.cl.Status()
			if st.FillMisses != 1 || st.FillHits != 1 || st.RepairPushes != 0 || st.ReplErrors != 1 {
				t.Errorf("fillMisses=%d fillHits=%d repairPushes=%d replErrors=%d, want 1/1/0/1 (the repair refused with 422)",
					st.FillMisses, st.FillHits, st.RepairPushes, st.ReplErrors)
			}
			if got := owner.eng.Snapshot().PeerRejected; got != 1 {
				t.Errorf("owner peerRejected = %d, want 1", got)
			}
			assertHoldsNothing(t, owner, key)
		}},
	}
	for _, tc := range tampers {
		for _, d := range doors {
			t.Run(tc.name+"/"+d.name, func(t *testing.T) { d.run(t, map[string]*store.Store{}, tc.bad) })
		}
	}

}

// TestNonOptimalProvenPlanPassesTheDoor pins what the door does not
// check: optimality. A pushed plan that is contamination-free and marked
// Proven but spends one flow set more than the optimum is admitted and
// then served as proven; peers are trusted for optimality. An audit of
// admitted plans would turn this row into a refusal.
func TestNonOptimalProvenPlanPassesTheDoor(t *testing.T) {
	tp := &tamperedPlans{donor: service.New(service.Config{Workers: 2})}
	defer tp.donor.CloseNow()
	n := startNodes(t, 1, withStores(t, map[string]*store.Store{}))[0]
	sp, key := specOwnedBy(t, n.cl.Ring(), "n0")
	_, good := tp.plan(t, sp)
	res, err := planio.DecodeAny(good)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSets != 1 || len(res.Routes) < 2 {
		t.Fatalf("optimum has %d sets for %d flows, want one shared set", res.NumSets, len(res.Routes))
	}
	res.Routes[len(res.Routes)-1].Set = 1 // a set of its own: one set more
	res.NumSets = 2
	worse, err := planio.EncodeBinary(res)
	if err != nil {
		t.Fatal(err)
	}
	if code := putPlan(t, n, key, worse); code != http.StatusNoContent {
		t.Fatalf("PUT /plans/{key} = %d, want 204 (the door admits it)", code)
	}
	resp, err := n.eng.Do(context.Background(), sp, switchsynth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Synthesis.Result; !resp.CacheHit || !got.Proven || got.NumSets != 2 {
		t.Errorf("served cacheHit=%v proven=%v sets=%d, want the pushed 2-set plan served as proven",
			resp.CacheHit, got.Proven, got.NumSets)
	}
}
