// Plan-stream client tests: the persistent fetch channel must be
// invisible except in speed — identical bytes, identical verification,
// a refused upgrade reported as a fill error, and a hangup when the
// serving engine retires.
package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth"
)

// TestPlanStreamServesFetches: two real nodes; the second's fetches ride
// one upgraded connection and return the owner's exact frame bytes.
func TestPlanStreamServesFetches(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), nodes[0].id)
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	want, ok := nodes[0].eng.PlanBytes(key)
	if !ok {
		t.Fatal("owner holds no plan bytes")
	}

	reader := nodes[1].cl
	for i := 0; i < 3; i++ {
		got, err := reader.FetchPlan(context.Background(), key)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fetch %d returned different bytes than the owner holds", i)
		}
	}
	st := reader.Status()
	if st.StreamFetches != 3 {
		t.Errorf("streamFetches = %d, want 3", st.StreamFetches)
	}
	if st.StreamDials != 1 {
		t.Errorf("streamDials = %d, want 1 (connection must be reused)", st.StreamDials)
	}
	if st.FillHits != 3 {
		t.Errorf("fillHits = %d, want 3 (stream fetches count as fills)", st.FillHits)
	}

	// A missing key is a clean miss over the same connection.
	data, err := reader.FetchPlan(context.Background(), key+"-missing")
	if err != nil || data != nil {
		t.Fatalf("missing key fetch = (%v, %v), want (nil, nil)", data, err)
	}
	if st := reader.Status(); st.StreamDials != 1 {
		t.Errorf("streamDials after miss = %d, want still 1", st.StreamDials)
	}
}

// TestPlanStreamRefusalIsFillError: the plan stream is the only fetch
// transport, so a peer that answers the upgrade with anything but 101
// fails the fill — named by peer and key, counted, never retried as a
// plain GET — and the next fetch dials again rather than pinning the
// peer to any other path.
func TestPlanStreamRefusalIsFillError(t *testing.T) {
	var gets atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/plans/", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		_, _ = w.Write([]byte(`{"not":"a real plan"}`))
	})
	stub := httptest.NewServer(mux) // 404s /plans.stream
	t.Cleanup(stub.Close)

	cl, err := New(Config{
		SelfID: "b",
		Peers:  []Node{{ID: "a", URL: stub.URL}, {ID: "b", URL: "http://127.0.0.1:1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	key := keyOwnedBy(t, cl.Ring(), "a")

	for i := 1; i <= 2; i++ {
		data, err := cl.FetchPlan(context.Background(), key)
		if err == nil || data != nil {
			t.Fatalf("fetch %d = (%q, %v), want a fill error", i, data, err)
		}
		if !strings.Contains(err.Error(), "peer a") || !strings.Contains(err.Error(), key) {
			t.Errorf("fetch %d error %q does not name the peer and the key", i, err)
		}
		st := cl.Status()
		if st.FillErrors != int64(i) {
			t.Errorf("after fetch %d: fillErrors = %d, want %d", i, st.FillErrors, i)
		}
		if st.StreamDials != int64(i) {
			t.Errorf("after fetch %d: streamDials = %d, want %d (a refusal must not pin the peer)", i, st.StreamDials, i)
		}
	}
	if n := gets.Load(); n != 0 {
		t.Errorf("stub received %d GET /plans/{key}, want 0", n)
	}
}

// TestPlanStreamConcurrentFetches: parallel fetches through one cluster
// never corrupt or cross frames — each rides the pooled stream or dials
// its own, and every byte comes back intact.
func TestPlanStreamConcurrentFetches(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), nodes[0].id)
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _ := nodes[0].eng.PlanBytes(key)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := nodes[1].cl.FetchPlan(context.Background(), key)
				if err != nil {
					t.Errorf("concurrent fetch: %v", err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Error("concurrent fetch returned different bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanStreamHangsUpOnEngineClose: a retired engine must stop
// serving its streams — the chaos tests model node death as server
// close plus engine close, and a surviving hijacked connection would
// keep a corpse answering.
func TestPlanStreamHangsUpOnEngineClose(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), nodes[0].id)
	if _, err := nodes[0].eng.Do(context.Background(), sp, switchsynth.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].cl.FetchPlan(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if st := nodes[1].cl.Status(); st.StreamFetches != 1 {
		t.Fatalf("streamFetches = %d, want 1", st.StreamFetches)
	}

	// Kill the owner: server and engine. The pooled stream must die
	// with it — the next fetch fails over instead of being served by
	// the corpse's hijacked connection.
	nodes[0].srv.Close()
	nodes[0].eng.CloseNow()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	data, err := nodes[1].cl.FetchPlan(ctx, key)
	if err == nil && data != nil {
		t.Fatal("fetch succeeded against a closed engine; its stream must hang up")
	}
}
