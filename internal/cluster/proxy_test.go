package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"switchsynth/internal/service"
	"switchsynth/internal/spec"
)

// postSynthesize sends one /synthesize request to url and returns the
// status, the answering node (X-Synthd-Node) and the decoded body.
func postSynthesize(t *testing.T, url string, req service.SynthesizeRequest, hop string) (int, string, service.SynthesizeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url+"/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if hop != "" {
		httpReq.Header.Set(HopHeader, hop)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out service.SynthesizeResponse
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode response: %v (body %q)", err, raw)
		}
	}
	return resp.StatusCode, resp.Header.Get(NodeHeader), out
}

func TestProxyForwardsToOwner(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n2")

	status, node, out := postSynthesize(t, nodes[0].url, service.SynthesizeRequest{Spec: sp}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if node != "n2" {
		t.Errorf("X-Synthd-Node = %q, want owner n2", node)
	}
	if out.Key != key {
		t.Errorf("response key %q, want %q", out.Key, key)
	}
	if got := nodes[0].cl.Status(); got.Forwards != 1 || got.LocalServes != 0 {
		t.Errorf("entry node forwards=%d localServes=%d, want 1/0", got.Forwards, got.LocalServes)
	}
	// The solve must have happened on the owner, nowhere else.
	if snap := nodes[2].eng.Snapshot(); snap.JobsSubmitted != 1 {
		t.Errorf("owner jobsSubmitted = %d, want 1", snap.JobsSubmitted)
	}
	if snap := nodes[0].eng.Snapshot(); snap.JobsSubmitted != 0 {
		t.Errorf("entry-node jobsSubmitted = %d, want 0", snap.JobsSubmitted)
	}

	// The same request to the owner itself is served locally.
	status, node, _ = postSynthesize(t, nodes[2].url, service.SynthesizeRequest{Spec: sp}, "")
	if status != http.StatusOK || node != "n2" {
		t.Errorf("owner-direct: status=%d node=%q, want 200/n2", status, node)
	}
	if got := nodes[2].cl.Status(); got.LocalServes != 2 {
		t.Errorf("owner localServes = %d, want 2 (forwarded + direct)", got.LocalServes)
	}
}

func TestProxyFallsBackWhenOwnerDown(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n1")
	nodes[1].srv.Close() // owner dies

	status, node, out := postSynthesize(t, nodes[0].url, service.SynthesizeRequest{Spec: sp}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 — a dead owner must not fail the request", status)
	}
	if node != "n0" {
		t.Errorf("X-Synthd-Node = %q, want local fallback n0", node)
	}
	if out.Key != key {
		t.Errorf("response key %q, want %q", out.Key, key)
	}
	st := nodes[0].cl.Status()
	if st.ForwardFallbacks != 1 || st.LocalServes != 1 {
		t.Errorf("fallbacks=%d localServes=%d, want 1/1", st.ForwardFallbacks, st.LocalServes)
	}
}

func TestProxyFallsBackWhenOwnerSheds(t *testing.T) {
	// The owner is up but draining: /synthesize answers 503, which the
	// proxy treats as shed load, not a request verdict.
	nodes := startNodes(t, 2, nil)
	sp, _ := specOwnedBy(t, nodes[0].cl.Ring(), "n1")
	nodes[1].eng.Close() // closed engine → 503 unavailable

	status, node, _ := postSynthesize(t, nodes[0].url, service.SynthesizeRequest{Spec: sp}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 via local fallback", status)
	}
	if node != "n0" {
		t.Errorf("X-Synthd-Node = %q, want n0", node)
	}
	if st := nodes[0].cl.Status(); st.ForwardFallbacks != 1 {
		t.Errorf("forwardFallbacks = %d, want 1", st.ForwardFallbacks)
	}
}

// TestProxyRelaysOwnerSolveTimeout: a 504 is a solve that spent its
// whole time limit on the owner, a verdict that the successor or the
// entry node would repeat at the same cost. The entry node, ranked
// third, relays it: it tries no other replica and solves nothing.
func TestProxyRelaysOwnerSolveTimeout(t *testing.T) {
	ids := []Node{{ID: "n0"}, {ID: "n1"}, {ID: "n2"}}
	ring := NewRing(ids)
	var sp *spec.Spec
	var rank []Node
	for i := 0; i < 20 && sp == nil; i++ {
		key, err := service.JobKey(clusterSpecVariant(i))
		if err != nil {
			t.Fatal(err)
		}
		if rank = ring.Rank(key); rank[2].ID == "n0" {
			sp = clusterSpecVariant(i)
		}
	}
	if sp == nil {
		t.Fatal("no spec variant ranks n0 third")
	}
	var ownerCalls, succCalls atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ownerCalls.Add(1)
		w.Header().Set(NodeHeader, rank[0].ID)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "solve timed out", "kind": service.KindTimeout})
	}))
	t.Cleanup(owner.Close)
	succ := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		succCalls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(succ.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urls := map[string]string{"n0": "http://" + l.Addr().String(), rank[0].ID: owner.URL, rank[1].ID: succ.URL}
	peers := make([]Node, len(ids))
	for i, n := range ids {
		peers[i] = Node{ID: n.ID, URL: urls[n.ID]}
	}
	entry := bootNode(t, peers, l, 0, false, nil)

	status, node, _ := postSynthesize(t, entry.url, service.SynthesizeRequest{Spec: sp}, "")
	if status != http.StatusGatewayTimeout || node != rank[0].ID {
		t.Errorf("status %d from node %q, want the owner %s's 504 relayed", status, node, rank[0].ID)
	}
	if n := ownerCalls.Load(); n != 1 {
		t.Errorf("owner saw %d forwards, want 1", n)
	}
	if n := succCalls.Load(); n != 0 {
		t.Errorf("successor saw %d forwards, want 0: a timeout is not retried elsewhere", n)
	}
	if n := entry.eng.Snapshot().SolveCount; n != 0 {
		t.Errorf("entry solveCount = %d, want 0: a timeout is not re-solved locally", n)
	}
	if st := entry.cl.Status(); st.Forwards != 1 || st.ForwardFallbacks != 0 || st.LocalServes != 0 {
		t.Errorf("forwards=%d fallbacks=%d localServes=%d, want 1/0/0", st.Forwards, st.ForwardFallbacks, st.LocalServes)
	}
}

func TestProxyFailsOverToSuccessor(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	sp, key := specOwnedBy(t, nodes[0].cl.Ring(), "n0")
	rank := nodes[0].cl.Ring().Rank(key)
	owner := nodeByID(t, nodes, rank[0].ID)
	succ := nodeByID(t, nodes, rank[1].ID)
	third := nodeByID(t, nodes, rank[2].ID)
	owner.srv.Close() // owner dies; membership still optimistically up

	// The entry node tries the owner, fails in transit, and fails over
	// to the successor instead of solving locally.
	status, node, out := postSynthesize(t, third.url, service.SynthesizeRequest{Spec: sp}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if node != succ.id {
		t.Errorf("X-Synthd-Node = %q, want successor %s", node, succ.id)
	}
	if out.Key != key {
		t.Errorf("response key %q, want %q", out.Key, key)
	}
	st := third.cl.Status()
	if st.Forwards != 1 || st.ForwardFailovers != 1 || st.LocalServes != 0 {
		t.Errorf("forwards=%d failovers=%d localServes=%d, want 1/1/0",
			st.Forwards, st.ForwardFailovers, st.LocalServes)
	}
	// The successor solved it; the entry node did not.
	if snap := succ.eng.Snapshot(); snap.JobsSubmitted != 1 {
		t.Errorf("successor jobsSubmitted = %d, want 1", snap.JobsSubmitted)
	}
	if snap := third.eng.Snapshot(); snap.JobsSubmitted != 0 {
		t.Errorf("entry-node jobsSubmitted = %d, want 0", snap.JobsSubmitted)
	}
}

func TestProxyHopLimit(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, _ := specOwnedBy(t, nodes[0].cl.Ring(), "n1")

	// A request already at the hop limit is served locally even though
	// the peer owns the key — this is what terminates routing loops.
	status, node, _ := postSynthesize(t, nodes[0].url, service.SynthesizeRequest{Spec: sp}, "2")
	if status != http.StatusOK || node != "n0" {
		t.Errorf("at hop limit: status=%d node=%q, want 200 served by n0", status, node)
	}
	if st := nodes[0].cl.Status(); st.Forwards != 0 {
		t.Errorf("forwards = %d, want 0 at the hop limit", st.Forwards)
	}
}

func TestProxyBadBodyHandledLocally(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	resp, err := http.Post(nodes[0].url+"/synthesize", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400 from the local handler", resp.StatusCode)
	}
	if got := resp.Header.Get(NodeHeader); got != "n0" {
		t.Errorf("X-Synthd-Node = %q, want n0", got)
	}
}

// TestProxyRefusesInvalidBodyWhereItLands: a body the handler refuses
// (here an unknown field, which a lenient decode would have keyed and
// forwarded) is answered 400 by the node it lands on, never forwarded to
// the key's owner.
func TestProxyRefusesInvalidBodyWhereItLands(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	sp, _ := specOwnedBy(t, nodes[0].cl.Ring(), "n1")
	body, err := json.Marshal(map[string]any{"spec": sp, "bogus": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nodes[0].url+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(NodeHeader); got != "n0" {
		t.Errorf("X-Synthd-Node = %q, want n0: the landing node refuses it", got)
	}
	if st := nodes[0].cl.Status(); st.Forwards != 0 {
		t.Errorf("forwards = %d, want 0", st.Forwards)
	}
	if snap := nodes[1].eng.Snapshot(); snap.JobsSubmitted != 0 {
		t.Errorf("owner jobsSubmitted = %d, want 0", snap.JobsSubmitted)
	}
}

// TestClusterStatusEndpoint: the cluster's one report is the "cluster"
// block of /metrics — ring, damped peer health and counters — and no
// other path serves it.
func TestClusterStatusEndpoint(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	mresp, err := http.Get(nodes[1].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		PeerFillEnabled bool `json:"peerFillEnabled"`
		Cluster         *Status
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if !metrics.PeerFillEnabled {
		t.Error("peerFillEnabled = false, want true with a cluster fill hook")
	}
	st := metrics.Cluster
	if st == nil {
		t.Fatal("/metrics has no cluster block")
	}
	if st.Self != "n1" || st.Hash != HashScheme || len(st.Peers) != 3 {
		t.Errorf("status = self %q hash %q peers %d, want n1/%s/3", st.Self, st.Hash, len(st.Peers), HashScheme)
	}
	for _, p := range st.Peers {
		if !p.Up {
			t.Errorf("peer %s down at boot; membership must start optimistic", p.ID)
		}
		if p.Self != (p.ID == "n1") {
			t.Errorf("peer %s self flag = %v", p.ID, p.Self)
		}
	}

	resp, err := http.Get(nodes[1].url + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /cluster = %d, want 404: /metrics is the one report", resp.StatusCode)
	}
}

// TestProxyRelaysSlowOwnerAnswer: a plain forward is bounded by the
// caller's request context, not by a proxy timeout, so an owner whose
// solve runs past 10 s still answers through the proxy. The forwarder
// neither falls back to a duplicate local solve nor counts the slow
// owner as down.
func TestProxyRelaysSlowOwnerAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("the owner answers after 10.5 s")
	}
	const ownerDelay = 10*time.Second + 500*time.Millisecond
	answer := []byte(`{"key":"from-the-owner"}`)
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(ownerDelay):
		case <-r.Context().Done():
			return
		}
		w.Header().Set(NodeHeader, "n1")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(answer)
	}))
	t.Cleanup(owner.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []Node{{ID: "n0", URL: "http://" + l.Addr().String()}, {ID: "n1", URL: owner.URL}}
	entry := bootNode(t, peers, l, 0, false, nil)
	sp, _ := specOwnedBy(t, entry.cl.Ring(), "n1")
	body, err := json.Marshal(service.SynthesizeRequest{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(entry.url+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(NodeHeader) != "n1" || !bytes.Equal(got, answer) {
		t.Errorf("status %d node %q body %q, want the owner's 200 %q relayed",
			resp.StatusCode, resp.Header.Get(NodeHeader), got, answer)
	}
	st := entry.cl.Status()
	if st.Forwards != 1 || st.ForwardFallbacks != 0 {
		t.Errorf("forwards=%d forwardFallbacks=%d, want 1/0", st.Forwards, st.ForwardFallbacks)
	}
	if n := entry.eng.Snapshot().SolveCount; n != 0 {
		t.Errorf("entry solveCount = %d, want 0: the owner solves it", n)
	}
	for _, p := range st.Peers {
		if p.ID == "n1" && (!p.Up || p.Streak != 0 || p.LastErr != "") {
			t.Errorf("owner membership up=%v streak=%d lastErr=%q, want up with no failed observation",
				p.Up, p.Streak, p.LastErr)
		}
	}
}

// TestProxyCallerGoneIsNoEvidence: a forward that ends because the
// caller gave up says nothing about the owner. Three POSTs with a 100 ms
// client timeout are forwarded to an owner that answers in 2 s: the
// owner stays up with no flap, no forward falls back, and the entry node
// solves nothing for callers that have already left.
func TestProxyCallerGoneIsNoEvidence(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		w.Header().Set(NodeHeader, "n1")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"key":"from-the-owner"}`))
	}))
	t.Cleanup(owner.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []Node{{ID: "n0", URL: "http://" + l.Addr().String()}, {ID: "n1", URL: owner.URL}}
	entry := bootNode(t, peers, l, 0, false, nil)
	sp, _ := specOwnedBy(t, entry.cl.Ring(), "n1")
	body, err := json.Marshal(service.SynthesizeRequest{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 100 * time.Millisecond}
	for range 3 {
		resp, err := client.Post(entry.url+"/synthesize", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			t.Errorf("status %d from node %q: the request should have waited for the owner past the client's timeout",
				resp.StatusCode, resp.Header.Get(NodeHeader))
		}
	}
	// Close waits for the entry's handlers, which end once they notice
	// that their callers hung up.
	entry.srv.Close()
	st := entry.cl.Status()
	if st.ForwardFallbacks != 0 {
		t.Errorf("forwardFallbacks = %d, want 0", st.ForwardFallbacks)
	}
	if n := entry.eng.Snapshot().SolveCount; n != 0 {
		t.Errorf("entry solveCount = %d, want 0: nobody is waiting for that solve", n)
	}
	for _, p := range st.Peers {
		if p.ID == "n1" && (!p.Up || p.Flaps != 0) {
			t.Errorf("owner up=%v flaps=%d lastErr=%q, want up with no flap", p.Up, p.Flaps, p.LastErr)
		}
	}
}
