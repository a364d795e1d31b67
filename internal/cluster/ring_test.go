package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers(" b=http://h2:1/ , a=http://h1:1 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{{ID: "a", URL: "http://h1:1"}, {ID: "b", URL: "http://h2:1"}}
	if !reflect.DeepEqual(nodes, want) {
		t.Errorf("ParsePeers = %+v, want %+v (ID-sorted, slash-trimmed)", nodes, want)
	}
	if nodes, err := ParsePeers(""); err != nil || nodes != nil {
		t.Errorf("empty list: got %v, %v; want nil, nil", nodes, err)
	}
	for _, bad := range []string{"a", "a=", "=http://h:1", "a=http://h:1,a=http://h:2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): expected error", bad)
		}
	}
}

func TestRingRankTotalAndDeterministic(t *testing.T) {
	r := NewRing([]Node{{ID: "c"}, {ID: "a"}, {ID: "b"}})
	owned := map[string]int{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("key-%d", i)
		rank := r.Rank(key)
		if len(rank) != 3 {
			t.Fatalf("Rank(%q) has %d entries, want 3", key, len(rank))
		}
		seen := map[string]bool{}
		for _, n := range rank {
			seen[n.ID] = true
		}
		if len(seen) != 3 {
			t.Fatalf("Rank(%q) = %v contains duplicates", key, rank)
		}
		if again := r.Rank(key); !reflect.DeepEqual(rank, again) {
			t.Fatalf("Rank(%q) not deterministic: %v vs %v", key, rank, again)
		}
		owned[rank[0].ID]++
	}
	// Rendezvous should spread ownership; with 60 keys over 3 nodes an
	// empty node means the hash is broken, not unlucky.
	for _, id := range []string{"a", "b", "c"} {
		if owned[id] == 0 {
			t.Errorf("node %s owns no keys out of 60: distribution %v", id, owned)
		}
	}
}

// TestRingMinimalDisruption checks the property rendezvous hashing is
// chosen for: removing one member moves only the keys it owned, each to
// its next-ranked node, and no other key changes owner.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]Node{{ID: "a"}, {ID: "b"}, {ID: "c"}})
	reduced := NewRing([]Node{{ID: "a"}, {ID: "b"}})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		rank := full.Rank(key)
		want := rank[0].ID
		if want == "c" {
			want = rank[1].ID // c's keys move to their second preference
		}
		if got := reduced.OwnerID(key); got != want {
			t.Errorf("key %q: owner moved %s → %s after removing c (rank %v)",
				key, want, got, rank)
		}
	}
}

// TestNewValidatesPeerURLs: the plan stream dials a peer's host raw, so
// New accepts exactly http://host:port and refuses anything it could
// not honour at boot, not at the first fill. Only self may omit its URL.
func TestNewValidatesPeerURLs(t *testing.T) {
	tests := []struct {
		url string
		ok  bool
	}{
		{"http://h:1", true},
		{"http://127.0.0.1:8471", true},
		{"http://[::1]:8471", true},
		{"https://h:1", false},
		{"http://h:1/prefix", false},
		{"http://h:1/", false},
		{"http://h:1?x=1", false},
		{"http://h:1#frag", false},
		{"http://user:pw@h:1", false},
		{"http://h", false},
		{"http://:1", false},
		{"h:1", false},
		{"", false},
	}
	for _, tc := range tests {
		_, err := New(Config{SelfID: "self", Peers: []Node{{ID: "self"}, {ID: "p", URL: tc.url}}})
		if (err == nil) != tc.ok {
			t.Errorf("peer URL %q: err = %v, want ok=%v", tc.url, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "peer p") {
			t.Errorf("peer URL %q: error %q does not name the peer", tc.url, err)
		}
	}
}
