// Rendezvous-hash ring: the deterministic spec→node ownership map that
// every cluster member (and the owner-routing client) computes
// independently from the same static peer list.
//
// Rendezvous (highest-random-weight) hashing was chosen over a
// vnode-based consistent-hash circle because membership here is a small
// static list: scoring every node per key is O(n) with n ≤ a handful,
// needs no precomputed ring state, and gives the property we actually
// care about — when one node dies, only the keys it owned move, each to
// its next-highest-scoring survivor, while every other key keeps its
// owner. The score is FNV-1a 64 over "nodeID\x00key"; any stable hash
// works as long as every participant uses the same one (the "cluster"
// block of /metrics reports the scheme so mixed deployments are
// detectable).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// HashScheme names the ownership hash so nodes and clients can check
// they agree; it is reported in the /metrics "cluster" block.
const HashScheme = "rendezvous-fnv1a64-fmix64"

// Node identifies one synthd instance in the static peer list.
type Node struct {
	// ID is the stable node name used for hashing. Ownership moves if an
	// ID changes, so IDs should survive restarts.
	ID string `json:"id"`
	// URL is the node's base URL, exactly http://host:port (New
	// refuses anything else). The self entry may carry its own URL or
	// leave it empty; hashing uses only the ID.
	URL string `json:"url"`
}

// ParsePeers parses a -peers flag value: comma-separated "id=url"
// entries, e.g. "a=http://10.0.0.1:8471,b=http://10.0.0.2:8471".
// The list must include every cluster member, the local node included,
// and must be identical (up to order) on every node — ownership is
// computed independently from it. Returns the nodes sorted by ID.
func ParsePeers(s string) ([]Node, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var nodes []Node
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: peer entry %q is not id=url", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		nodes = append(nodes, Node{ID: id, URL: strings.TrimRight(url, "/")})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes, nil
}

// Ring computes rendezvous-hash ownership over a fixed member list. It
// is immutable after construction and safe for concurrent use; liveness
// is layered on top by the membership tracker, not baked into the ring.
type Ring struct {
	members []Node
}

// NewRing builds a ring over members (order-insensitive; the ring keeps
// its own ID-sorted copy).
func NewRing(members []Node) *Ring {
	ms := make([]Node, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return &Ring{members: ms}
}

// Members returns the ID-sorted member list (a copy).
func (r *Ring) Members() []Node {
	out := make([]Node, len(r.members))
	copy(out, r.members)
	return out
}

// Rank returns every member ordered by preference for key: the first
// entry is the owner, the second is where the key moves if the owner is
// down, and so on. The order is a pure function of (members, key) —
// every node and client computes the same ranking. Ties (possible only
// by hash collision) break toward the smaller ID so the order stays
// total and deterministic.
func (r *Ring) Rank(key string) []Node {
	type scored struct {
		n Node
		s uint64
	}
	sc := make([]scored, len(r.members))
	for i, n := range r.members {
		sc[i] = scored{n: n, s: score(n.ID, key)}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].s != sc[j].s {
			return sc[i].s > sc[j].s
		}
		return sc[i].n.ID < sc[j].n.ID
	})
	out := make([]Node, len(sc))
	for i, s := range sc {
		out[i] = s.n
	}
	return out
}

// OwnerID returns the ID of key's first-preference owner, or "" for an
// empty ring.
func (r *Ring) OwnerID(key string) string {
	rank := r.Rank(key)
	if len(rank) == 0 {
		return ""
	}
	return rank[0].ID
}

// score is the rendezvous weight of (node, key): FNV-1a 64 over the
// node ID and key separated by a NUL (neither may contain NUL — IDs
// come from flags, keys are hex digests plus an engine name), pushed
// through a 64-bit avalanche finalizer. The finalizer matters: raw
// FNV-1a is affine enough that two IDs differing in one byte keep a
// strongly correlated ordering across keys, which skews rendezvous
// ownership badly (one node can win almost every key).
func score(nodeID, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(nodeID))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return fmix64(h.Sum64())
}

// fmix64 is the MurmurHash3 64-bit finalizer (full avalanche: every
// input bit flips every output bit with ~1/2 probability).
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
