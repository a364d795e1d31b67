// Health-probed membership: per-peer up/down state machines fed by a
// periodic /readyz probe loop and by request-path observations (a
// failed forward or plan fetch is evidence too).
//
// Transitions are flap-damped with consecutive-streak hysteresis: a
// peer marked up must fail DownAfter probes in a row before it is
// marked down, and a down peer must succeed UpAfter times in a row
// before it is trusted again. A single dropped packet therefore does
// not reroute ownership, and a peer rebooting in a crash loop does not
// oscillate the ring's effective owner every probe tick.
package cluster

import (
	"sync"
	"time"
)

// Membership defaults; overridable via Config.
const (
	defaultUpAfter   = 2
	defaultDownAfter = 3
)

// PeerStatus is one peer's externally visible health, served by
// /cluster.
type PeerStatus struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Self marks the local node's own entry (always up, never probed).
	Self bool `json:"self,omitempty"`
	Up   bool `json:"up"`
	// Streak counts consecutive observations agreeing with Up's current
	// value's opposite — i.e. progress toward the next transition. Zero
	// means the last observation matched the current state.
	Streak int `json:"streak,omitempty"`
	// Flaps counts up↔down transitions since boot.
	Flaps int64 `json:"flaps"`
	// Probes counts health observations (periodic probes plus
	// request-path reports).
	Probes  int64  `json:"probes"`
	LastErr string `json:"lastErr,omitempty"`
}

// peerState is the damped two-state machine for one peer.
type peerState struct {
	node       Node
	up         bool
	okStreak   int // consecutive successes while down
	failStreak int // consecutive failures while up
	flaps      int64
	probes     int64
	lastErr    string
	lastChange time.Time
}

// membership tracks liveness for every non-self peer. Peers start
// optimistically up: until the first probe round completes, the ring
// routes as if the whole static list were healthy, which at worst costs
// one failed forward (answered by local fallback) rather than wrongly
// claiming ownership of the entire keyspace at boot.
type membership struct {
	mu        sync.Mutex
	selfID    string
	peers     map[string]*peerState
	upAfter   int
	downAfter int
}

func newMembership(selfID string, peers []Node, upAfter, downAfter int) *membership {
	if upAfter <= 0 {
		upAfter = defaultUpAfter
	}
	if downAfter <= 0 {
		downAfter = defaultDownAfter
	}
	m := &membership{
		selfID:    selfID,
		peers:     make(map[string]*peerState),
		upAfter:   upAfter,
		downAfter: downAfter,
	}
	for _, n := range peers {
		if n.ID == selfID {
			continue
		}
		m.peers[n.ID] = &peerState{node: n, up: true}
	}
	return m
}

// alive reports whether id should be routed to. Self is always alive;
// unknown IDs are not.
func (m *membership) alive(id string) bool {
	if id == m.selfID {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	return ok && p.up
}

// observe feeds one health observation into id's state machine and
// reports whether the peer's up/down state flipped. Observations about
// self or unknown peers are ignored.
func (m *membership) observe(id string, ok bool, errMsg string) (flipped bool) {
	if id == m.selfID {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, found := m.peers[id]
	if !found {
		return false
	}
	p.probes++
	if ok {
		p.lastErr = ""
		p.failStreak = 0
		if !p.up {
			p.okStreak++
			if p.okStreak >= m.upAfter {
				p.up = true
				p.okStreak = 0
				p.flaps++
				p.lastChange = time.Now()
				return true
			}
		}
		return false
	}
	p.lastErr = errMsg
	p.okStreak = 0
	if p.up {
		p.failStreak++
		if p.failStreak >= m.downAfter {
			p.up = false
			p.failStreak = 0
			p.flaps++
			p.lastChange = time.Now()
			return true
		}
	}
	return false
}

// snapshot returns every peer's status (self excluded), ID-sorted by
// the caller via the ring's member order.
func (m *membership) snapshot() map[string]PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]PeerStatus, len(m.peers))
	for id, p := range m.peers {
		streak := p.failStreak
		if !p.up {
			streak = p.okStreak
		}
		out[id] = PeerStatus{
			ID:      id,
			URL:     p.node.URL,
			Up:      p.up,
			Streak:  streak,
			Flaps:   p.flaps,
			Probes:  p.probes,
			LastErr: p.lastErr,
		}
	}
	return out
}
