// Per-canonical-key circuit breaker (moved here from internal/service:
// the breaker is admission control, deciding before a worker slot is
// burned, so it lives with the queue and the watermarks).
//
// The breaker sheds load for keys that repeatedly burn a worker slot
// without producing a plan (timeouts, solver panics): after Threshold
// consecutive failures the key opens and requests fast-fail with
// *ErrOverloaded (HTTP 429 + Retry-After) instead of queueing. Once the
// cooldown elapses a single half-open probe is admitted; its outcome
// closes the breaker again or re-opens it.
package admission

import (
	"sync"
	"time"

	"switchsynth/internal/lru"
)

// maxBreakers bounds the keys with breaker state. A key enters on its
// first failure and leaves on a success, so keys that fail and are never
// solved again would otherwise accumulate without limit; past the bound
// the least recently seen key's state is dropped.
const maxBreakers = 1024

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	state      breakerState
	fails      int       // consecutive breaker-relevant failures
	openedAt   time.Time // when the breaker last opened
	probeStart time.Time // when the current half-open probe was admitted
}

// Breakers tracks one circuit breaker per canonical job key, for at
// most maxBreakers keys. A nil *Breakers is the disabled breaker: every
// method is a safe no-op that admits everything.
type Breakers struct {
	threshold int
	cooldown  time.Duration

	mu sync.Mutex // guards the breakers' fields
	m  *lru.Cache[string, *breaker]
}

// NewBreakers creates a breaker group opening after threshold
// consecutive failures and admitting a half-open probe after cooldown.
func NewBreakers(threshold int, cooldown time.Duration) *Breakers {
	return &Breakers{threshold: threshold, cooldown: cooldown, m: lru.New[string, *breaker](maxBreakers, nil)}
}

// Allow reports whether a request for key may proceed; when it may not,
// retryAfter is the time until the next half-open probe.
func (g *Breakers) Allow(key string) (ok bool, retryAfter time.Duration) {
	if g == nil {
		return true, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.m.Get(key)
	if !ok {
		return true, 0
	}
	now := time.Now()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if wait := g.cooldown - now.Sub(b.openedAt); wait > 0 {
			return false, wait
		}
		b.state = breakerHalfOpen
		b.probeStart = now
		return true, 0 // the half-open probe
	default: // breakerHalfOpen
		// One probe at a time; if the probe itself got stuck (its job was
		// never recorded — e.g. the engine rejected the enqueue), admit a
		// fresh probe after another cooldown.
		if now.Sub(b.probeStart) >= g.cooldown {
			b.probeStart = now
			return true, 0
		}
		return false, g.cooldown - now.Sub(b.probeStart)
	}
}

// RecordFailure notes a breaker-relevant failure (timeout or panic) for
// key, opening the breaker at the threshold or on a failed probe.
func (g *Breakers) RecordFailure(key string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.m.Get(key)
	if !ok {
		b = &breaker{}
		g.m.Put(key, b)
	}
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= g.threshold {
		b.state = breakerOpen
		b.openedAt = time.Now()
	}
}

// RecordSuccess resets key's breaker: any completed solve — including a
// proven ErrNoSolution — shows the key is not burning worker slots.
func (g *Breakers) RecordSuccess(key string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.m.Delete(key)
}

// OpenCount reports how many breakers are currently open or half-open
// (a metrics gauge).
func (g *Breakers) OpenCount() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, key := range g.m.Keys() {
		if b, ok := g.m.Peek(key); ok && b.state != breakerClosed {
			n++
		}
	}
	return n
}
