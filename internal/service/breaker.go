// Negative-result cache and breaker re-exports. The per-key circuit
// breaker itself lives in internal/admission (it is admission control,
// shared policy with the fair queue); the service keeps the
// ErrOverloaded alias so existing callers' errors.Is/As chains and type
// assertions keep working unchanged.
//
// The negative cache remembers proven infeasibility: ErrNoSolution is an
// exhaustive-search proof (timeouts never produce it), so replaying it
// from the cache is sound and saves a full solve.
package service

import (
	"container/list"
	"sync"

	"switchsynth/internal/admission"
	"switchsynth/internal/spec"
)

// ErrOverloaded is returned (without queueing a solve) while a key's
// circuit breaker is open. RetryAfter tells the caller when the next
// half-open probe will be admitted. It is an alias for the admission
// package's type, where the breaker now lives.
type ErrOverloaded = admission.ErrOverloaded

// negCacheSize bounds the negative cache in entries. Only proven
// ErrNoSolution outcomes are stored, never timeouts.
const negCacheSize = 256

// negCache is a bounded LRU of canonical key → infeasibility proof.
type negCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	byK map[string]*list.Element
}

type negEntry struct {
	key string
	err *spec.ErrNoSolution
}

// newNegCache creates a negative cache holding up to capacity proofs.
func newNegCache(capacity int) *negCache {
	return &negCache{cap: capacity, ll: list.New(), byK: make(map[string]*list.Element)}
}

func (c *negCache) get(key string) (*spec.ErrNoSolution, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*negEntry).err, true
}

func (c *negCache) put(key string, err *spec.ErrNoSolution) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		el.Value.(*negEntry).err = err
		c.ll.MoveToFront(el)
		return
	}
	c.byK[key] = c.ll.PushFront(&negEntry{key: key, err: err})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byK, oldest.Value.(*negEntry).key)
	}
}

func (c *negCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
