// Package lru is the engine's one bound on per-key memory: a
// mutex-guarded map that holds at most a fixed number of entries and
// evicts the least recently used one past that. The memory tier, the
// negative cache and the verified-bytes digest cache all keep their
// state in it.
package lru

import "sync"

// Cache is a bounded least-recently-used map, safe for concurrent use.
// Create one with New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	m       map[K]*entry[K, V]
	root    entry[K, V] // sentinel: root.next is the most recent entry, root.prev the least
	onEvict func(K, V)
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns a cache holding at most capacity entries; a capacity <= 0
// holds nothing. A non-nil onEvict is called once for every entry Put
// evicts, after the cache's lock is released, so it may take the
// caller's own locks but must not assume the cache is unchanged.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, m: make(map[K]*entry[K, V]), onEvict: onEvict}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Peek returns key's value without changing its recency.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put inserts or replaces key's value and marks it most recently used,
// then evicts the least recently used entry if the cache is over
// capacity. Each Put adds at most one entry, so it evicts at most one.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	e, ok := c.m[key]
	if ok {
		e.val = val
		c.unlink(e)
	} else {
		e = &entry[K, V]{key: key, val: val}
		c.m[key] = e
	}
	c.pushFront(e)
	var old *entry[K, V]
	if len(c.m) > c.cap {
		old = c.root.prev
		c.unlink(old)
		delete(c.m, old.key)
	}
	c.mu.Unlock()
	if old != nil && c.onEvict != nil {
		c.onEvict(old.key, old.val)
	}
}

// Delete removes key, if present, without calling onEvict.
func (c *Cache[K, V]) Delete(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.unlink(e)
		delete(c.m, key)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Keys returns the keys from most to least recently used.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, len(c.m))
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}
