package planio

import (
	"crypto/sha256"
	"sync"

	"switchsynth/internal/lru"
	"switchsynth/internal/spec"
)

// VerifiedCache remembers the SHA-256 digests of plan bytes that have
// already passed a FULL import verification (decode → Proven → canonical
// key re-derivation → contamination check) together with the key they
// verified under and the decoded result. Because verification is a pure
// function of the bytes, identical bytes need never be re-verified:
// a digest hit is exactly as trustworthy as the original full check,
// and any byte difference — including every fault-injected corruption —
// changes the digest and falls through to the full path.
//
// Entries enter only through Add, which callers must invoke with bytes
// they have JUST fully verified (or that they themselves encoded from a
// locally proven plan, which is the same proof obligation). Lookup is
// keyed by (digest, expected key): bytes verified under a different
// canonical key miss, so a cache entry can never vouch for bytes under
// the wrong key.
type VerifiedCache struct {
	cap     int
	entries *lru.Cache[[sha256.Size]byte, verifiedEntry]

	mu     sync.Mutex // guards the counters, and each Lookup or Add as a whole
	hits   uint64
	misses uint64
	adds   uint64
}

type verifiedEntry struct {
	key string
	res *spec.Result
}

// DefaultVerifiedCapacity sizes the process-wide SharedVerified cache.
const DefaultVerifiedCapacity = 4096

// SharedVerified is the process-wide verified-bytes cache. Sharing
// across engines and tests is sound for the same reason the cache itself
// is: the verdict depends only on the bytes.
var SharedVerified = NewVerifiedCache(DefaultVerifiedCapacity)

// NewVerifiedCache returns a cache bounded to n entries (n <= 0 falls
// back to DefaultVerifiedCapacity).
func NewVerifiedCache(n int) *VerifiedCache {
	if n <= 0 {
		n = DefaultVerifiedCapacity
	}
	return &VerifiedCache{cap: n, entries: lru.New[[sha256.Size]byte, verifiedEntry](n, nil)}
}

// Lookup reports whether data is byte-identical to bytes previously
// verified under key, returning the decoded result from that
// verification on a hit.
func (c *VerifiedCache) Lookup(data []byte, key string) (*spec.Result, bool) {
	dig := sha256.Sum256(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Peek first: bytes verified under another key are a miss and keep
	// their recency.
	if ent, ok := c.entries.Peek(dig); !ok || ent.key != key {
		c.misses++
		return nil, false
	}
	ent, _ := c.entries.Get(dig)
	c.hits++
	return ent.res, true
}

// Add records that data passed a full verification under key, decoding
// to res. Callers must only pass proven plans whose exact bytes they
// verified (or produced) themselves.
func (c *VerifiedCache) Add(data []byte, key string, res *spec.Result) {
	if res == nil || !res.Proven {
		return
	}
	dig := sha256.Sum256(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries.Peek(dig); !ok {
		c.adds++
	}
	c.entries.Put(dig, verifiedEntry{key: key, res: res})
}

// VerifiedStats is a point-in-time snapshot of a VerifiedCache.
type VerifiedStats struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Adds     uint64 `json:"adds"`
}

// Stats returns the cache counters.
func (c *VerifiedCache) Stats() VerifiedStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return VerifiedStats{
		Entries:  c.entries.Len(),
		Capacity: c.cap,
		Hits:     c.hits,
		Misses:   c.misses,
		Adds:     c.adds,
	}
}
