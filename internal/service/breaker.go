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

import "switchsynth/internal/admission"

// ErrOverloaded is returned (without queueing a solve) while a key's
// circuit breaker is open. RetryAfter tells the caller when the next
// half-open probe will be admitted. It is an alias for the admission
// package's type, where the breaker now lives.
type ErrOverloaded = admission.ErrOverloaded

// negCacheSize bounds the negative cache in entries. Only proven
// ErrNoSolution outcomes are stored, never timeouts.
const negCacheSize = 256
