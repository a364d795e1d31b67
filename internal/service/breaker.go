// The negative-result cache. The per-key circuit breaker itself lives
// in internal/admission (it is admission control, shared policy with the
// fair queue), as does its *admission.ErrOverloaded.
//
// The negative cache remembers proven infeasibility: ErrNoSolution is an
// exhaustive-search proof (timeouts never produce it), so replaying it
// from the cache is sound and saves a full solve.
package service

// negCacheSize bounds the negative cache in entries. Only proven
// ErrNoSolution outcomes are stored, never timeouts.
const negCacheSize = 256
