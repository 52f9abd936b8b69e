// Package cache provides the content-addressed simulation result
// cache behind the campaign service. Results are keyed by a canonical
// hash of the normalized request (ltp.RunSpec.Hash), bounded by an LRU
// eviction policy, and populated through single-flight computation:
// when N identical requests arrive concurrently, one computes and the
// other N-1 block and share the value, so a sweep cell is simulated at
// most once no matter how many overlapping campaigns ask for it.
//
// Population is context-aware (v2): each in-flight computation owns a
// context and refcounts its waiters. A waiter whose request context
// dies detaches with its own error while the computation continues for
// the survivors; only when the last waiter detaches is the computation
// cancelled, and a cancelled computation stores nothing — one caller's
// cancellation can never poison the shared entry. DoBatch resolves a
// group of keys with one compute call for the misses; Do is a DoBatch
// of one key, so the cache has a single flight implementation.
//
// The cache is value-agnostic (it stores any); the ltp.Engine stores
// ltp.RunResult values under RunSpec hashes. Hit/miss/shared/eviction
// counters are exported (Stats) so service responses can prove whether
// a request was served from cache.
package cache
