package cache

import (
	"container/list"
	"context"
	"sync"
)

// Outcome reports how a Do call was served.
type Outcome uint8

const (
	// Miss: the value was not cached and not in flight; this call
	// computed it.
	Miss Outcome = iota
	// Hit: the value was served from the cache without computing.
	Hit
	// Shared: an identical computation was already in flight; this
	// call blocked on it and shares its result.
	Shared
	// StoreHit: the value was not in memory but the backing layer had
	// it; this call loaded it without computing.
	StoreHit
)

var outcomeNames = map[Outcome]string{Miss: "miss", Hit: "hit", Shared: "shared", StoreHit: "store"}

// String returns "miss", "hit", "shared" or "store".
func (o Outcome) String() string { return outcomeNames[o] }

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls served from the stored set.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that computed (each is one real
	// simulation); Misses is therefore the number of distinct cells
	// ever executed through the cache. A computation abandoned by every
	// waiter that then failed produced nothing and is not counted.
	Misses uint64 `json:"misses"`
	// Shared counts Do calls that joined an in-flight computation.
	Shared uint64 `json:"shared"`
	// StoreHits counts Do calls resolved from the backing layer —
	// loaded, not computed, so they are not Misses.
	StoreHits uint64 `json:"store_hits"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Len is the current number of stored entries.
	Len int `json:"len"`
	// Cap is the LRU bound.
	Cap int `json:"cap"`
}

// Backing is an optional second-level result source behind the
// in-memory map — typically a persistent internal/store adapter.
// Lookup returns the value for a key (ok = found); Store persists a
// freshly computed value. Both are called from flight goroutines under
// the cache's single-flight guarantee — at most one concurrent call
// per key — but possibly concurrently across keys, so implementations
// must be safe for concurrent use. A Lookup miss falls through to
// compute; a Store failure is the implementation's to absorb (the
// in-memory result already serves every waiter).
type Backing interface {
	Lookup(key string) (any, bool)
	Store(key string, val any)
}

// Cache is a bounded LRU map with context-aware single-flight
// population and an optional persistent backing tier: Do consults
// memory, then the backing layer, then computes — all under one
// flight per key. The zero value is not usable; use New.
type Cache struct {
	mu       sync.Mutex
	cap      int
	order    *list.List               // front = most recently used
	items    map[string]*list.Element // value: *entry
	inflight map[string]*flight
	backing  Backing
	stats    Stats
}

type entry struct {
	key string
	val any
}

// flight is one key's in-progress computation, owned by the DoBatch
// call that opened it. Waiters (including that caller) are refcounted:
// a waiter whose own context dies detaches, and the last detaching
// waiter releases the flight's hold on the batch's compute context,
// which is cancelled once every flight of the batch is released — so
// abandoned work is reclaimed while any surviving waiter keeps the
// computation alive. A cancelled flight stores nothing — the entry can
// never be poisoned by cancellation.
type flight struct {
	done    chan struct{}
	ctx     context.Context    // the batch's compute context
	cancel  context.CancelFunc // releases this flight's hold on ctx (idempotent)
	waiters int                // guarded by Cache.mu
	val     any
	err     error
	// abandoned records whether the compute context was already
	// cancelled when the computation resolved (written before done
	// closes, read after — the channel close orders it). It
	// distinguishes "every waiter walked away" from a real compute
	// error, because cancel() also runs post-completion to release the
	// context's resources.
	abandoned bool
	// fromBacking records that the value was loaded from the backing
	// layer rather than computed (same write-before-close ordering as
	// abandoned). The initiating waiter reports StoreHit instead of
	// Miss; joiners still report Shared.
	fromBacking bool
}

// DefaultEntries is the LRU bound New applies when given capacity <= 0.
const DefaultEntries = 4096

// New returns a cache bounded to the given number of entries
// (<= 0 = DefaultEntries).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	return &Cache{
		cap:      capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Get returns the cached value for key, marking it most recently used.
// It does not join in-flight computations and does not count toward
// the hit/miss counters (use Do for the accounted path).
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Do returns the value for key, computing it with compute if needed:
// a DoBatch of one key. Exactly one concurrent caller per key computes
// (on its own goroutine, under a context owned by the flight); the
// others block and share the outcome. With a Backing attached, the
// flight consults it before computing — memory, then store, then
// compute, all under the same single flight — and persists a computed
// success to it. A compute error (or a panicking compute or backing
// Lookup) is returned to every waiter and nothing is stored (in memory
// or backing), so a later Do retries.
//
// ctx bounds this call's wait, not the computation: when ctx dies the
// call detaches and returns ctx's error, while the computation keeps
// running for any other waiter. Only when every waiter has detached is
// the compute context cancelled — compute should observe it and return
// promptly so abandoned work leaves the worker pool. A caller that
// joins a flight in the instant it is being cancelled retries against
// a fresh flight rather than surfacing the other waiters' abandonment.
func (c *Cache) Do(ctx context.Context, key string, compute func(context.Context) (any, error)) (any, Outcome, error) {
	vals, outcomes, errs := c.DoBatch(ctx, []string{key}, func(cctx context.Context, _ []int) ([]any, []error) {
		v, err := compute(cctx)
		return []any{v}, []error{err}
	})
	return vals[0], outcomes[0], errs[0]
}

// resolveFlight lands one flight: counters at resolution, store on
// success, backing append for computed successes, done-close, context
// release. A flight every waiter abandoned that then failed —
// typically with the cancellation itself — counts no Miss: it produced
// no result, and its waiters settled long before.
func (c *Cache) resolveFlight(key string, f *flight, val any, err error, fromBacking bool, b Backing) {
	f.val, f.err, f.fromBacking = val, err, fromBacking
	f.abandoned = f.ctx.Err() != nil
	c.mu.Lock()
	delete(c.inflight, key)
	switch {
	case f.fromBacking:
		c.stats.StoreHits++
	case f.err == nil || !f.abandoned:
		c.stats.Misses++
	}
	if f.err == nil {
		c.store(key, f.val)
	}
	c.mu.Unlock()
	// Persist a genuinely computed success before the waiters wake: a
	// Do returning means the result is durable, and a failed or
	// store-served flight must never append. The write happens off the
	// cache mutex — it is disk I/O.
	if f.err == nil && !f.fromBacking && b != nil {
		storeBacking(b, key, f.val)
	}
	close(f.done)
	f.cancel() // release the flight context's resources
}

// storeBacking shields the resolution path from a panicking Backing
// Store.
func storeBacking(b Backing, key string, val any) {
	defer func() { recover() }()
	b.Store(key, val)
}

// SetBacking attaches (or, with nil, detaches) the persistent tier.
// Set it before the cache sees traffic; in-flight computations sample
// the backing at flight start.
func (c *Cache) SetBacking(b Backing) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backing = b
}

func (c *Cache) getBacking() Backing {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backing
}

// wait blocks on the flight until it resolves or ctx dies.
func (c *Cache) wait(ctx context.Context, f *flight, outcome Outcome) (any, Outcome, error, bool) {
	select {
	case <-f.done:
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		c.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, outcome, ctx.Err(), false
	}
	if f.err != nil && f.abandoned {
		// The flight was cancelled after every then-current waiter
		// detached; this caller raced in as the cancel landed. Its own
		// context is (presumably) live, so retry with a fresh flight.
		return nil, outcome, f.err, true
	}
	if outcome == Miss && f.fromBacking {
		// The flight this caller started was served by the backing
		// layer, not computed; joiners keep reporting Shared.
		outcome = StoreHit
	}
	return f.val, outcome, f.err, false
}

// store inserts or refreshes key (caller holds mu).
func (c *Cache) store(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Len = c.order.Len()
	s.Cap = c.cap
	return s
}
