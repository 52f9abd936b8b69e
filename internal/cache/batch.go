package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// DoBatch resolves a group of keys as one unit; Do is a DoBatch of one
// key. Each key is classified as a memory hit, a join of an existing
// flight, or a new flight; every new flight opened here is owned by the
// batch and resolved together: the batch goroutine consults the backing
// layer per key, then calls compute ONCE with the indices that still
// need computing. compute returns positional values and errors for
// exactly those indices; each success is stored (memory and backing)
// under its own key, so batched and single results are fully
// interchangeable. A panicking compute or backing Lookup fails its
// lanes, and nothing is stored for them.
//
// ctx bounds this call's wait, not the computation. The batch compute
// context is cancelled only when every owned flight has lost all of
// its waiters (this caller plus any callers that joined a lane
// mid-flight), so one abandoned lane does not cancel its siblings.
//
// compute may be invoked more than once: if a lane joined another
// caller's flight and that flight was abandoned at the instant of the
// join, the lane retries alone through a fresh one-key DoBatch whose
// compute is compute(ctx, []int{i}). Invocations always receive
// disjoint index sets and must be safe to run concurrently.
//
// Returned slices are positional with keys. Counters: Hit for memory,
// Shared for joins, and Miss or StoreHit per owned flight at
// resolution.
func (c *Cache) DoBatch(ctx context.Context, keys []string, compute func(ctx context.Context, miss []int) ([]any, []error)) ([]any, []Outcome, []error) {
	n := len(keys)
	vals := make([]any, n)
	outcomes := make([]Outcome, n)
	errs := make([]error, n)

	bctx, bcancel := context.WithCancel(context.Background())
	var live atomic.Int32
	release := func() {
		if live.Add(-1) == 0 {
			bcancel()
		}
	}

	flights := make([]*flight, n) // nil for memory hits
	var owned []int               // indices whose flight this batch owns

	c.mu.Lock()
	for i, key := range keys {
		if el, ok := c.items[key]; ok {
			c.order.MoveToFront(el)
			c.stats.Hits++
			vals[i], outcomes[i] = el.Value.(*entry).val, Hit
			continue
		}
		if f, ok := c.inflight[key]; ok {
			// Someone else's flight — or an earlier duplicate key in
			// this very batch. Either way, join it.
			f.waiters++
			c.stats.Shared++
			flights[i], outcomes[i] = f, Shared
			continue
		}
		live.Add(1)
		f := &flight{done: make(chan struct{}), ctx: bctx, waiters: 1}
		var once sync.Once
		f.cancel = func() { once.Do(release) }
		c.inflight[key] = f
		flights[i], outcomes[i] = f, Miss
		owned = append(owned, i)
	}
	c.mu.Unlock()

	if len(owned) > 0 {
		go c.runBatch(keys, owned, flights, bctx, compute)
	} else {
		bcancel() // nothing owned; release the context immediately
	}

	for i := range keys {
		f := flights[i]
		if f == nil {
			continue // memory hit, already resolved
		}
		v, out, err, retry := c.wait(ctx, f, outcomes[i])
		if retry {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			} else {
				// The joined flight was abandoned as this lane
				// attached; redo it alone.
				vs, outs, es := c.DoBatch(ctx, keys[i:i+1], func(cctx context.Context, _ []int) ([]any, []error) {
					return compute(cctx, []int{i})
				})
				v, out, err = vs[0], outs[0], es[0]
			}
		}
		vals[i], outcomes[i], errs[i] = v, out, err
	}
	return vals, outcomes, errs
}

// runBatch resolves the batch-owned flights: backing lookups first,
// then one compute call for the remainder. Each flight resolves
// independently (store, counters, done-close) so Do callers joined to
// a single lane wake as soon as that lane lands.
func (c *Cache) runBatch(keys []string, owned []int, flights []*flight, bctx context.Context, compute func(ctx context.Context, miss []int) ([]any, []error)) {
	b := c.getBacking()
	miss := make([]int, 0, len(owned))
	for _, i := range owned {
		if b != nil {
			if v, ok, err := lookupBacking(b, keys[i]); ok || err != nil {
				c.resolveFlight(keys[i], flights[i], v, err, ok, b)
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return
	}
	mvals, merrs := computeBatch(bctx, miss, compute)
	for j, i := range miss {
		c.resolveFlight(keys[i], flights[i], mvals[j], merrs[j], false, b)
	}
}

// computeBatch invokes the user compute with panic and shape
// containment: a panic or a mis-sized return becomes a per-lane error
// instead of killing the process or corrupting positional mapping.
func computeBatch(bctx context.Context, miss []int, compute func(ctx context.Context, miss []int) ([]any, []error)) (vals []any, errs []error) {
	fail := func(err error) {
		vals = make([]any, len(miss))
		errs = make([]error, len(miss))
		for j := range errs {
			errs[j] = err
		}
	}
	defer func() {
		if p := recover(); p != nil {
			fail(fmt.Errorf("cache: batch computation panicked: %v", p))
		}
	}()
	vals, errs = compute(bctx, miss)
	if len(vals) != len(miss) || len(errs) != len(miss) {
		fail(fmt.Errorf("cache: batch compute returned %d/%d results for %d keys", len(vals), len(errs), len(miss)))
	}
	return vals, errs
}

// lookupBacking consults the backing layer for one key. A panicking
// Lookup becomes the key's error, so its flight fails without
// computing, and storeBacking never appends a second record.
func lookupBacking(b Backing, key string) (v any, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, ok, err = nil, false, fmt.Errorf("cache: backing lookup for %q panicked: %v", key, p)
		}
	}()
	v, ok = b.Lookup(key)
	return v, ok, nil
}
