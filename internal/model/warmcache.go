package model

import (
	"sync"

	"ltp/internal/prog"
	"ltp/internal/sim"
)

// warmCacheEntries bounds the warm-group cache. Entries hold a cloned
// emulator (sparse memory image included) plus a trained hierarchy, so
// the cache is deliberately small: it serves the interactive "sweep
// siblings arriving close together" pattern, not long-term storage.
const warmCacheEntries = 8

// warmEntry is an immutable snapshot of a functionally-warmed group:
// the trained core and the stream frozen at the measured-region start.
// Borrowers only ever clone both halves, never mutate them, so one
// entry can seed any number of lanes concurrently.
type warmEntry struct {
	wc     *warmCore
	stream prog.Stream // a prog.StreamCloner
}

// warmCache is an LRU of warmEntry keyed by sim.Spec.WarmKey. A nil
// *warmCache (the zero Backend) disables reuse entirely, which keeps
// ad-hoc Backend values hermetic for tests and calibration.
type warmCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*warmEntry
	order   []string // LRU order, oldest first
}

func newWarmCache(max int) *warmCache {
	return &warmCache{max: max, entries: make(map[string]*warmEntry, max)}
}

func (c *warmCache) lookup(key string) *warmEntry {
	if c == nil || key == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e != nil {
		c.touch(key)
	}
	return e
}

// touch moves key to the most-recent end of the LRU order.
func (c *warmCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}

// store caches a freshly-trained core under spec.WarmKey, with a
// snapshot of its stream. The core is kept as is — once its warm pass
// ends it is only ever cloned — but the stream is cloned, since the
// caller keeps its own and may drive it further. Trace replays and recordings are never
// cached (their stream cursor is tied to a file), and streams that
// cannot be cloned are skipped. The snapshot is taken before the lock.
func (c *warmCache) store(spec sim.Spec, wc *warmCore, stream prog.Stream) {
	if c == nil || spec.WarmKey == "" || spec.Reader != nil || spec.Recorder != nil {
		return
	}
	sc, ok := stream.(prog.StreamCloner)
	if !ok {
		return
	}
	snap := sc.CloneStream()
	if _, ok := snap.(prog.StreamCloner); !ok {
		return
	}
	e := &warmEntry{wc: wc, stream: snap}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[spec.WarmKey]; dup {
		c.touch(spec.WarmKey)
		return
	}
	c.entries[spec.WarmKey] = e
	c.order = append(c.order, spec.WarmKey)
	if len(c.order) > c.max {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, evict)
	}
}

// Len reports the resident entry count (for tests).
func (c *warmCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
