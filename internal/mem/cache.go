// Package mem implements the memory hierarchy of the simulated processor:
// set-associative write-back caches with LRU replacement, MSHR-limited miss
// handling, an L2 stride prefetcher (degree 4, as in the paper's Table 1),
// and a fixed-latency DDR3-style DRAM model.
//
// Timing model: the hierarchy is queried analytically. Each access walks
// the levels, updates replacement/MSHR state immediately, and returns the
// cycle at which the data is available. In-flight fills are represented by
// a per-line fill timestamp, so overlapping requests to the same line merge
// onto the same fill (hit-under-miss) instead of issuing twice, and
// prefetched lines that are still in flight behave as delayed hits.
package mem

import (
	"fmt"
	"sync"
)

// LineShift selects 64-byte cache lines (Table 1).
const LineShift = 6

// LineBytes is the cache line size in bytes.
const LineBytes = 1 << LineShift

// LineAddr returns the line-aligned address for a byte address.
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

const (
	// LvlL1 means the access hit in the first-level cache.
	LvlL1 Level = iota
	// LvlL2 means the access was satisfied by the L2.
	LvlL2
	// LvlL3 means the access was satisfied by the shared L3.
	LvlL3
	// LvlDRAM means the access went to main memory.
	LvlDRAM
	// NumLevels is the number of hierarchy levels; keep last.
	NumLevels
)

var levelNames = [NumLevels]string{"L1", "L2", "L3", "DRAM"}

// String returns the level name.
func (l Level) String() string { return levelNames[l] }

// line is one cache line's metadata.
type line struct {
	tag      uint64
	lru      uint64 // last-touch stamp; larger = more recent
	fillTime uint64 // cycle at which the line's data is present
	valid    bool
	dirty    bool
	prefetch bool // brought in by the prefetcher and not yet demanded
}

// Cache is a set-associative cache with true-LRU replacement.
//
// Clone is copy-on-write at set granularity. lines holds every set's
// ways, row-major by set; once the cache has been cloned it is shared,
// read-only, by the original and all its clones, and each of them copies
// a set into its private storage on its first write to that set. That
// storage grows in chunks of 1<<chunkShift sets, recycled between caches
// (see Hierarchy.Release), so it costs what a run touches. slot[s] is 1
// + the private copy holding set s, or 0 while the set still reads from
// lines (a nil slot means every set does). The index is pointer-free, so
// a clone copies it with a plain memmove.
type Cache struct {
	name       string
	sets       int
	ways       int
	lat        uint64 // access latency in cycles
	lines      []line
	own        [][]line // private set copies, 1<<chunkShift sets per chunk
	owned      int      // private set copies made
	chunkShift uint
	slot       []int32
	shared     bool // lines is shared with a clone: copy a set before writing it
	stamp      uint64
	setMask    uint64
	setShift   uint

	// mu serializes Clone, which marks the original's lines shared, so
	// one cache may be cloned from several goroutines at once (it must
	// not be accessed otherwise meanwhile).
	mu sync.Mutex

	// Statistics.
	Accesses    uint64
	Misses      uint64
	PrefHits    uint64 // demand hits on prefetched lines
	Evictions   uint64
	WritebacksN uint64
}

// cacheSets returns the set count of a sizeBytes, ways-way cache, or
// an error unless it is a positive power of two.
func cacheSets(name string, sizeBytes, ways int) (int, error) {
	if ways > 0 {
		if sets := sizeBytes / (ways * LineBytes); sets > 0 && sets&(sets-1) == 0 {
			return sets, nil
		}
	}
	return 0, fmt.Errorf("mem: %s set count must be a power of two (%d B, %d ways)", name, sizeBytes, ways)
}

// NewCache builds a cache from total size in bytes, associativity and
// access latency in cycles. Size must be a multiple of ways*LineBytes and
// the resulting set count must be a power of two.
func NewCache(name string, sizeBytes, ways int, latency uint64) *Cache {
	sets, err := cacheSets(name, sizeBytes, ways)
	if err != nil {
		panic(err.Error()) // configurations are validated at spec admission
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		lat:      latency,
		lines:    make([]line, sets*ways),
		setMask:  uint64(sets - 1),
		setShift: uint(log2(sets)),
	}
	for ways<<(c.chunkShift+1) <= chunkLines {
		c.chunkShift++
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Latency returns the cache's access latency in cycles.
func (c *Cache) Latency() uint64 { return c.lat }

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity (for tests).
func (c *Cache) Ways() int { return c.ways }

// set returns the ways of the line's set, for reading.
func (c *Cache) set(lineAddr uint64) []line {
	s := int(lineAddr & c.setMask)
	if c.slot != nil {
		if b := c.slot[s]; b != 0 {
			return c.ownSet(int(b - 1))
		}
	}
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// chunkLines is the size of a pooled chunk of private set copies: as
// many whole sets as fit, rounded down to a power of two (one set when a
// set is larger still, in a chunk of its own).
const chunkLines = 512

// chunkPool recycles private set-copy chunks between caches.
var chunkPool = sync.Pool{New: func() any { return new([chunkLines]line) }}

// ownSet returns private copy i.
func (c *Cache) ownSet(i int) []line {
	o := (i & (1<<c.chunkShift - 1)) * c.ways
	return c.own[i>>c.chunkShift][o : o+c.ways]
}

// newChunk returns storage for the next 1<<chunkShift private copies.
func (c *Cache) newChunk() []line {
	if c.ways > chunkLines {
		return make([]line, c.ways)
	}
	return chunkPool.Get().(*[chunkLines]line)[:]
}

// release hands the private set copies back to the pool; the cache must
// not be used afterwards.
func (c *Cache) release() {
	putChunks(c.own)
	c.lines, c.own, c.slot = nil, nil, nil
}

// putChunks returns pooled chunks of private set copies.
func putChunks(own [][]line) {
	for _, ch := range own {
		if len(ch) == chunkLines {
			chunkPool.Put((*[chunkLines]line)(ch))
		}
	}
}

// wset returns the ways of the line's set for writing, first copying the
// set out of a shared lines array.
func (c *Cache) wset(lineAddr uint64) []line {
	s := int(lineAddr & c.setMask)
	if !c.shared || (c.slot != nil && c.slot[s] != 0) {
		return c.set(lineAddr)
	}
	w := c.ways
	if c.slot == nil {
		c.slot = make([]int32, c.sets)
	}
	if c.owned&(1<<c.chunkShift-1) == 0 {
		c.own = append(c.own, c.newChunk())
	}
	i := c.owned
	c.owned++
	c.slot[s] = int32(i + 1)
	set := c.ownSet(i)
	copy(set, c.lines[s*w:(s+1)*w])
	return set
}

// Probe reports whether the line is present without updating LRU state or
// statistics (used for the phased-tag early-wakeup model and by tests).
func (c *Cache) Probe(lineAddr uint64) bool {
	tag := lineAddr >> c.setShift
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Lookup performs a demand access. If the line is present it returns
// (true, availableAt) where availableAt accounts for an in-flight fill.
// LRU state is updated.
func (c *Cache) Lookup(lineAddr uint64, now uint64) (bool, uint64) {
	c.Accesses++
	tag := lineAddr >> c.setShift
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			ln := &c.wset(lineAddr)[i]
			c.stamp++
			ln.lru = c.stamp
			if ln.prefetch {
				ln.prefetch = false
				c.PrefHits++
			}
			avail := now + c.lat
			if ln.fillTime > avail {
				avail = ln.fillTime
			}
			return true, avail
		}
	}
	c.Misses++
	return false, 0
}

// Insert allocates the line, evicting the LRU victim if needed. fillTime is
// the cycle the data arrives; dirty marks a store allocation; prefetch
// marks prefetcher-initiated fills. It returns whether a dirty victim was
// evicted (writeback traffic).
func (c *Cache) Insert(lineAddr, fillTime uint64, dirty, prefetch bool) (writeback bool) {
	tag := lineAddr >> c.setShift
	set := c.wset(lineAddr)
	victim := 0
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag { // already present (race with merge)
			if dirty {
				ln.dirty = true
			}
			return false
		}
		if !ln.valid {
			victim = i
			goto place
		}
		if ln.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.Evictions++
		if set[victim].dirty {
			c.WritebacksN++
			writeback = true
		}
	}
place:
	c.stamp++
	set[victim] = line{tag: tag, valid: true, dirty: dirty, lru: c.stamp,
		fillTime: fillTime, prefetch: prefetch}
	return writeback
}

// MarkDirty sets the dirty bit if the line is present.
func (c *Cache) MarkDirty(lineAddr uint64) {
	tag := lineAddr >> c.setShift
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.wset(lineAddr)[i].dirty = true
			return
		}
	}
}

// ResetStats zeroes the access statistics, keeping the cache contents
// (warm-up/measured-region boundary).
func (c *Cache) ResetStats() {
	c.Accesses, c.Misses, c.PrefHits, c.Evictions, c.WritebacksN = 0, 0, 0, 0, 0
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
