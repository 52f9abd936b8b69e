package mem

import (
	"testing"
	"testing/quick"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache("t", 8*1024, 8, 4) // 16 sets
	if c.Sets() != 16 || c.Ways() != 8 {
		t.Fatalf("geometry %d sets x %d ways", c.Sets(), c.Ways())
	}
	if hit, _ := c.Lookup(5, 0); hit {
		t.Error("cold cache must miss")
	}
	c.Insert(5, 10, false, false)
	hit, avail := c.Lookup(5, 20)
	if !hit {
		t.Error("inserted line must hit")
	}
	if avail != 24 {
		t.Errorf("hit avail = %d, want now+latency = 24", avail)
	}
}

func TestCacheInFlightFill(t *testing.T) {
	c := NewCache("t", 8*1024, 8, 4)
	c.Insert(5, 100, false, false) // fill arrives at cycle 100
	if _, avail := c.Lookup(5, 10); avail != 100 {
		t.Errorf("hit-under-fill avail = %d, want fill time 100", avail)
	}
	if _, avail := c.Lookup(5, 200); avail != 204 {
		t.Errorf("post-fill avail = %d, want 204", avail)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 2*64*4, 4, 1) // 2 sets, 4 ways
	// Fill set 0 (even line addrs) with 4 lines.
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*2, 0, false, false)
	}
	c.Lookup(0, 1) // touch line 0: now MRU
	c.Insert(8, 0, false, false)
	if c.Probe(2) { // line 2 was LRU
		t.Error("LRU victim not evicted")
	}
	if !c.Probe(0) {
		t.Error("MRU line evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache("t", 64*4, 4, 1) // 1 set, 4 ways
	c.Insert(0, 0, true, false)    // dirty
	for i := uint64(1); i <= 4; i++ {
		c.Insert(i, 0, false, false)
	}
	if c.WritebacksN != 1 {
		t.Errorf("writebacks = %d, want 1", c.WritebacksN)
	}
}

func TestCachePrefetchAccounting(t *testing.T) {
	c := NewCache("t", 8*1024, 8, 4)
	c.Insert(3, 0, false, true)
	c.Lookup(3, 10)
	if c.PrefHits != 1 {
		t.Errorf("prefetch hits = %d, want 1", c.PrefHits)
	}
}

func TestCacheInvalidAndMissRate(t *testing.T) {
	c := NewCache("t", 8*1024, 8, 4)
	c.Lookup(1, 0)
	c.Insert(1, 0, false, false)
	c.Lookup(1, 1)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate %v, want 0.5", got)
	}
}

func TestCacheGeometryPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets must panic")
		}
	}()
	NewCache("bad", 3*64*2, 2, 1)
}

// Property: inserting any line makes Probe true for it.
func TestCacheInsertProbeProperty(t *testing.T) {
	c := NewCache("t", 32*1024, 8, 4)
	f := func(la uint32) bool {
		c.Insert(uint64(la), 0, false, false)
		return c.Probe(uint64(la))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := NewMSHRs(2)
	if !m.Allocate(1, 100, 0, LvlDRAM) || !m.Allocate(2, 100, 0, LvlDRAM) {
		t.Fatal("allocation failed with free entries")
	}
	if m.Allocate(3, 100, 0, LvlDRAM) {
		t.Error("allocation succeeded beyond capacity")
	}
	if _, lvl, ok := m.Lookup(1, 50); !ok || lvl != LvlDRAM {
		t.Error("merge lookup failed")
	}
	if m.Merges != 1 {
		t.Errorf("merges = %d", m.Merges)
	}
	// After fills complete, entries are reclaimed.
	if !m.Allocate(3, 300, 150, LvlL3) {
		t.Error("allocation failed after fills expired")
	}
	if m.Outstanding(150) != 1 {
		t.Errorf("outstanding = %d, want 1", m.Outstanding(150))
	}
}

func TestMSHRUnlimited(t *testing.T) {
	m := NewMSHRs(0)
	for i := uint64(0); i < 1000; i++ {
		if !m.Allocate(i, 10, 0, LvlDRAM) {
			t.Fatal("unlimited MSHRs refused an allocation")
		}
	}
	if !m.Free(0) {
		t.Error("unlimited MSHRs must always be free")
	}
}

func TestStridePrefetcher(t *testing.T) {
	p := NewStridePrefetcher(64, 4)
	pc := uint64(0x1000)
	var out []uint64
	for a := uint64(0); a < 6*64; a += 64 {
		out = p.Observe(pc, a)
	}
	if len(out) != 4 {
		t.Fatalf("degree-4 prefetcher issued %d addresses", len(out))
	}
	if out[0] != 6*64 || out[3] != 9*64 {
		t.Errorf("prefetch addresses wrong: %v", out)
	}
}

func TestStridePrefetcherResetOnNewStride(t *testing.T) {
	p := NewStridePrefetcher(64, 4)
	pc := uint64(0x1000)
	for a := uint64(0); a < 4*64; a += 64 {
		p.Observe(pc, a)
	}
	if got := p.Observe(pc, 10_000); got != nil {
		t.Error("stride change must reset confidence")
	}
	if got := p.Observe(pc, 10_000); got != nil {
		t.Error("zero stride must not prefetch")
	}
}

func TestStridePrefetcherRandomNoise(t *testing.T) {
	p := NewStridePrefetcher(64, 4)
	// Random-looking addresses: no constant stride, no prefetches.
	addrs := []uint64{100, 9000, 40, 77777, 1234, 888}
	for _, a := range addrs {
		if got := p.Observe(0x2000, a); got != nil {
			t.Errorf("prefetched on random pattern: %v", got)
		}
	}
}

func TestHierarchyLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	h := NewHierarchy(cfg)

	// Cold: DRAM.
	r, ok := h.Load(0x10, 0x5000, 0)
	if !ok || r.Level != LvlDRAM {
		t.Fatalf("cold load level %v", r.Level)
	}
	if r.Avail != cfg.DRAMLatency {
		t.Errorf("DRAM avail %d, want %d", r.Avail, cfg.DRAMLatency)
	}

	// After the fill: L1 hit.
	now := r.Avail + 10
	r2, _ := h.Load(0x10, 0x5000, now)
	if r2.Level != LvlL1 || r2.Avail != now+cfg.L1Latency {
		t.Errorf("warm load level %v avail %d", r2.Level, r2.Avail)
	}
}

func TestHierarchyMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	h := NewHierarchy(cfg)
	r1, _ := h.Load(0x10, 0x5000, 0)
	// Same line, different word, while the miss is outstanding: the L1
	// line was allocated with the fill timestamp, so the second access
	// completes at the same fill time without a second memory request
	// (hit-under-fill merging).
	r2, ok := h.Load(0x14, 0x5008, 5)
	if !ok {
		t.Fatal("merge refused")
	}
	if r2.Avail != r1.Avail {
		t.Errorf("merge: avail=%d want %d", r2.Avail, r1.Avail)
	}
	if h.DemandDRAM != 1 {
		t.Errorf("demand DRAM requests = %d, want 1 (merged)", h.DemandDRAM)
	}
}

func TestHierarchyMSHRLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	cfg.L1DMSHRs = 2
	h := NewHierarchy(cfg)
	h.Load(0, 0<<LineShift, 0)
	h.Load(0, 1<<LineShift, 0)
	if _, ok := h.Load(0, 2<<LineShift, 0); ok {
		t.Error("third miss must be refused with 2 MSHRs")
	}
	if _, ok := h.Load(0, 2<<LineShift, cfg.DRAMLatency+1); !ok {
		t.Error("miss must succeed after fills complete")
	}
}

func TestHierarchyPrefetchHidesStream(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	var demandDRAM int
	now := uint64(0)
	for i := 0; i < 64; i++ {
		addr := uint64(0x10_0000) + uint64(i)*LineBytes
		r, ok := h.Load(0x30, addr, now)
		if !ok {
			t.Fatal("load refused")
		}
		if r.Level == LvlDRAM && !r.Merged {
			demandDRAM++
		}
		now = r.Avail + 1 // serial walker gives the prefetcher time
	}
	if demandDRAM > 20 {
		t.Errorf("prefetcher hid too few misses: %d demand DRAM of 64", demandDRAM)
	}
	if h.PrefetchIssued == 0 {
		t.Error("prefetcher never fired")
	}
}

func TestHierarchyStoreCommitAndDirty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	h := NewHierarchy(cfg)
	r := h.StoreCommit(0x9000, 0)
	if r.Level != LvlDRAM {
		t.Errorf("cold store level %v", r.Level)
	}
	r2 := h.StoreCommit(0x9000, r.Avail+1)
	if r2.Level != LvlL1 {
		t.Errorf("warm store level %v", r2.Level)
	}
	if h.Stores != 2 {
		t.Errorf("stores = %d", h.Stores)
	}
}

func TestHierarchyWarm(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	h.Warm(0x10, 0x5000, false)
	r, _ := h.Load(0x10, 0x5000, 0)
	if r.Level != LvlL1 {
		t.Errorf("warmed load level %v, want L1", r.Level)
	}
}

func TestHierarchyOutstandingDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	h := NewHierarchy(cfg)
	h.Load(0, 0<<LineShift, 0)
	h.Load(0, 100<<LineShift, 0)
	if got := h.OutstandingDemand(10); got != 2 {
		t.Errorf("outstanding = %d, want 2", got)
	}
	h.Load(0, 200<<LineShift, 5)
	if got := h.NextDemandEnd(10); got != cfg.DRAMLatency {
		t.Errorf("next demand end after 10 = %d, want %d", got, cfg.DRAMLatency)
	}
	if got := h.NextDemandEnd(cfg.DRAMLatency); got != cfg.DRAMLatency+5 {
		t.Errorf("next demand end after %d = %d, want %d", cfg.DRAMLatency, got, cfg.DRAMLatency+5)
	}
	if got := h.OutstandingDemand(cfg.DRAMLatency + 5); got != 0 {
		t.Errorf("outstanding after fill = %d, want 0", got)
	}
	if got := h.NextDemandEnd(cfg.DRAMLatency + 5); got != ^uint64(0) {
		t.Errorf("next demand end with none in flight = %d", got)
	}
}

func TestHierarchyFetchInst(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	r := h.FetchInst(0x1000_0000, 0)
	if r.Level != LvlDRAM {
		t.Errorf("cold fetch level %v", r.Level)
	}
	// Next line was prefetched.
	r2 := h.FetchInst(0x1000_0000+LineBytes, r.Avail+1)
	if r2.Level == LvlDRAM && !r2.Merged {
		t.Error("next-line instruction prefetch missing")
	}
}

func TestLevelString(t *testing.T) {
	if LvlL1.String() != "L1" || LvlDRAM.String() != "DRAM" {
		t.Error("level names wrong")
	}
}

func TestAvgLoadLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	h := NewHierarchy(cfg)
	if h.AvgLoadLatency() != 0 {
		t.Error("idle hierarchy must report 0 latency")
	}
	h.Load(0, 0x40, 0)
	if got := h.AvgLoadLatency(); got != float64(cfg.DRAMLatency) {
		t.Errorf("avg latency %v, want %d", got, cfg.DRAMLatency)
	}
}
