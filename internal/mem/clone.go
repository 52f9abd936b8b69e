package mem

// Copies of the hierarchy's mutable state. The sampled fidelity tier
// checkpoints a functionally-warmed hierarchy at every interval boundary
// by cloning it: the clone backs a fresh pipeline while the original
// keeps warming toward the next boundary. Batched lanes clone one sealed
// checkpoint each, concurrently. The two sides evolve independently;
// the caches' tag arrays are shared copy-on-write (see Cache), the small
// structures are copied outright.

// Clone returns a copy of the cache that evolves independently of the
// original: both share the current tag array and each copies a set on
// its first write to it. A cache whose private copies have grown to half
// the array first folds them into a fresh array, so a clone never copies
// more than half of one.
func (c *Cache) Clone() *Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.owned > 0 && 2*c.owned >= c.sets {
		c.flatten()
	}
	c.shared = true
	cp := &Cache{
		name: c.name, sets: c.sets, ways: c.ways, lat: c.lat,
		lines: c.lines, shared: true, chunkShift: c.chunkShift,
		stamp: c.stamp, setMask: c.setMask, setShift: c.setShift,
		Accesses: c.Accesses, Misses: c.Misses, PrefHits: c.PrefHits,
		Evictions: c.Evictions, WritebacksN: c.WritebacksN,
	}
	if c.owned > 0 {
		cp.own = make([][]line, len(c.own))
		for i, ch := range c.own {
			cp.own[i] = cp.newChunk()
			copy(cp.own[i], ch)
		}
		cp.owned = c.owned
		cp.slot = append([]int32(nil), c.slot...)
	}
	return cp
}

// flatten folds the private set copies into a fresh, unshared array.
func (c *Cache) flatten() {
	lines := append([]line(nil), c.lines...)
	w := c.ways
	for s, b := range c.slot {
		if b != 0 {
			copy(lines[s*w:(s+1)*w], c.ownSet(int(b-1)))
		}
	}
	putChunks(c.own)
	c.lines, c.own, c.owned, c.slot, c.shared = lines, nil, 0, nil, false
}

// Clone returns a deep copy of the MSHR file, including any in-flight
// fill slots.
func (m *MSHRs) Clone() *MSHRs {
	cp := *m
	cp.slots = append([]mshrSlot(nil), m.slots...)
	return &cp
}

// Clone returns a deep copy of the prefetcher's stride table. The
// transient Observe result buffer is not shared.
func (p *StridePrefetcher) Clone() Prefetcher {
	cp := *p
	cp.entries = append([]strideEntry(nil), p.entries...)
	cp.out = make([]uint64, 0, p.degree)
	return &cp
}

// Clone returns a deep copy of the DRAM model, including per-bank open
// rows and bus timing.
func (d *DRAM) Clone() *DRAM {
	cp := *d
	cp.banks = append([]dramBank(nil), d.banks...)
	return &cp
}

// Clone returns a deep copy of the whole hierarchy — cache contents,
// MSHRs, prefetcher, DRAM state, outstanding demand fills and all
// statistics.
func (h *Hierarchy) Clone() *Hierarchy {
	cp := *h
	cp.L1I = h.L1I.Clone()
	cp.L1D = h.L1D.Clone()
	cp.L2 = h.L2.Clone()
	cp.L3 = h.L3.Clone()
	cp.l1m = h.l1m.Clone()
	cp.l2m = h.l2m.Clone()
	if h.pref != nil {
		cp.pref = h.pref.Clone()
	}
	if h.dram != nil {
		cp.dram = h.dram.Clone()
	}
	cp.cors = cloneCorunners(h.cors)
	cp.demandEnds = append([]uint64(nil), h.demandEnds...)
	return &cp
}

// Release hands the private copies of the caches' tag arrays back for
// reuse by later clones. The hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.L3} {
		c.release()
	}
}
