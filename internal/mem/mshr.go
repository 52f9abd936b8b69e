package mem

// fillInfo describes an in-flight line fill.
type fillInfo struct {
	time  uint64 // cycle the data arrives
	level Level  // hierarchy level that satisfies the miss
}

// mshrSlot is one open-addressed table slot. A zero lineAddr marks a free
// slot; real line addresses are biased by 1 so line 0 stays representable.
type mshrSlot struct {
	key  uint64 // biased line address; 0 = empty
	fill fillInfo
}

// MSHRs tracks outstanding line misses for one cache level. A demand miss
// on a line with an existing entry merges onto the in-flight fill and does
// not consume a new entry. A new miss needs a free entry; when all entries
// are busy the requester must retry (the pipeline replays the access next
// cycle, which is how MSHR pressure turns into stalls).
//
// The table is open-addressed with linear probing and backward-shift
// deletion: the per-access path is allocation-free and cache-friendly,
// unlike the map[uint64]fillInfo it replaces, which showed up in the
// campaign profile through hashing and GC scanning.
type MSHRs struct {
	capacity int // <=0 means unlimited
	slots    []mshrSlot
	mask     uint64
	count    int

	// Statistics.
	Merges    uint64
	FullStall uint64
}

// NewMSHRs returns an MSHR file with the given entry count (<=0 = infinite).
func NewMSHRs(capacity int) *MSHRs {
	n := 64
	if capacity > 0 {
		// Size for the bounded entry count at <50% load.
		for n < 4*capacity {
			n *= 2
		}
	}
	return &MSHRs{capacity: capacity, slots: make([]mshrSlot, n), mask: uint64(n - 1)}
}

// hash mixes the biased line address into a table index.
func (m *MSHRs) hash(key uint64) uint64 {
	key *= 0x9e3779b97f4a7c15 // Fibonacci hashing
	return (key >> 33) & m.mask
}

// grow doubles the table (unlimited-capacity mode only).
func (m *MSHRs) grow() {
	old := m.slots
	m.slots = make([]mshrSlot, 2*len(old))
	m.mask = uint64(len(m.slots) - 1)
	m.count = 0
	for _, s := range old {
		if s.key != 0 {
			m.insert(s.key, s.fill)
		}
	}
}

// insert places a key known to be absent.
func (m *MSHRs) insert(key uint64, f fillInfo) {
	if 2*(m.count+1) > len(m.slots) {
		m.grow()
	}
	i := m.hash(key)
	for m.slots[i].key != 0 {
		i = (i + 1) & m.mask
	}
	m.slots[i] = mshrSlot{key: key, fill: f}
	m.count++
}

// find returns the slot index for key, or -1.
func (m *MSHRs) find(key uint64) int {
	i := m.hash(key)
	for {
		s := &m.slots[i]
		if s.key == key {
			return int(i)
		}
		if s.key == 0 {
			return -1
		}
		i = (i + 1) & m.mask
	}
}

// deleteAt removes the slot at index i, backward-shifting the probe chain
// so lookups stay correct without tombstones.
func (m *MSHRs) deleteAt(i int) {
	m.count--
	j := uint64(i)
	for {
		m.slots[j] = mshrSlot{}
		k := j
		for {
			k = (k + 1) & m.mask
			s := m.slots[k]
			if s.key == 0 {
				return
			}
			home := m.hash(s.key)
			// Shift s back if its home position cannot reach it through j.
			if (j <= k && (home <= j || home > k)) || (j > k && home <= j && home > k) {
				m.slots[j] = s
				j = k
				break
			}
		}
	}
}

// sweep drops completed fills.
func (m *MSHRs) sweep(now uint64) {
	for i := 0; i < len(m.slots); i++ {
		if m.slots[i].key != 0 && m.slots[i].fill.time <= now {
			m.deleteAt(i)
			i-- // the shift may have moved a later entry into slot i
		}
	}
}

// Lookup returns the in-flight fill for the line, if any.
func (m *MSHRs) Lookup(lineAddr, now uint64) (fillTime uint64, level Level, ok bool) {
	i := m.find(lineAddr + 1)
	if i < 0 {
		return 0, 0, false
	}
	f := m.slots[i].fill
	if f.time > now {
		m.Merges++
		return f.time, f.level, true
	}
	m.deleteAt(i)
	return 0, 0, false
}

// Allocate reserves an entry for a new miss filling at fillTime from the
// given level. It returns false when the file is full and the miss cannot
// be issued this cycle.
func (m *MSHRs) Allocate(lineAddr, fillTime, now uint64, level Level) bool {
	if m.capacity > 0 && m.count >= m.capacity {
		m.sweep(now)
		if m.count >= m.capacity {
			m.FullStall++
			return false
		}
	}
	if m.capacity <= 0 && 2*(m.count+1) > len(m.slots) {
		// An unlimited file drops completed fills before growing, so
		// the table tracks the misses in flight, not every line ever
		// missed; it still doubles when they fill a quarter of it, which
		// keeps the sweeps amortized.
		m.sweep(now)
		if 4*(m.count+1) > len(m.slots) {
			m.grow()
		}
	}
	m.insert(lineAddr+1, fillInfo{time: fillTime, level: level})
	return true
}

// Free reports whether at least one entry is available (after sweeping).
func (m *MSHRs) Free(now uint64) bool {
	if m.capacity <= 0 {
		return true
	}
	if m.count < m.capacity {
		return true
	}
	m.sweep(now)
	return m.count < m.capacity
}

// Outstanding returns the number of in-flight misses at the given cycle.
func (m *MSHRs) Outstanding(now uint64) int {
	n := 0
	for _, s := range m.slots {
		if s.key != 0 && s.fill.time > now {
			n++
		}
	}
	return n
}
