package prog

import "sync"

// pageShift selects 4 KiB pages of 8-byte words for the sparse functional
// memory image.
const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 8
)

// page is one resident page of an image. A page is owned when no other
// image can reach it, and only then written in place; Clone disowns
// every page on both sides, and the first write to a disowned page
// copies it.
type page struct {
	words *[pageWords]int64
	owned bool
}

// Memory is a sparse, paged functional memory image holding 8-byte words.
// Unwritten memory reads as zero. It is the emulator's data memory; the
// timing model only sees addresses, never values. A one-entry page cache
// short-circuits the map lookup for the spatially local accesses that
// dominate the kernels.
//
// Clone is copy-on-write: the copy shares every page with the original,
// and whichever side writes a shared page first gets a private copy.
type Memory struct {
	pages map[uint64]page
	// last caches the most recently touched page; lastOwned reports
	// whether a write may go to it in place.
	lastKey   uint64
	lastPg    *[pageWords]int64
	lastOwned bool
	// mu serializes Clone, which disowns the original's pages, so one
	// image may be cloned from several goroutines at once (it must not
	// be read or written meanwhile).
	mu sync.Mutex
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]page)}
}

// Read returns the 8-byte word at addr. Unaligned addresses are rounded
// down to the containing word, which is sufficient for this ISA (all
// accesses are 8-byte).
func (m *Memory) Read(addr uint64) int64 {
	key := addr >> pageShift
	if m.lastPg != nil && key == m.lastKey {
		return m.lastPg[(addr%pageBytes)/8]
	}
	pg, ok := m.pages[key]
	if !ok {
		return 0
	}
	m.lastKey, m.lastPg, m.lastOwned = key, pg.words, pg.owned
	return pg.words[(addr%pageBytes)/8]
}

// Write stores the 8-byte word v at addr.
func (m *Memory) Write(addr uint64, v int64) {
	key := addr >> pageShift
	if m.lastOwned && key == m.lastKey {
		m.lastPg[(addr%pageBytes)/8] = v
		return
	}
	pg, ok := m.pages[key]
	if !pg.owned {
		words := new([pageWords]int64)
		if ok {
			*words = *pg.words
		}
		pg = page{words: words, owned: true}
		m.pages[key] = pg
	}
	m.lastKey, m.lastPg, m.lastOwned = key, pg.words, true
	pg.words[(addr%pageBytes)/8] = v
}

// Pages returns the number of resident pages (for tests).
func (m *Memory) Pages() int { return len(m.pages) }

// Clone returns a copy of the memory image. The copy and the original
// can be written independently afterwards; they share pages until one
// side writes them.
func (m *Memory) Clone() *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := &Memory{pages: make(map[uint64]page, len(m.pages))}
	for key, pg := range m.pages {
		if pg.owned {
			pg.owned = false
			m.pages[key] = pg
		}
		cp.pages[key] = pg
	}
	m.lastOwned = false
	return cp
}
