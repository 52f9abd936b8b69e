package mem

import (
	"fmt"
	"sort"
)

// Prefetcher is the pluggable L2 prefetch engine contract. Observe is
// called with each training access (demand loads at the L2, or every
// warm access during functional warm-up) and returns the byte addresses
// to prefetch; the hierarchy decides admission (prefetches never block
// demands). Implementations must be deterministic and must support
// Clone for the sampled tier's checkpointed warm state.
type Prefetcher interface {
	// Name returns the registry name of the implementation.
	Name() string
	// Observe trains on a demand access (pc, byte address) and returns
	// byte addresses to prefetch. The returned slice may be reused
	// across calls; callers must consume it before the next Observe.
	Observe(pc, addr uint64) []uint64
	// Clone returns a deep copy that trains independently.
	Clone() Prefetcher
}

// DefaultPrefetcher is the Table 1 baseline prefetcher name.
const DefaultPrefetcher = "stride"

// PrefetcherNames returns the registered prefetcher names, sorted
// ("none" disables prefetching).
func PrefetcherNames() []string {
	out := []string{"none", "nextline", "stride", "stream"}
	sort.Strings(out)
	return out
}

// NewPrefetcher builds the named prefetcher. "none" returns (nil, nil):
// the hierarchy treats a nil prefetcher as disabled. tableSize is the
// training-table capacity (power of two; 0 = 256) and degree the number
// of lines fetched ahead (<=0 = 4) — "nextline" ignores the table. The
// empty name means DefaultPrefetcher.
func NewPrefetcher(name string, tableSize, degree int) (Prefetcher, error) {
	if err := CheckPrefetcher(name, tableSize); err != nil {
		return nil, err
	}
	if tableSize == 0 {
		tableSize = 256
	}
	if degree <= 0 {
		degree = 4
	}
	switch name {
	case "nextline":
		return NewNextLinePrefetcher(degree), nil
	case "", "stride":
		return NewStridePrefetcher(tableSize, degree), nil
	case "stream":
		return NewStreamPrefetcher(tableSize, degree), nil
	}
	return nil, nil // "none"
}

// CheckPrefetcher validates a prefetcher name and table size (as
// NewPrefetcher takes them) without building the prefetcher; the error
// is NewPrefetcher's.
func CheckPrefetcher(name string, tableSize int) error {
	switch name {
	case "none", "nextline":
		return nil
	case "", "stride", "stream":
		if tableSize < 0 || tableSize&(tableSize-1) != 0 {
			return fmt.Errorf("mem: prefetcher table size must be a power of two, not %d", tableSize)
		}
		return nil
	}
	return fmt.Errorf("mem: unknown prefetcher %q (have %v)", name, PrefetcherNames())
}

// StridePrefetcher is the L2 stride prefetcher from Table 1 ("stride
// prefetcher, degree 4"): a PC-indexed table that learns per-instruction
// strides and, once confident, prefetches the next `degree` strided lines
// into the L2.
type StridePrefetcher struct {
	entries []strideEntry
	mask    uint64
	degree  int
	out     []uint64 // reused Observe result buffer

	// Issued counts prefetch requests sent to the hierarchy.
	Issued uint64
}

type strideEntry struct {
	pc     uint64
	last   uint64 // last demand address
	stride int64
	conf   int8 // saturating 0..3; >=2 triggers prefetch
	valid  bool
}

// NewStridePrefetcher builds a prefetcher with a power-of-two table size
// and the given prefetch degree.
func NewStridePrefetcher(tableSize, degree int) *StridePrefetcher {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		panic("mem: prefetcher table size must be a power of two")
	}
	return &StridePrefetcher{
		entries: make([]strideEntry, tableSize),
		mask:    uint64(tableSize - 1),
		degree:  degree,
		out:     make([]uint64, 0, degree),
	}
}

// Name returns "stride".
func (p *StridePrefetcher) Name() string { return "stride" }

// Observe trains the prefetcher on a demand access (pc, byte address) and
// returns the byte addresses to prefetch, if any. Stride learning follows
// the classic scheme: a stride match bumps confidence, a mismatch resets
// it and re-learns the new stride. The returned slice is reused across
// calls; callers must consume it before the next Observe.
func (p *StridePrefetcher) Observe(pc, addr uint64) []uint64 {
	e := &p.entries[(pc>>2)&p.mask]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, last: addr, valid: true}
		return nil
	}
	stride := int64(addr) - int64(e.last)
	e.last = addr
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return nil
	}
	if e.conf < 2 {
		return nil
	}
	out := p.out[:0]
	a := int64(addr)
	for i := 0; i < p.degree; i++ {
		a += stride
		if a < 0 {
			break
		}
		out = append(out, uint64(a))
	}
	p.Issued += uint64(len(out))
	p.out = out
	return out
}

// NextLinePrefetcher is the simplest engine: every observed access
// prefetches the next `degree` sequential lines. No training state, so
// it reacts instantly but pollutes on irregular access patterns.
type NextLinePrefetcher struct {
	degree int
	out    []uint64

	// Issued counts prefetch requests sent to the hierarchy.
	Issued uint64
}

// NewNextLinePrefetcher builds a next-line prefetcher fetching `degree`
// lines ahead.
func NewNextLinePrefetcher(degree int) *NextLinePrefetcher {
	return &NextLinePrefetcher{degree: degree, out: make([]uint64, 0, degree)}
}

// Name returns "nextline".
func (p *NextLinePrefetcher) Name() string { return "nextline" }

// Observe returns the next `degree` line addresses after addr. The
// returned slice is reused across calls.
func (p *NextLinePrefetcher) Observe(_, addr uint64) []uint64 {
	out := p.out[:0]
	la := LineAddr(addr)
	for i := 1; i <= p.degree; i++ {
		out = append(out, (la+uint64(i))<<LineShift)
	}
	p.Issued += uint64(len(out))
	p.out = out
	return out
}

// Clone returns a copy (the only mutable state is the counter).
func (p *NextLinePrefetcher) Clone() Prefetcher {
	cp := *p
	cp.out = make([]uint64, 0, p.degree)
	return &cp
}

// StreamPrefetcher detects sequential streams per aligned 4 kB region:
// two accesses in the same region moving in one direction arm the
// stream, after which each access fetches `degree` lines ahead of the
// current head in the detected direction. Classic stream buffers chase
// the access stream without needing a stable per-PC stride, so they
// catch walks through allocator-ordered heaps that stride tables miss.
type StreamPrefetcher struct {
	entries []streamEntry
	mask    uint64
	degree  int
	out     []uint64

	// Issued counts prefetch requests sent to the hierarchy.
	Issued uint64
}

type streamEntry struct {
	region   uint64 // addr >> 12
	lastLine uint64
	dir      int8 // +1 ascending, -1 descending
	conf     int8 // saturating 0..3; >=1 triggers prefetch
	valid    bool
}

// NewStreamPrefetcher builds a stream prefetcher tracking tableSize
// regions (power of two) and fetching `degree` lines ahead.
func NewStreamPrefetcher(tableSize, degree int) *StreamPrefetcher {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		panic("mem: prefetcher table size must be a power of two")
	}
	return &StreamPrefetcher{
		entries: make([]streamEntry, tableSize),
		mask:    uint64(tableSize - 1),
		degree:  degree,
		out:     make([]uint64, 0, degree),
	}
}

// Name returns "stream".
func (p *StreamPrefetcher) Name() string { return "stream" }

// Observe tracks the access's 4 kB region stream and returns the lines
// to fetch ahead once the stream direction is established. The returned
// slice is reused across calls.
func (p *StreamPrefetcher) Observe(_, addr uint64) []uint64 {
	region := addr >> 12
	la := LineAddr(addr)
	e := &p.entries[region&p.mask]
	if !e.valid || e.region != region {
		*e = streamEntry{region: region, lastLine: la, valid: true}
		return nil
	}
	if la == e.lastLine {
		return nil
	}
	dir := int8(1)
	if la < e.lastLine {
		dir = -1
	}
	if dir == e.dir {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.dir = dir
		e.conf = 0
	}
	e.lastLine = la
	if e.conf < 1 {
		return nil
	}
	out := p.out[:0]
	l := int64(la)
	for i := 0; i < p.degree; i++ {
		l += int64(dir)
		if l < 0 {
			break
		}
		out = append(out, uint64(l)<<LineShift)
	}
	p.Issued += uint64(len(out))
	p.out = out
	return out
}

// Clone returns a deep copy of the stream table.
func (p *StreamPrefetcher) Clone() Prefetcher {
	cp := *p
	cp.entries = append([]streamEntry(nil), p.entries...)
	cp.out = make([]uint64, 0, p.degree)
	return &cp
}
