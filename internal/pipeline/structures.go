package pipeline

// ROB is the reorder buffer: a bounded FIFO of in-flight instructions in
// program order. It is consumed from a head index and compacted in place,
// so the steady state allocates nothing; the array grows with the
// occupancy actually reached, not the capacity.
type ROB struct {
	slab    *slab
	entries []Handle
	head    int
	size    int
	scratch []Handle // reused squash-victim buffer
}

// newROB returns a ROB with the given capacity over a record slab.
func newROB(size int, s *slab) *ROB { return &ROB{size: size, slab: s} }

// Full reports whether dispatch must stall.
func (r *ROB) Full() bool { return len(r.entries)-r.head >= r.size }

// Len returns the current occupancy.
func (r *ROB) Len() int { return len(r.entries) - r.head }

// Cap returns the capacity.
func (r *ROB) Cap() int { return r.size }

// Push appends a dispatched instruction.
func (r *ROB) Push(f *Inflight) { r.entries = append(r.entries, f.h) }

// Head returns the oldest in-flight instruction (nil when empty).
func (r *ROB) Head() *Inflight {
	if r.head >= len(r.entries) {
		return nil
	}
	return r.slab.at(r.entries[r.head])
}

// PopHead removes the oldest instruction (after commit).
func (r *ROB) PopHead() {
	r.head++
	switch {
	case r.head >= len(r.entries):
		r.entries = r.entries[:0]
		r.head = 0
	case r.head >= r.size:
		n := copy(r.entries, r.entries[r.head:])
		r.entries = r.entries[:n]
		r.head = 0
	}
}

// SquashFrom removes all instructions with seq >= fromSeq (youngest first)
// and returns their handles for resource reclamation. The returned slice
// is reused across calls.
func (r *ROB) SquashFrom(fromSeq uint64) []Handle {
	cut := len(r.entries)
	for cut > r.head && r.slab.at(r.entries[cut-1]).Seq() >= fromSeq {
		cut--
	}
	r.scratch = append(r.scratch[:0], r.entries[cut:]...)
	r.entries = r.entries[:cut]
	return r.scratch
}

// Walk calls fn on every in-flight instruction, oldest first.
func (r *ROB) Walk(fn func(*Inflight)) {
	for _, h := range r.entries[r.head:] {
		fn(r.slab.at(h))
	}
}

// iqState says where an IQ entry sits in the event-driven select.
type iqState uint8

const (
	iqOut     iqState = iota // not in the IQ
	iqWaiting                // on the waiters list of each pending producer
	iqTimed                  // operands known; an evIQReady event fires at iqAt
	iqReady                  // in IQ.ready: select examines it this cycle
)

// IQ is the unified instruction queue. It holds no list of all its
// entries: an entry is InIQ and in exactly one of three places (see
// iqState), and select walks only ready, the entries whose operands are
// available by now, kept in program order so select stays oldest first.
// The Pipeline moves entries between the places (iq.go).
type IQ struct {
	n     int
	size  int
	ready SeqList
}

// NewIQ returns an IQ with the given capacity.
func NewIQ(size int) *IQ { return &IQ{size: size} }

// Full reports whether dispatch must stall.
func (q *IQ) Full() bool { return q.n >= q.size }

// Len returns the occupancy.
func (q *IQ) Len() int { return q.n }

// Cap returns the capacity.
func (q *IQ) Cap() int { return q.size }

// lsq is a bounded program-ordered queue: the LQ or the SQ. Entries may
// join out of program order (late LSQ allocation in the limit study); the
// SeqList keeps them sorted by seq.
type lsq struct {
	SeqList
	size int
}

// Full reports whether the queue is at capacity.
func (q *lsq) Full() bool { return q.Len() >= q.size }

// Cap returns the capacity.
func (q *lsq) Cap() int { return q.size }

// FreeSlots returns the number of unused entries.
func (q *lsq) FreeSlots() int { return q.size - q.Len() }
