package pipeline

// insertBySeq places f at its program-order position in a seq-sorted
// slice. The common case — inserting the youngest instruction — costs a
// plain append.
func insertBySeq(s []*Inflight, f *Inflight) []*Inflight {
	n := len(s)
	if n == 0 || s[n-1].Seq() < f.Seq() {
		return append(s, f)
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].Seq() > f.Seq() {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s = append(s, nil)
	copy(s[lo+1:], s[lo:])
	s[lo] = f
	return s
}

// ROB is the reorder buffer: a bounded FIFO of in-flight instructions in
// program order. It is consumed from a head index and compacted in place,
// so the steady state allocates nothing.
type ROB struct {
	entries []*Inflight
	head    int
	size    int
	scratch []*Inflight // reused squash-victim buffer
}

// NewROB returns a ROB with the given capacity.
func NewROB(size int) *ROB {
	return &ROB{size: size, entries: make([]*Inflight, 0, 2*size)}
}

// Full reports whether dispatch must stall.
func (r *ROB) Full() bool { return len(r.entries)-r.head >= r.size }

// Len returns the current occupancy.
func (r *ROB) Len() int { return len(r.entries) - r.head }

// Cap returns the capacity.
func (r *ROB) Cap() int { return r.size }

// Push appends a dispatched instruction.
func (r *ROB) Push(f *Inflight) { r.entries = append(r.entries, f) }

// Head returns the oldest in-flight instruction (nil when empty).
func (r *ROB) Head() *Inflight {
	if r.head >= len(r.entries) {
		return nil
	}
	return r.entries[r.head]
}

// PopHead removes the oldest instruction (after commit).
func (r *ROB) PopHead() {
	r.entries[r.head] = nil
	r.head++
	switch {
	case r.head >= len(r.entries):
		r.entries = r.entries[:0]
		r.head = 0
	case r.head >= r.size:
		n := copy(r.entries, r.entries[r.head:])
		for i := n; i < len(r.entries); i++ {
			r.entries[i] = nil
		}
		r.entries = r.entries[:n]
		r.head = 0
	}
}

// SquashFrom removes all instructions with seq >= fromSeq (youngest first)
// and returns them for resource reclamation. The returned slice is reused
// across calls.
func (r *ROB) SquashFrom(fromSeq uint64) []*Inflight {
	cut := len(r.entries)
	for cut > r.head && r.entries[cut-1].Seq() >= fromSeq {
		cut--
	}
	r.scratch = append(r.scratch[:0], r.entries[cut:]...)
	for i := cut; i < len(r.entries); i++ {
		r.entries[i] = nil
	}
	r.entries = r.entries[:cut]
	return r.scratch
}

// Walk calls fn on every in-flight instruction, oldest first.
func (r *ROB) Walk(fn func(*Inflight)) {
	for _, f := range r.entries[r.head:] {
		fn(f)
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

// orderedQueue is a program-ordered bounded queue used for the LQ and SQ.
// Entries may be inserted out of program order (late LSQ allocation in the
// limit study) so insertion keeps the slice sorted by seq.
type orderedQueue struct {
	entries []*Inflight
	size    int
}

func newOrderedQueue(size int) *orderedQueue { return &orderedQueue{size: size} }

// Full reports whether the queue is at capacity.
func (o *orderedQueue) Full() bool { return len(o.entries) >= o.size }

// Len returns the occupancy.
func (o *orderedQueue) Len() int { return len(o.entries) }

// Cap returns the capacity.
func (o *orderedQueue) Cap() int { return o.size }

// FreeSlots returns the number of unused entries.
func (o *orderedQueue) FreeSlots() int { return o.size - len(o.entries) }

// Insert places f at its program-order position.
func (o *orderedQueue) Insert(f *Inflight) {
	o.entries = insertBySeq(o.entries, f)
}

// Remove drops f.
func (o *orderedQueue) Remove(f *Inflight) {
	for i, e := range o.entries {
		if e == f {
			o.entries = append(o.entries[:i], o.entries[i+1:]...)
			return
		}
	}
}

// SquashFrom drops all entries with seq >= fromSeq.
func (o *orderedQueue) SquashFrom(fromSeq uint64) {
	w := o.entries[:0]
	for _, e := range o.entries {
		if e.Seq() < fromSeq {
			w = append(w, e)
		}
	}
	o.entries = w
}

// Walk calls fn oldest-first.
func (o *orderedQueue) Walk(fn func(*Inflight)) {
	for _, e := range o.entries {
		fn(e)
	}
}
