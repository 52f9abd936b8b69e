package pipeline

import "sort"

// SeqList is a program-ordered list of in-flight instructions: the shape
// of every ordered structure — the IQ's ready list, the LQ, the SQ, the
// LL list, and the LTP's queue, free lists and ticket waiter lists. Its
// elements are Refs, so ordered searches read seqs without resolving
// handles and the list holds no pointers. Instructions mostly join near
// the tail (the youngest) and leave near the head (the oldest), so the
// list is a window buf[off:] into its array: a removal shifts whichever
// side of the slot is shorter, and the room that frees at the front is
// reclaimed when an insertion finds the array full. The steady state
// allocates nothing. The zero value is an empty list.
type SeqList struct {
	buf []Ref
	off int
}

// Items returns the instructions, oldest first. The slice aliases the
// list and is valid until the next change.
func (l *SeqList) Items() []Ref { return l.buf[l.off:] }

// Len returns the number of instructions.
func (l *SeqList) Len() int { return len(l.buf) - l.off }

// Front returns the oldest instruction (the zero Ref when empty).
func (l *SeqList) Front() Ref {
	if l.off == len(l.buf) {
		return Ref{}
	}
	return l.buf[l.off]
}

// Insert places f at its program-order position; inserting the youngest
// instruction costs a plain append.
func (l *SeqList) Insert(f *Inflight) {
	if len(l.buf) == cap(l.buf) && l.off > 0 {
		n := copy(l.buf, l.buf[l.off:])
		l.buf, l.off = l.buf[:n], 0
	}
	r := f.Ref()
	n := len(l.buf)
	l.buf = append(l.buf, r)
	if n == l.off || l.buf[n-1].Seq < r.Seq {
		return
	}
	i := l.off + sort.Search(n-l.off, func(i int) bool { return l.buf[l.off+i].Seq > r.Seq })
	copy(l.buf[i+1:], l.buf[i:n])
	l.buf[i] = r
}

// Remove drops f, which must be in the list.
func (l *SeqList) Remove(f *Inflight) {
	items := l.Items()
	seq := f.Seq()
	i := sort.Search(len(items), func(i int) bool { return items[i].Seq >= seq })
	if i == len(items) || items[i].H != f.h {
		panic("pipeline: SeqList.Remove of an absent instruction: " + f.String())
	}
	if i < len(items)/2 {
		copy(items[1:i+1], items[:i])
		l.off++
	} else {
		copy(items[i:], items[i+1:])
		l.buf = l.buf[:len(l.buf)-1]
	}
	l.resetIfEmpty()
}

// TruncateFrom drops the instructions with seq >= fromSeq (a squash),
// youngest first, calling drop, when non-nil, on each.
func (l *SeqList) TruncateFrom(fromSeq uint64, drop func(Ref)) {
	for l.Len() > 0 && l.buf[len(l.buf)-1].Seq >= fromSeq {
		last := len(l.buf) - 1
		if drop != nil {
			drop(l.buf[last])
		}
		l.buf = l.buf[:last]
	}
	l.resetIfEmpty()
}

// Clear empties the list, keeping its array.
func (l *SeqList) Clear() { l.buf, l.off = l.buf[:0], 0 }

func (l *SeqList) resetIfEmpty() {
	if l.off == len(l.buf) {
		l.buf, l.off = l.buf[:0], 0
	}
}

// Sweep starts a pass over the list, oldest first, in which each visited
// instruction is kept or dropped; Close compacts what was dropped. The
// list must not change otherwise until Close.
func (l *SeqList) Sweep() Sweep { return Sweep{l: l, r: l.off, w: l.off} }

// Sweep is a pass over a SeqList (see SeqList.Sweep). Kept instructions
// gather at buf[off:w]; r is the next one to visit.
type Sweep struct {
	l    *SeqList
	r, w int
}

// Peek returns the next instruction to visit (the zero Ref at the end).
func (s *Sweep) Peek() Ref {
	if s.r == len(s.l.buf) {
		return Ref{}
	}
	return s.l.buf[s.r]
}

// Keep leaves the visited instruction in the list.
func (s *Sweep) Keep() {
	s.l.buf[s.w] = s.l.buf[s.r]
	s.w++
	s.r++
}

// Drop removes the visited instruction from the list.
func (s *Sweep) Drop() { s.r++ }

// Close ends the pass, closing the gap the dropped instructions left by
// moving the shorter side: the kept run right, or the unvisited rest left.
func (s *Sweep) Close() {
	l := s.l
	if s.r == s.w {
		return
	}
	kept := s.w - l.off
	if kept <= len(l.buf)-s.r {
		copy(l.buf[s.r-kept:s.r], l.buf[l.off:s.w])
		l.off = s.r - kept
	} else {
		n := s.w + copy(l.buf[s.w:], l.buf[s.r:])
		l.buf = l.buf[:n]
	}
	l.resetIfEmpty()
}
