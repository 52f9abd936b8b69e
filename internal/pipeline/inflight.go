package pipeline

import (
	"fmt"
	"sync"

	"ltp/internal/isa"
	"ltp/internal/mem"
)

// PReg identifies a physical register within its class's register file.
type PReg int32

// NoPReg marks an unallocated physical register (e.g. a parked
// instruction's destination before it leaves LTP).
const NoPReg PReg = -1

// TicketMask is a bit set over up to 128 long-latency tickets (paper
// Appendix, Fig. 11 sweeps 4..128 tickets). The pipeline treats it as
// opaque; internal/core interprets it.
type TicketMask [2]uint64

// Empty reports whether no tickets are set.
func (t TicketMask) Empty() bool { return t[0] == 0 && t[1] == 0 }

// Set sets ticket i.
func (t *TicketMask) Set(i int) { t[i>>6] |= 1 << uint(i&63) }

// Clear clears ticket i.
func (t *TicketMask) Clear(i int) { t[i>>6] &^= 1 << uint(i&63) }

// Has reports whether ticket i is set.
func (t TicketMask) Has(i int) bool { return t[i>>6]&(1<<uint(i&63)) != 0 }

// Or merges another mask in.
func (t *TicketMask) Or(o TicketMask) { t[0] |= o[0]; t[1] |= o[1] }

// Count returns the number of set tickets.
func (t TicketMask) Count() int { return popcount(t[0]) + popcount(t[1]) }

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Handle names an Inflight record in its pipeline's slab. Every link
// between records and every container of in-flight instructions holds
// handles, not pointers, so the cycle loop writes nothing the garbage
// collector has to trace. The zero Handle names no record.
type Handle uint32

// Ref is a program-ordered list element: a record's handle next to its
// sequence number, so ordered searches compare seqs without resolving
// the handle.
type Ref struct {
	Seq uint64
	H   Handle
}

// Uop is the label-free copy of an isa.Uop that in-flight records, the
// replay buffer and the decode queue keep: every field the timing model
// reads, and no string for the collector to scan.
type Uop struct {
	Seq  uint64
	PC   uint64
	Op   isa.Op
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg

	Addr uint64
	Size uint8

	Taken  bool
	Target uint64
}

// uopOf copies the timing fields of an emulated µop.
func uopOf(u *isa.Uop) Uop {
	return Uop{Seq: u.Seq, PC: u.PC, Op: u.Op, Dst: u.Dst, Src1: u.Src1, Src2: u.Src2,
		Addr: u.Addr, Size: u.Size, Taken: u.Taken, Target: u.Target}
}

// String renders the µop for diagnostics.
func (u *Uop) String() string {
	iu := isa.Uop{Seq: u.Seq, PC: u.PC, Op: u.Op, Dst: u.Dst, Src1: u.Src1, Src2: u.Src2,
		Addr: u.Addr, Size: u.Size, Taken: u.Taken, Target: u.Target}
	return iu.String()
}

// Inflight is one dynamic instruction in flight between rename and commit.
// The pipeline allocates one per dispatched µop from its slab; the ROB,
// IQ, LQ/SQ and (when parked) the LTP name it by Handle. It holds no
// pointers.
type Inflight struct {
	U Uop

	// Timeline (cycle numbers; zero means "not yet").
	FetchedAt uint64
	RenamedAt uint64
	IssuedAt  uint64
	DoneAt    uint64
	CommitAt  uint64

	// Memory state.
	AddrKnownAt uint64    // cycle the AGU resolved the address (0 = not yet)
	MemDone     uint64    // cycle load data is available
	DepStore    Handle    // store this load is predicted to depend on
	MemLevel    mem.Level // hierarchy level that served the access
	HasLSQ      bool      // occupies its LQ/SQ entry
	Forwarded   bool      // load got its data from an older store

	// Rename state.
	DstPreg PReg      // NoPReg while parked with deferred allocation
	SrcPreg [2]PReg   // NoPReg when the producer is parked
	SrcProd [2]Handle // producer link used to resolve a parked source
	// SrcWriter tracks each source's producing instruction regardless of
	// parking (zero = architectural value); used by the WIB baseline.
	SrcWriter [2]Handle

	// Classification (written by the Parker; pipeline reads for stats).
	Tickets  TicketMask
	Urgent   bool
	NonReady bool
	PredLL   bool // predicted long-latency at rename

	// Parking state.
	Parked    bool // currently in the LTP
	WasParked bool // was ever parked (stats)

	// Execution state.
	InIQ      bool
	Issued    bool
	Done      bool
	Committed bool
	Squashed  bool

	// LL marks a detected long-latency instruction (LLC-missing load,
	// divide, square root).
	LL bool

	// Mispred marks a branch the front-end mispredicted: fetch is stalled
	// until it resolves.
	Mispred bool

	// issueBlock records why the last tryIssueLoad refused this load
	// (watchdog diagnostics).
	issueBlock loadBlock

	// wibResident marks an instruction currently drained into the WIB
	// baseline's buffer.
	wibResident bool

	// pendingEvents counts timing events in the event heap that still
	// reference this record; the slab must not recycle it before they
	// fire (a stale event firing on a reused record would corrupt an
	// unrelated instruction).
	pendingEvents int8

	// blockedUntil is an IQ scheduling hint: do not reconsider the entry
	// before this cycle (set when a load must wait for disambiguation).
	blockedUntil uint64

	// Event-driven select state (see IQ). While InIQ, iqState says where
	// the entry sits. waitOn holds, per needed source, the producer whose
	// issue will make that operand's ready cycle known (zero once known);
	// the entry sits on each such producer's waiters list, once per
	// distinct producer. The lists are intrusive: a list node is a
	// (record, source slot) pair, waitNext[i] links the node of slot i to
	// the next one, and waitHead/waitTail bound this record's own list
	// (see waitNode). iqAt is the earliest cycle the entry can issue once
	// no producer is pending: max(operand ready cycles, blockedUntil).
	iqAt     uint64
	waitOn   [2]Handle
	waitNext [2]waitNode
	waitHead waitNode
	waitTail waitNode
	iqState  iqState

	// pooled marks a record on the slab's free list (CheckInvariants
	// rejects handles to it); h is the record's own handle.
	pooled bool
	h      Handle
}

// Handle returns the record's handle in its pipeline's slab.
func (f *Inflight) Handle() Handle { return f.h }

// Ref returns the record's list element.
func (f *Inflight) Ref() Ref { return Ref{Seq: f.U.Seq, H: f.h} }

// Seq returns the dynamic sequence number.
func (f *Inflight) Seq() uint64 { return f.U.Seq }

// IsLoad reports whether the instruction is a load.
func (f *Inflight) IsLoad() bool { return f.U.Op == isa.Load }

// IsStore reports whether the instruction is a store.
func (f *Inflight) IsStore() bool { return f.U.Op == isa.Store }

// HasDst reports whether the instruction writes a register.
func (f *Inflight) HasDst() bool { return f.U.Dst.Valid() }

// String renders a diagnostic summary.
func (f *Inflight) String() string {
	st := "disp"
	switch {
	case f.Committed:
		st = "commit"
	case f.Done:
		st = "done"
	case f.Issued:
		st = "issued"
	case f.Parked:
		st = "parked"
	case f.InIQ:
		st = "iq"
	}
	return fmt.Sprintf("{%s %s U=%v NR=%v LL=%v}", f.U.String(), st, f.Urgent, f.NonReady, f.LL)
}

// slabShift sizes the slab's chunks: 256 records each.
const (
	slabShift = 8
	slabChunk = 1 << slabShift
	slabMask  = slabChunk - 1
)

// slab owns a pipeline's Inflight records. They live in fixed-size
// chunks, so a record never moves and a *Inflight taken from a handle
// stays valid while the record does; a pipeline with a few hundred
// instructions in flight uses a few chunks, recycled between pipelines
// (see Pipeline.Release). Handle 0 (the first slot) is never handed out.
type slab struct {
	chunks []*[slabChunk]Inflight
	n      Handle // slots handed out so far, including the reserved one
}

// chunkPool recycles slab chunks between pipelines.
var chunkPool = sync.Pool{New: func() any { return new([slabChunk]Inflight) }}

// at resolves a handle.
func (s *slab) at(h Handle) *Inflight { return &s.chunks[h>>slabShift][h&slabMask] }

// fresh hands out a never-used record.
func (s *slab) fresh() *Inflight {
	if s.n == 0 {
		s.n = 1 // reserve the zero handle
	}
	if int(s.n>>slabShift) == len(s.chunks) {
		s.chunks = append(s.chunks, chunkPool.Get().(*[slabChunk]Inflight))
	}
	h := s.n
	s.n++
	f := s.at(h)
	*f = Inflight{h: h}
	return f
}

// release returns the chunks to the pool, dropping every record.
func (s *slab) release() {
	for _, c := range s.chunks {
		chunkPool.Put(c)
	}
	s.chunks, s.n = nil, 0
}

// valid reports whether h names a slot the slab has handed out.
func (s *slab) valid(h Handle) bool { return h != 0 && h < s.n }
