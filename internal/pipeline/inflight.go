package pipeline

import (
	"fmt"

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

// Inflight is one dynamic instruction in flight between rename and commit.
// The pipeline allocates one per dispatched µop; pointers to it live in the
// ROB, IQ, LQ/SQ and (when parked) the LTP.
type Inflight struct {
	U isa.Uop

	// Timeline (cycle numbers; zero means "not yet").
	FetchedAt uint64
	RenamedAt uint64
	IssuedAt  uint64
	DoneAt    uint64
	CommitAt  uint64

	// Rename state.
	DstPreg PReg         // NoPReg while parked with deferred allocation
	SrcPreg [2]PReg      // NoPReg when the producer is parked
	SrcProd [2]*Inflight // producer link used to resolve a parked source
	// SrcWriter tracks each source's producing instruction regardless of
	// parking (nil = architectural value); used by the WIB baseline.
	SrcWriter [2]*Inflight

	// Classification (written by the Parker; pipeline reads for stats).
	Urgent   bool
	NonReady bool
	PredLL   bool // predicted long-latency at rename
	Tickets  TicketMask

	// Parking state.
	Parked    bool // currently in the LTP
	WasParked bool // was ever parked (stats)

	// Memory state.
	HasLSQ      bool      // occupies its LQ/SQ entry
	AddrKnownAt uint64    // cycle the AGU resolved the address (0 = not yet)
	MemDone     uint64    // cycle load data is available
	MemLevel    mem.Level // hierarchy level that served the access
	Forwarded   bool      // load got its data from an older store
	DepStore    *Inflight // store this load is predicted to depend on

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

	// blockedUntil is an IQ scheduling hint: do not reconsider the entry
	// before this cycle (set when a load must wait for disambiguation).
	blockedUntil uint64

	// Event-driven select state (see IQ). While InIQ, iqState says where
	// the entry sits. waitOn holds, per needed source, the producer whose
	// issue will make that operand's ready cycle known (nil once known);
	// the entry sits on each such producer's waiters list, once per
	// distinct producer. iqAt is the earliest cycle the entry can issue
	// once no producer is pending: max(operand ready cycles, blockedUntil).
	iqState iqState
	waitOn  [2]*Inflight
	waiters []*Inflight
	iqAt    uint64

	// issueBlock records why the last tryIssueLoad refused this load
	// (watchdog diagnostics).
	issueBlock loadBlock

	// wibResident marks an instruction currently drained into the WIB
	// baseline's buffer.
	wibResident bool

	// pendingEvents counts timing events in the event heap that still
	// reference this record; the record pool must not recycle it before
	// they fire (a stale event firing on a reused record would corrupt an
	// unrelated instruction).
	pendingEvents int8
}

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
