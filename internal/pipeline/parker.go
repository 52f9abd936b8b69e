package pipeline

// Parker is the hook through which the Long Term Parking unit
// (internal/core) attaches to the pipeline. The pipeline calls these
// methods at well-defined points; a Parker that always declines to park
// (NullParker) yields the unmodified baseline core.
//
// Contract: if ShouldPark returns true the pipeline skips physical
// register allocation (and, with Config.LateLSQAlloc, LQ/SQ allocation)
// and hands the instruction to Park instead of the IQ. The Parker must
// eventually release every live parked instruction from Wake — producers
// no later than consumers, so late renaming can always resolve sources —
// or the ROB would stall forever; the pipeline's watchdog aborts if that
// contract is broken.
//
// Run advances time across idle stretches (see Pipeline.Run), so a
// Parker must also declare its time-driven state: NextChange names the
// next cycle at which that state, or a per-cycle statistic, changes
// with no pipeline activity, and SkipCycles accounts for the cycles Run
// did not simulate.
type Parker interface {
	// OnRename is called for every renamed instruction, parked or not,
	// before ShouldPark, so the Parker can maintain its RAT extensions
	// (producer PCs, tickets, parked bits) and classify the instruction.
	OnRename(p *Pipeline, f *Inflight, now uint64)

	// ShouldPark decides whether the instruction is parked at rename.
	ShouldPark(p *Pipeline, f *Inflight, now uint64) bool

	// CanAccept reports whether the LTP can take another instruction this
	// cycle (entry capacity and write-port bandwidth). When it returns
	// false for an instruction that must be parked, rename stalls.
	CanAccept(now uint64) bool

	// Park enqueues the instruction.
	Park(p *Pipeline, f *Inflight, now uint64)

	// Wake releases up to max instructions from the LTP this cycle,
	// respecting read-port bandwidth and the design's wakeup policy. For
	// each released instruction the Parker must call p.CanUnpark first
	// and then p.Unpark. It returns the number released. pressure is
	// true when the pipeline is stalled on a resource that only commits
	// can free, in which case the Parker should release its oldest
	// instruction regardless of policy (paper §5.4).
	Wake(p *Pipeline, now uint64, max int, pressure bool) int

	// ParkedStoreConflict reports whether a parked store older than seq
	// has the given address; such loads must wait (paper §5.3 and the
	// late LSQ allocation of the limit study).
	ParkedStoreConflict(addr uint64, seq uint64) bool

	// NoteLoadIssued reports a load's observed latency class as soon as
	// the cache access completes timing-wise (used by the LL detector,
	// the DRAM-timer monitor, and ticket early wakeup).
	NoteLoadIssued(p *Pipeline, f *Inflight, now uint64)

	// NoteExecDone reports instruction completion (ticket broadcast).
	NoteExecDone(p *Pipeline, f *Inflight, now uint64)

	// NoteCommit reports commit (UIT insertion for LL loads).
	NoteCommit(p *Pipeline, f *Inflight, now uint64)

	// NoteSquash tells the Parker to drop parked instructions with
	// seq >= fromSeq and invalidate RAT-extension state they produced.
	NoteSquash(p *Pipeline, fromSeq uint64, now uint64)

	// NoteCycle runs once per simulated cycle (monitor timer, occupancy
	// statistics).
	NoteCycle(p *Pipeline, now uint64)

	// NextChange is asked after an idle cycle now (one in which the
	// pipeline changed no state): it returns the earliest cycle after
	// now at which the Parker's hooks can act differently from how they
	// acted in cycle now with the pipeline left as it is — a timed
	// event falling due, a timer expiring. It returns now+1 when the
	// Parker's own state changed during cycle now, and never (^0) when
	// only pipeline activity can change it.
	NextChange(now uint64) uint64

	// SkipCycles accounts for k cycles after now that Run skipped
	// because NextChange and the pipeline's own bounds showed each of
	// them would repeat idle cycle now: every per-cycle statistic
	// NoteCycle and Wake keep advances as k more such cycles would
	// have advanced it.
	SkipCycles(now, k uint64)

	// ParkedCount returns the number of instructions currently parked.
	ParkedCount() int
}

// NullParker is the baseline: nothing is ever parked.
type NullParker struct{}

// OnRename implements Parker.
func (NullParker) OnRename(*Pipeline, *Inflight, uint64) {}

// ShouldPark implements Parker.
func (NullParker) ShouldPark(*Pipeline, *Inflight, uint64) bool { return false }

// CanAccept implements Parker.
func (NullParker) CanAccept(uint64) bool { return false }

// Park implements Parker.
func (NullParker) Park(*Pipeline, *Inflight, uint64) {
	panic("pipeline: NullParker.Park called")
}

// Wake implements Parker.
func (NullParker) Wake(*Pipeline, uint64, int, bool) int { return 0 }

// ParkedStoreConflict implements Parker.
func (NullParker) ParkedStoreConflict(uint64, uint64) bool { return false }

// NoteLoadIssued implements Parker.
func (NullParker) NoteLoadIssued(*Pipeline, *Inflight, uint64) {}

// NoteExecDone implements Parker.
func (NullParker) NoteExecDone(*Pipeline, *Inflight, uint64) {}

// NoteCommit implements Parker.
func (NullParker) NoteCommit(*Pipeline, *Inflight, uint64) {}

// NoteSquash implements Parker.
func (NullParker) NoteSquash(*Pipeline, uint64, uint64) {}

// NoteCycle implements Parker.
func (NullParker) NoteCycle(*Pipeline, uint64) {}

// NextChange implements Parker: the baseline has no time-driven state.
func (NullParker) NextChange(uint64) uint64 { return never }

// SkipCycles implements Parker.
func (NullParker) SkipCycles(uint64, uint64) {}

// ParkedCount implements Parker.
func (NullParker) ParkedCount() int { return 0 }

var _ Parker = NullParker{}
