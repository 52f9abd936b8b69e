package pipeline

import (
	"fmt"

	"ltp/internal/isa"
)

// neverReady is a readiness timestamp meaning "value not produced yet".
const neverReady = ^uint64(0)

// RegFile models one class (integer or floating point) of the physical
// register file: a free list plus per-register readiness timestamps. The
// file holds NumArch + avail registers: the architectural state always
// occupies NumArch of them (paper footnote 4: the graphs show *available*
// registers).
//
// The file grows on first use, so an effectively unlimited one (the limit
// study's Inf) costs only the registers a run touches. Registers fresh
// and up have never been allocated; they sit, lowest first, under the
// LIFO free stack, which holds only registers freed since — exactly the
// order a stack preloaded with every rename register would pop.
type RegFile struct {
	name    string
	arch    int
	avail   int
	free    []PReg   // LIFO stack of freed registers
	fresh   int      // lowest never-allocated register
	readyAt []uint64 // per-preg cycle its value is available, up to fresh

	// Statistics.
	Allocs uint64
	Frees  uint64
}

// NewRegFile builds a register file with `arch` architectural and `avail`
// available rename registers. Registers 0..arch-1 start out mapped to the
// architectural state; arch..arch+avail-1 start out free and are
// allocated lowest first.
func NewRegFile(name string, arch, avail int) *RegFile {
	return &RegFile{
		name:    name,
		arch:    arch,
		avail:   avail,
		fresh:   arch,
		readyAt: make([]uint64, arch),
	}
}

// FreeCount returns the number of free registers.
func (rf *RegFile) FreeCount() int { return len(rf.free) + rf.arch + rf.avail - rf.fresh }

// InUse returns the number of rename registers currently allocated.
func (rf *RegFile) InUse() int { return rf.avail - rf.FreeCount() }

// Avail returns the configured number of available registers.
func (rf *RegFile) Avail() int { return rf.avail }

// Alloc takes a free register. ok=false when none is left.
func (rf *RegFile) Alloc() (PReg, bool) {
	var r PReg
	switch n := len(rf.free); {
	case n > 0:
		r = rf.free[n-1]
		rf.free = rf.free[:n-1]
		rf.readyAt[r] = neverReady
	case rf.fresh < rf.arch+rf.avail:
		r = PReg(rf.fresh)
		rf.fresh++
		rf.readyAt = append(rf.readyAt, neverReady)
	default:
		return NoPReg, false
	}
	rf.Allocs++
	return r, true
}

// Free returns a register to the free list.
func (rf *RegFile) Free(r PReg) {
	if r == NoPReg {
		return
	}
	if int(r) < 0 || int(r) >= len(rf.readyAt) {
		panic(fmt.Sprintf("pipeline: %s free of invalid preg %d", rf.name, r))
	}
	rf.free = append(rf.free, r)
	rf.Frees++
}

// SetReady marks the register's value available from the given cycle.
func (rf *RegFile) SetReady(r PReg, at uint64) { rf.readyAt[r] = at }

// ReadyAt returns the cycle the register's value is available
// (neverReady if not produced yet).
func (rf *RegFile) ReadyAt(r PReg) uint64 { return rf.readyAt[r] }

// Ready reports whether the register's value is available at cycle now.
func (rf *RegFile) Ready(r PReg, now uint64) bool { return rf.readyAt[r] <= now }

// ratEntry is one speculative RAT mapping: either a concrete physical
// register, or a link to a parked producer whose destination register has
// not been allocated yet (late allocation). writer tracks the latest
// producing instruction regardless of parking (used by the WIB baseline's
// dependence-chain drain).
type ratEntry struct {
	preg   PReg
	prod   Handle // set while the latest writer is parked
	writer Handle // latest writer, parked or not (zero = architectural)
}

// RAT is the speculative register alias table over the flat architectural
// register space (int + fp), plus the retirement (commit) RAT used for
// register reclamation and squash recovery.
type RAT struct {
	spec   [isa.NumArchRegs]ratEntry
	commit [isa.NumArchRegs]PReg
}

// NewRAT returns a RAT with the identity initial mapping: architectural
// register i maps to physical register i of its class.
func NewRAT() *RAT {
	rat := &RAT{}
	for i := 0; i < isa.NumArchRegs; i++ {
		p := classIndex(isa.Reg(i))
		rat.spec[i] = ratEntry{preg: p}
		rat.commit[i] = p
	}
	return rat
}

// classIndex maps an architectural register to its initial physical index
// within its class file (int regs index the int file, fp regs the fp file).
func classIndex(r isa.Reg) PReg {
	if r.IsFP() {
		return PReg(int(r) - isa.NumIntRegs)
	}
	return PReg(r)
}

// Lookup returns the current mapping for an architectural register.
func (rat *RAT) Lookup(r isa.Reg) (PReg, Handle) {
	e := rat.spec[r]
	return e.preg, e.prod
}

// Writer returns the latest in-flight writer of r (zero if architectural).
func (rat *RAT) Writer(r isa.Reg) Handle { return rat.spec[r].writer }

// WritePhys records a concrete mapping (normal rename).
func (rat *RAT) WritePhys(r isa.Reg, p PReg) {
	rat.spec[r] = ratEntry{preg: p}
}

// WritePhysBy records a concrete mapping with its producing instruction.
func (rat *RAT) WritePhysBy(r isa.Reg, p PReg, w Handle) {
	rat.spec[r] = ratEntry{preg: p, writer: w}
}

// WriteParked records a parked producer as the latest writer (its physical
// register is deferred).
func (rat *RAT) WriteParked(r isa.Reg, prod Handle) {
	rat.spec[r] = ratEntry{preg: NoPReg, prod: prod, writer: prod}
}

// ResolveParked upgrades a parked mapping to a concrete register, but only
// if the parked instruction is still the latest writer.
func (rat *RAT) ResolveParked(r isa.Reg, prod Handle, p PReg) {
	if rat.spec[r].prod == prod {
		rat.spec[r] = ratEntry{preg: p, writer: prod}
	}
}

// CommitMapping retires a writer: it returns the previous committed
// mapping (to be freed) and installs the new one.
func (rat *RAT) CommitMapping(r isa.Reg, p PReg) (prev PReg) {
	prev = rat.commit[r]
	rat.commit[r] = p
	return prev
}

// Retire forgets a committing writer as the latest writer of r, if it
// still is: a link to a committed instruction carries no information
// (its value is ready), and dropping it keeps every writer link inside
// the window in which records are not reused.
func (rat *RAT) Retire(r isa.Reg, w Handle) {
	if rat.spec[r].writer == w {
		rat.spec[r].writer = 0
	}
}

// CommittedPreg returns the committed mapping for an architectural register.
func (rat *RAT) CommittedPreg(r isa.Reg) PReg { return rat.commit[r] }

// RestoreFromCommit resets the speculative RAT to the committed state
// (used as the base of squash recovery before surviving writers are
// replayed on top).
func (rat *RAT) RestoreFromCommit() {
	for i := range rat.spec {
		rat.spec[i] = ratEntry{preg: rat.commit[i]}
	}
}

// SrcParked reports whether the latest writer of r is parked.
func (rat *RAT) SrcParked(r isa.Reg) bool {
	return r.Valid() && rat.spec[r].prod != 0
}
