// Package isa defines the micro-ISA used by the LTP reproduction: a small
// load/store RISC instruction set rich enough to express the dependence and
// miss patterns the paper's evaluation relies on (address generation chains,
// pointer chasing, long-latency divides, streaming stores) while staying
// simple enough for an exact functional emulator.
//
// Two instruction forms exist:
//
//   - Inst: the static form produced by the program builder (internal/prog).
//     Operands are architectural registers or immediates.
//   - Uop: the dynamic form produced by the functional emulator. It carries
//     the resolved effective address for memory operations and the resolved
//     outcome for branches, which is what a trace-driven timing model needs.
package isa

import "fmt"

// Op enumerates the micro-ISA opcodes.
type Op uint8

const (
	// Nop does nothing. It still occupies front-end slots and a ROB entry.
	Nop Op = iota
	// IAdd is integer add/sub/logic: 1-cycle ALU.
	IAdd
	// IMul is integer multiply: pipelined 3-cycle.
	IMul
	// IDiv is integer divide: unpipelined long latency (a "long-latency"
	// instruction class in the paper, like sqrt).
	IDiv
	// FAdd is floating-point add: pipelined 3-cycle.
	FAdd
	// FMul is floating-point multiply: pipelined 4-cycle.
	FMul
	// FDiv is floating-point divide: unpipelined long latency.
	FDiv
	// FSqrt is floating-point square root: unpipelined long latency.
	FSqrt
	// Load reads 8 bytes from memory.
	Load
	// Store writes 8 bytes to memory.
	Store
	// Branch is a conditional branch (direction + target resolved by the
	// emulator).
	Branch
	// NumOps is the number of opcodes; keep last.
	NumOps
)

var opNames = [NumOps]string{
	Nop: "nop", IAdd: "iadd", IMul: "imul", IDiv: "idiv",
	FAdd: "fadd", FMul: "fmul", FDiv: "fdiv", FSqrt: "fsqrt",
	Load: "load", Store: "store", Branch: "branch",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the opcode accesses memory.
func (o Op) IsMem() bool { return o == Load || o == Store }

// IsLongLatencyALU reports whether the opcode is a non-memory long-latency
// operation (divide or square root), one of the paper's long-latency
// instruction classes.
func (o Op) IsLongLatencyALU() bool { return o == IDiv || o == FDiv || o == FSqrt }

// FUKind identifies the functional-unit class an opcode executes on.
type FUKind uint8

const (
	// FUALU executes simple integer operations and branches.
	FUALU FUKind = iota
	// FUMul executes integer multiplies.
	FUMul
	// FUDiv executes integer divides (unpipelined).
	FUDiv
	// FUFP executes pipelined floating-point adds/multiplies.
	FUFP
	// FUFDiv executes FP divides and square roots (unpipelined).
	FUFDiv
	// FUMem executes loads and stores (address generation + cache port).
	FUMem
	// NumFUKinds is the number of FU classes; keep last.
	NumFUKinds
)

var fuNames = [NumFUKinds]string{
	FUALU: "alu", FUMul: "mul", FUDiv: "div", FUFP: "fp", FUFDiv: "fdiv", FUMem: "mem",
}

// String returns the FU class name.
func (k FUKind) String() string { return fuNames[k] }

// FU returns the functional-unit class for the opcode.
func (o Op) FU() FUKind {
	switch o {
	case IMul:
		return FUMul
	case IDiv:
		return FUDiv
	case FAdd, FMul:
		return FUFP
	case FDiv, FSqrt:
		return FUFDiv
	case Load, Store:
		return FUMem
	default:
		return FUALU
	}
}

// Latency is the execution latency in cycles for each opcode, excluding
// memory access time for loads/stores (the cache hierarchy adds that).
// Divide/sqrt latencies are in the range the paper treats as "long latency"
// alongside LLC misses.
var Latency = [NumOps]int{
	Nop:    1,
	IAdd:   1,
	IMul:   3,
	IDiv:   20,
	FAdd:   3,
	FMul:   4,
	FDiv:   24,
	FSqrt:  24,
	Load:   1, // AGU cycle; cache adds the rest
	Store:  1, // AGU cycle; data written at commit
	Branch: 1,
}

// Pipelined reports whether the opcode's FU accepts a new operation every
// cycle. Divides and square roots are unpipelined, matching conventional
// designs.
var Pipelined = [NumOps]bool{
	Nop: true, IAdd: true, IMul: true, IDiv: false,
	FAdd: true, FMul: true, FDiv: false, FSqrt: false,
	Load: true, Store: true, Branch: true,
}

// Reg is an architectural register identifier. The ISA has NumIntRegs
// integer registers (r0..r31) and NumFPRegs floating-point registers
// (f0..f31) mapped to a single flat space; NoReg means "no operand".
type Reg int16

const (
	// NoReg marks an absent operand.
	NoReg Reg = -1
	// NumIntRegs is the number of architectural integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of architectural floating-point registers.
	NumFPRegs = 32
	// NumArchRegs is the total architectural register count.
	NumArchRegs = NumIntRegs + NumFPRegs
)

// R returns the i'th integer register.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// F returns the i'th floating-point register.
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return Reg(NumIntRegs + i)
}

// IsFP reports whether the register is in the floating-point class.
func (r Reg) IsFP() bool { return r >= NumIntRegs }

// Valid reports whether the register is a real register (not NoReg).
func (r Reg) Valid() bool { return r >= 0 && r < NumArchRegs }

// String formats the register as r<i> or f<i>.
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	default:
		return fmt.Sprintf("r%d", int(r))
	}
}

// BranchCond enumerates branch conditions for the static form.
type BranchCond uint8

const (
	// CondNever is used by non-branches.
	CondNever BranchCond = iota
	// CondEQ branches when the source register is zero.
	CondEQ
	// CondNE branches when the source register is non-zero.
	CondNE
	// CondLT branches when the source register is negative.
	CondLT
	// CondGE branches when the source register is non-negative.
	CondGE
	// CondAlways is an unconditional branch.
	CondAlways
)

// Inst is the static instruction form emitted by the program builder.
type Inst struct {
	Op   Op
	Dst  Reg   // destination register, NoReg if none
	Src1 Reg   // first source, NoReg if none
	Src2 Reg   // second source, NoReg if none
	Imm  int64 // immediate: ALU constant, or address displacement for memory

	// Branch fields.
	Cond   BranchCond
	Target int // static program index of the branch target

	// Label is an optional human-readable tag used in listings and tests
	// (e.g. the paper's Fig. 2 uses letters A..K).
	Label string
}

// String renders a compact assembly-like listing line.
func (in Inst) String() string {
	lbl := in.Label
	if lbl != "" {
		lbl += ": "
	}
	switch in.Op {
	case Branch:
		return fmt.Sprintf("%s%s %s, ->%d", lbl, in.Op, in.Src1, in.Target)
	case Load:
		return fmt.Sprintf("%s%s %s, [%s+%d]", lbl, in.Op, in.Dst, in.Src1, in.Imm)
	case Store:
		return fmt.Sprintf("%s%s [%s+%d], %s", lbl, in.Op, in.Src1, in.Imm, in.Src2)
	default:
		return fmt.Sprintf("%s%s %s, %s, %s, #%d", lbl, in.Op, in.Dst, in.Src1, in.Src2, in.Imm)
	}
}

// Uop is one dynamic instruction produced by the functional emulator: the
// unit the timing pipeline operates on.
type Uop struct {
	Seq  uint64 // dynamic sequence number, starting at 0
	PC   uint64 // static PC (program index scaled by 4 + program base)
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg

	// Memory operands (valid when Op.IsMem()).
	Addr uint64 // effective byte address
	Size uint8  // access size in bytes (always 8 in this ISA)

	// Branch resolution (valid when Op == Branch).
	Taken  bool
	Target uint64 // resolved next PC

	Label string // static label, for diagnostics
}

// IsMem reports whether the µop accesses memory.
func (u *Uop) IsMem() bool { return u.Op.IsMem() }

// IsBranch reports whether the µop is a branch.
func (u *Uop) IsBranch() bool { return u.Op == Branch }

// String renders the µop for diagnostics.
func (u *Uop) String() string {
	s := fmt.Sprintf("#%d pc=%#x %s", u.Seq, u.PC, u.Op)
	if u.Label != "" {
		s += " [" + u.Label + "]"
	}
	if u.Dst.Valid() {
		s += " dst=" + u.Dst.String()
	}
	if u.Src1.Valid() {
		s += " s1=" + u.Src1.String()
	}
	if u.Src2.Valid() {
		s += " s2=" + u.Src2.String()
	}
	if u.IsMem() {
		s += fmt.Sprintf(" addr=%#x", u.Addr)
	}
	if u.IsBranch() {
		s += fmt.Sprintf(" taken=%v tgt=%#x", u.Taken, u.Target)
	}
	return s
}
