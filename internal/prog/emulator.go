package prog

import (
	"math"

	"ltp/internal/isa"
)

// Emulator executes a Program functionally and yields its dynamic µop
// stream. Programs with infinite loops are supported: the caller simply
// stops pulling when its instruction budget is exhausted.
//
// FP registers hold float64 values reinterpreted as int64 bit patterns;
// arithmetic on them uses real float64 semantics so divides and square
// roots behave sensibly, while integer registers use exact int64 math so
// addresses and loop counts are precise.
type Emulator struct {
	prog *Program
	mem  *Memory
	regs [isa.NumArchRegs]int64
	pc   int // static instruction index
	seq  uint64
	done bool
}

// NewEmulator returns an Emulator positioned at the first instruction of p,
// with p's initial register and memory state applied.
func NewEmulator(p *Program) *Emulator {
	e := &Emulator{prog: p, mem: NewMemory()}
	for r, v := range p.InitRegs {
		e.regs[r] = v
	}
	for a, v := range p.InitMem {
		e.mem.Write(a, v)
	}
	if p.InitFunc != nil {
		p.InitFunc(e.mem)
	}
	return e
}

// Clone returns a deep copy of the emulator at its current position:
// registers, memory image, PC and sequence number. The Program itself
// is shared (it is immutable after Build). Clones advance
// independently, so one functionally-warmed emulator can seed many
// identical measured regions.
func (e *Emulator) Clone() *Emulator {
	cp := *e
	cp.mem = e.mem.Clone()
	return &cp
}

// CloneStream implements StreamCloner.
func (e *Emulator) CloneStream() Stream { return e.Clone() }

// Reg returns the current value of an architectural register (for tests).
func (e *Emulator) Reg(r isa.Reg) int64 { return e.regs[r] }

// Mem returns the emulator's memory image (for tests).
func (e *Emulator) Mem() *Memory { return e.mem }

// Seq returns the number of µops produced so far.
func (e *Emulator) Seq() uint64 { return e.seq }

// Done reports whether the program has run off its end.
func (e *Emulator) Done() bool { return e.done }

func (e *Emulator) read(r isa.Reg) int64 {
	if !r.Valid() {
		return 0
	}
	return e.regs[r]
}

func (e *Emulator) write(r isa.Reg, v int64) {
	if r.Valid() {
		e.regs[r] = v
	}
}

func f2i(f float64) int64 { return int64(math.Float64bits(f)) }
func i2f(i int64) float64 { return math.Float64frombits(uint64(i)) }

// Next executes one instruction and fills *u with its dynamic form.
// It returns false when the program has terminated (PC past the end).
func (e *Emulator) Next(u *isa.Uop) bool {
	if e.done || e.pc < 0 || e.pc >= len(e.prog.Insts) {
		e.done = true
		return false
	}
	in := &e.prog.Insts[e.pc]
	// Field by field, and the label only when it changes: *u usually
	// lives on the heap, where storing a whole Uop, string included,
	// costs a bulk write barrier per µop while the collector runs.
	u.Seq, u.PC, u.Op = e.seq, PCOf(e.pc), in.Op
	u.Dst, u.Src1, u.Src2 = in.Dst, in.Src1, in.Src2
	u.Addr, u.Size, u.Taken, u.Target = 0, 8, false, 0
	if u.Label != in.Label {
		u.Label = in.Label
	}
	e.seq++
	next := e.pc + 1

	switch in.Op {
	case isa.Nop:
		// nothing
	case isa.IAdd:
		s1, s2 := e.read(in.Src1), e.read(in.Src2)
		var v int64
		switch in.Imm {
		case subMarker:
			v = s1 - s2
		case andMarker:
			v = s1 & s2
		case andiMarker:
			v = s1 & int64(in.Target)
		case shliMarker:
			v = s1 << uint(in.Target)
		default:
			v = s1 + s2 + in.Imm
		}
		e.write(in.Dst, v)
	case isa.IMul:
		e.write(in.Dst, e.read(in.Src1)*e.read(in.Src2))
	case isa.IDiv:
		d := e.read(in.Src2)
		if d == 0 {
			e.write(in.Dst, 0)
		} else {
			e.write(in.Dst, e.read(in.Src1)/d)
		}
	case isa.FAdd:
		e.write(in.Dst, f2i(i2f(e.read(in.Src1))+i2f(e.read(in.Src2))))
	case isa.FMul:
		e.write(in.Dst, f2i(i2f(e.read(in.Src1))*i2f(e.read(in.Src2))))
	case isa.FDiv:
		d := i2f(e.read(in.Src2))
		if d == 0 {
			e.write(in.Dst, 0)
		} else {
			e.write(in.Dst, f2i(i2f(e.read(in.Src1))/d))
		}
	case isa.FSqrt:
		v := i2f(e.read(in.Src1))
		if v < 0 {
			v = -v
		}
		e.write(in.Dst, f2i(math.Sqrt(v)))
	case isa.Load:
		addr := uint64(e.read(in.Src1) + in.Imm)
		u.Addr = addr &^ 7
		e.write(in.Dst, e.mem.Read(u.Addr))
	case isa.Store:
		addr := uint64(e.read(in.Src1) + in.Imm)
		u.Addr = addr &^ 7
		e.mem.Write(u.Addr, e.read(in.Src2))
	case isa.Branch:
		taken := false
		s := e.read(in.Src1)
		switch in.Cond {
		case isa.CondEQ:
			taken = s == 0
		case isa.CondNE:
			taken = s != 0
		case isa.CondLT:
			taken = s < 0
		case isa.CondGE:
			taken = s >= 0
		case isa.CondAlways:
			taken = true
		}
		u.Taken = taken
		if taken {
			next = in.Target
		}
		u.Target = PCOf(next)
	}

	e.pc = next
	if e.pc < 0 || e.pc >= len(e.prog.Insts) {
		e.done = true
	}
	return true
}

// FastForward functionally executes up to n instructions, passing each
// dynamic µop to touch (which may be nil). It is the fast-warm path: the
// program state (registers, memory, PC, seq) advances exactly as it would
// under the pipeline, at emulation speed, so detailed simulation can pick
// up the stream where warm-up stopped, while the touch hook warms caches,
// branch predictors and classification tables without any timing model.
// The µop must not be retained beyond the call. It returns the number of
// instructions executed (less than n only if the program ended).
func (e *Emulator) FastForward(n uint64, touch func(u *isa.Uop)) uint64 {
	var u isa.Uop
	var done uint64
	for ; done < n; done++ {
		if !e.Next(&u) {
			break
		}
		if touch != nil {
			touch(&u)
		}
	}
	return done
}

// Stream is the µop source interface the timing simulator pulls from.
type Stream interface {
	// Next fills *u with the next dynamic µop, returning false at end of
	// program.
	Next(u *isa.Uop) bool
}

// FastForwarder is implemented by streams that can skip ahead at
// functional speed (the Emulator, and trace readers/recorders). The
// fast warm-up path requires it: the warm region is consumed through
// FastForward with cache/predictor/LTP touch hooks instead of the
// timing pipeline.
type FastForwarder interface {
	// FastForward advances up to n µops, passing each to touch (which
	// may be nil), and returns the number actually advanced.
	FastForward(n uint64, touch func(u *isa.Uop)) uint64
}

// StreamCloner is implemented by streams whose position and functional
// state can be duplicated (the Emulator). Batched evaluation uses it to
// give every lane its own copy of one warmed stream, positioned at the
// measured region's start; trace readers do not implement it (their
// cursor is tied to a file).
type StreamCloner interface {
	// CloneStream returns an independent copy of the stream at its
	// current position.
	CloneStream() Stream
}

var (
	_ Stream        = (*Emulator)(nil)
	_ FastForwarder = (*Emulator)(nil)
	_ StreamCloner  = (*Emulator)(nil)
)
