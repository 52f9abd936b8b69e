package prog

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"ltp/internal/isa"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if got := m.Read(0x1000); got != 0 {
		t.Errorf("unwritten memory reads %d, want 0", got)
	}
	m.Write(0x1000, 42)
	if got := m.Read(0x1000); got != 42 {
		t.Errorf("read back %d, want 42", got)
	}
	// Distinct pages.
	m.Write(1<<32, -7)
	if got := m.Read(1 << 32); got != -7 {
		t.Errorf("cross-page read %d, want -7", got)
	}
	if m.Pages() != 2 {
		t.Errorf("expected 2 pages, got %d", m.Pages())
	}
}

// Property: a write is always read back; neighbours are untouched.
func TestMemoryProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v int64) bool {
		a := uint64(addr) &^ 7
		m.Write(a, v)
		return m.Read(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("t")
	b.Label("top").
		Addi(isa.R(1), isa.R(1), 1).
		Br(isa.CondNE, isa.R(1), "end").
		Jmp("top").
		Label("end").
		Nop()
	p := b.Build()
	if p.Insts[1].Target != 3 {
		t.Errorf("forward branch target = %d, want 3", p.Insts[1].Target)
	}
	if p.Insts[2].Target != 0 {
		t.Errorf("backward jump target = %d, want 0", p.Insts[2].Target)
	}
}

func TestBuilderPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("undefined label must panic at Build")
			}
		}()
		NewBuilder("t").Jmp("nowhere").Build()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate label must panic")
			}
		}()
		NewBuilder("t").Label("a").Label("a")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unaligned SetMem must panic")
			}
		}()
		NewBuilder("t").SetMem(3, 1)
	}()
}

func TestEmulatorArithmetic(t *testing.T) {
	b := NewBuilder("t")
	b.SetReg(isa.R(1), 10).SetReg(isa.R(2), 3)
	b.Add(isa.R(3), isa.R(1), isa.R(2)) // 13
	b.Sub(isa.R(4), isa.R(1), isa.R(2)) // 7
	b.Mul(isa.R(5), isa.R(1), isa.R(2)) // 30
	b.Div(isa.R(6), isa.R(1), isa.R(2)) // 3
	b.And(isa.R(7), isa.R(1), isa.R(2)) // 2
	b.Andi(isa.R(8), isa.R(1), 6)       // 2
	b.Shli(isa.R(9), isa.R(2), 4)       // 48
	b.Addi(isa.R(10), isa.R(1), -4)     // 6
	b.Movi(isa.R(11), 99)
	e := NewEmulator(b.Build())
	var u isa.Uop
	for e.Next(&u) {
	}
	want := map[isa.Reg]int64{
		isa.R(3): 13, isa.R(4): 7, isa.R(5): 30, isa.R(6): 3,
		isa.R(7): 2, isa.R(8): 2, isa.R(9): 48, isa.R(10): 6, isa.R(11): 99,
	}
	for r, w := range want {
		if got := e.Reg(r); got != w {
			t.Errorf("%v = %d, want %d", r, got, w)
		}
	}
}

func TestEmulatorDivByZero(t *testing.T) {
	b := NewBuilder("t")
	b.SetReg(isa.R(1), 10)
	b.Div(isa.R(2), isa.R(1), isa.R(3)) // /0 -> 0
	b.FDiv(isa.F(1), isa.F(2), isa.F(3))
	e := NewEmulator(b.Build())
	var u isa.Uop
	for e.Next(&u) {
	}
	if e.Reg(isa.R(2)) != 0 || e.Reg(isa.F(1)) != 0 {
		t.Error("division by zero must yield zero")
	}
}

func TestEmulatorFP(t *testing.T) {
	b := NewBuilder("t")
	b.SetReg(isa.F(1), f2i(2.0)).SetReg(isa.F(2), f2i(3.0))
	b.FAdd(isa.F(3), isa.F(1), isa.F(2)) // 5
	b.FMul(isa.F(4), isa.F(1), isa.F(2)) // 6
	b.FDiv(isa.F(5), isa.F(2), isa.F(1)) // 1.5
	b.FSqrt(isa.F(6), isa.F(4))          // sqrt(6)
	e := NewEmulator(b.Build())
	var u isa.Uop
	for e.Next(&u) {
	}
	if got := i2f(e.Reg(isa.F(3))); got != 5.0 {
		t.Errorf("fadd = %v", got)
	}
	if got := i2f(e.Reg(isa.F(4))); got != 6.0 {
		t.Errorf("fmul = %v", got)
	}
	if got := i2f(e.Reg(isa.F(5))); got != 1.5 {
		t.Errorf("fdiv = %v", got)
	}
	if got := i2f(e.Reg(isa.F(6))); got < 2.44 || got > 2.46 {
		t.Errorf("fsqrt = %v", got)
	}
}

func TestEmulatorLoadStoreAndAddresses(t *testing.T) {
	b := NewBuilder("t")
	b.SetReg(isa.R(1), 0x2000)
	b.SetMem(0x2008, 77)
	b.Ld(isa.R(2), isa.R(1), 8)
	b.St(isa.R(1), 16, isa.R(2))
	e := NewEmulator(b.Build())

	var u isa.Uop
	if !e.Next(&u) || u.Addr != 0x2008 || u.Op != isa.Load {
		t.Fatalf("load µop wrong: %v", u.String())
	}
	if !e.Next(&u) || u.Addr != 0x2010 || u.Op != isa.Store {
		t.Fatalf("store µop wrong: %v", u.String())
	}
	if e.Next(&u) {
		t.Error("program should have ended")
	}
	if got := e.Mem().Read(0x2010); got != 77 {
		t.Errorf("store wrote %d, want 77", got)
	}
}

func TestEmulatorBranchLoop(t *testing.T) {
	// Count 5 iterations.
	b := NewBuilder("t")
	b.SetReg(isa.R(1), 5)
	b.Label("loop").
		Addi(isa.R(1), isa.R(1), -1).
		Addi(isa.R(2), isa.R(2), 10).
		Br(isa.CondNE, isa.R(1), "loop")
	e := NewEmulator(b.Build())
	var u isa.Uop
	n := 0
	for e.Next(&u) {
		n++
	}
	if e.Reg(isa.R(2)) != 50 {
		t.Errorf("loop body ran %d times (acc=%d), want 5", n/3, e.Reg(isa.R(2)))
	}
	if n != 15 {
		t.Errorf("executed %d µops, want 15", n)
	}
}

func TestEmulatorBranchConditions(t *testing.T) {
	cases := []struct {
		cond  isa.BranchCond
		val   int64
		taken bool
	}{
		{isa.CondEQ, 0, true}, {isa.CondEQ, 1, false},
		{isa.CondNE, 0, false}, {isa.CondNE, 5, true},
		{isa.CondLT, -1, true}, {isa.CondLT, 0, false},
		{isa.CondGE, 0, true}, {isa.CondGE, -2, false},
		{isa.CondAlways, 0, true},
	}
	for _, c := range cases {
		b := NewBuilder("t")
		b.SetReg(isa.R(1), c.val)
		b.Br(c.cond, isa.R(1), "skip").
			Nop().
			Label("skip").
			Nop()
		e := NewEmulator(b.Build())
		var u isa.Uop
		e.Next(&u)
		if u.Taken != c.taken {
			t.Errorf("cond %v val %d: taken=%v, want %v", c.cond, c.val, u.Taken, c.taken)
		}
		wantTarget := PCOf(1)
		if c.taken {
			wantTarget = PCOf(2)
		}
		if u.Target != wantTarget {
			t.Errorf("cond %v: target %#x, want %#x", c.cond, u.Target, wantTarget)
		}
	}
}

func TestEmulatorDeterminism(t *testing.T) {
	build := func() *Emulator {
		b := NewBuilder("t")
		b.SetReg(isa.R(1), 1000)
		b.SetReg(isa.R(2), int64(0x3000))
		b.Label("loop").
			Mul(isa.R(3), isa.R(1), isa.R(1)).
			Andi(isa.R(4), isa.R(3), 0xFF8).
			Add(isa.R(5), isa.R(2), isa.R(4)).
			Ld(isa.R(6), isa.R(5), 0).
			St(isa.R(5), 8, isa.R(6)).
			Addi(isa.R(1), isa.R(1), -1).
			Br(isa.CondNE, isa.R(1), "loop")
		return NewEmulator(b.Build())
	}
	a, bb := build(), build()
	var ua, ub isa.Uop
	for i := 0; i < 5000; i++ {
		oka, okb := a.Next(&ua), bb.Next(&ub)
		if oka != okb || ua != ub {
			t.Fatalf("divergence at %d: %v vs %v", i, ua.String(), ub.String())
		}
		if !oka {
			break
		}
	}
}

// TestEmulatorNextRewritesEveryField decodes one stream into a reused
// µop primed with garbage and another into a fresh µop per step: Next
// must leave no field of the previous µop behind (labels included, as
// labelled and unlabelled instructions alternate).
func TestEmulatorNextRewritesEveryField(t *testing.T) {
	build := func() *Emulator {
		b := NewBuilder("t")
		b.SetReg(isa.R(1), 50)
		b.SetReg(isa.R(2), int64(0x3000))
		b.Label("loop").
			Ld(isa.R(6), isa.R(2), 0).Tag("L").
			St(isa.R(2), 8, isa.R(6)).
			Addi(isa.R(1), isa.R(1), -1).Tag("dec").
			Br(isa.CondNE, isa.R(1), "loop")
		return NewEmulator(b.Build())
	}
	reused, fresh := build(), build()
	u := isa.Uop{Seq: 99, PC: 1, Addr: 7, Size: 3, Taken: true, Target: 5, Label: "stale"}
	for i := 0; ; i++ {
		var f isa.Uop
		okr, okf := reused.Next(&u), fresh.Next(&f)
		if okr != okf {
			t.Fatalf("streams ended apart at %d", i)
		}
		if !okr {
			break
		}
		if u != f {
			t.Fatalf("µop %d decoded into a reused µop is %v, want %v", i, u.String(), f.String())
		}
	}
}

func TestInitFunc(t *testing.T) {
	b := NewBuilder("t")
	b.InitWith(func(m *Memory) { m.Write(0x4000, 5) })
	b.SetReg(isa.R(1), 0x4000)
	b.Ld(isa.R(2), isa.R(1), 0)
	e := NewEmulator(b.Build())
	var u isa.Uop
	e.Next(&u)
	if e.Reg(isa.R(2)) != 5 {
		t.Error("InitFunc memory not visible to loads")
	}
}

func TestListing(t *testing.T) {
	b := NewBuilder("t")
	b.Addi(isa.R(1), isa.R(1), 1).Tag("A")
	p := b.Build()
	if p.Listing() == "" {
		t.Error("empty listing")
	}
	if p.Insts[0].Label != "A" {
		t.Error("Tag not applied")
	}
}

func TestPCMapping(t *testing.T) {
	if IndexOf(PCOf(17)) != 17 {
		t.Error("PC<->index mapping broken")
	}
}

// filledMemory returns an image with a word written on each of n pages.
func filledMemory(n int) *Memory {
	m := NewMemory()
	for i := 0; i < n; i++ {
		m.Write(uint64(i)<<pageShift, int64(i+1))
	}
	return m
}

// TestMemoryCloneWriteOriginal holds snapshot-then-continue: writes
// to the original after Clone, including through its one-entry page
// cache, must not reach the copy.
func TestMemoryCloneWriteOriginal(t *testing.T) {
	m := filledMemory(4)
	_ = m.Read(2 << pageShift) // prime the page cache on a shared page
	cp := m.Clone()
	m.Write(2<<pageShift, 100)
	m.Write(2<<pageShift+8, 101)
	m.Write(9<<pageShift, 102) // a page the copy never had
	for i := 0; i < 4; i++ {
		if got := cp.Read(uint64(i) << pageShift); got != int64(i+1) {
			t.Errorf("copy page %d reads %d after the original was written; want %d", i, got, i+1)
		}
	}
	if got := cp.Read(9 << pageShift); got != 0 {
		t.Errorf("copy sees the original's new page: %d", got)
	}
	if got := m.Read(2 << pageShift); got != 100 {
		t.Errorf("original reads %d after its own write; want 100", got)
	}
	if cp.Pages() != 4 || m.Pages() != 5 {
		t.Errorf("pages: copy %d original %d; want 4 and 5", cp.Pages(), m.Pages())
	}
}

// TestMemoryCloneWriteCopy holds the other direction, and that a copy
// of a copy stays independent of both.
func TestMemoryCloneWriteCopy(t *testing.T) {
	m := filledMemory(4)
	cp := m.Clone()
	cp.Write(1<<pageShift, 200)
	cp2 := cp.Clone()
	cp2.Write(1<<pageShift, 300)
	cp.Write(3<<pageShift, 201)
	for _, c := range []struct {
		name string
		m    *Memory
		want [4]int64
	}{
		{"original", m, [4]int64{1, 2, 3, 4}},
		{"copy", cp, [4]int64{1, 200, 3, 201}},
		{"copy of copy", cp2, [4]int64{1, 300, 3, 4}},
	} {
		for i, want := range c.want {
			if got := c.m.Read(uint64(i) << pageShift); got != want {
				t.Errorf("%s page %d reads %d; want %d", c.name, i, got, want)
			}
		}
	}
}

// TestMemoryConcurrentClones clones one sealed image from many
// goroutines at once, each then writing its copy; run under -race it
// checks that Clone is safe to call concurrently on a shared source.
func TestMemoryConcurrentClones(t *testing.T) {
	m := filledMemory(16)
	const lanes = 8
	var wg sync.WaitGroup
	errs := make(chan string, lanes)
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			cp := m.Clone()
			for i := 0; i < 16; i++ {
				addr := uint64(i) << pageShift
				if got := cp.Read(addr); got != int64(i+1) {
					errs <- fmt.Sprintf("lane %d page %d reads %d before writing", l, i, got)
					return
				}
				cp.Write(addr, int64(1000*l+i))
			}
			for i := 0; i < 16; i++ {
				if got := cp.Read(uint64(i) << pageShift); got != int64(1000*l+i) {
					errs <- fmt.Sprintf("lane %d page %d reads %d; another lane's write leaked in", l, i, got)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for i := 0; i < 16; i++ {
		if got := m.Read(uint64(i) << pageShift); got != int64(i+1) {
			t.Errorf("source page %d reads %d after the lanes wrote; want %d", i, got, i+1)
		}
	}
}
