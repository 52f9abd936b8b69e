package core

import (
	"testing"

	"ltp/internal/isa"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

// handPipe returns a pipeline with l attached, for tests that allocate
// records from its slab and drive the Parker hooks by hand.
func handPipe(l *LTP) *pipeline.Pipeline {
	return pipeline.New(testPipeConfig(), prog.NewEmulator(fig2Program()), l)
}

func TestScrubStaleTickets(t *testing.T) {
	l := New(Config{Mode: ModeNRNU, Tickets: 8}, 200, 6)
	f := handPipe(l).NewInflight(isa.Uop{Seq: 100})
	f.Tickets.Set(0) // stale: nobody owns it
	f.Tickets.Set(1) // owned by an OLDER instruction: keep
	f.Tickets.Set(2) // owned by a YOUNGER instruction: stale reuse
	l.ticketOwner[1] = 50
	l.ticketOwner[2] = 150

	l.scrubStaleTickets(f)
	if f.Tickets.Has(0) {
		t.Error("unowned ticket not scrubbed")
	}
	if !f.Tickets.Has(1) {
		t.Error("legitimately inherited ticket scrubbed")
	}
	if f.Tickets.Has(2) {
		t.Error("reused-by-younger ticket not scrubbed")
	}
}

func TestParkedStoreConflict(t *testing.T) {
	l := New(DefaultConfig(), 200, 6)
	p := handPipe(l)
	st := p.NewInflight(isa.Uop{Seq: 10, Op: isa.Store, Addr: 0x1000,
		Src1: isa.R(1), Src2: isa.R(2), Dst: isa.NoReg})
	l.Park(p, st, 0)
	if !l.ParkedStoreConflict(0x1000, 20) {
		t.Error("conflict with older parked store not detected")
	}
	if l.ParkedStoreConflict(0x1000, 5) {
		t.Error("younger-than-load rule broken (store is younger)")
	}
	if l.ParkedStoreConflict(0x2000, 20) {
		t.Error("false conflict on a different address")
	}
	l.removeFromQueue(st)
	if l.ParkedStoreConflict(0x1000, 20) {
		t.Error("conflict persists after the store left the LTP")
	}
}

func TestWakePolicyAblations(t *testing.T) {
	// Eager wakeup must park for shorter times than ROB proximity on a
	// miss-heavy loop, and thus hold fewer instructions on average.
	mk := func(w WakePolicy) float64 {
		lcfg := DefaultConfig()
		lcfg.Wake = w
		pipe, unit := newLTPPipeline(testPipeConfig(), lcfg, fig2Program())
		for pipe.Committed() < 20_000 {
			pipe.Cycle()
		}
		return unit.OccInsts.Mean()
	}
	eager := mk(WakeEager)
	prox := mk(WakeROBProximity)
	if eager >= prox {
		t.Errorf("eager wakeup parks more than proximity: %.1f vs %.1f", eager, prox)
	}
	if WakeEager.String() != "eager" || WakeROBProximity.String() != "rob-proximity" {
		t.Error("wake policy names wrong")
	}
}

// dramFig2Program is the Fig. 2 loop over a table big enough to miss the
// 1 MB L3, so the DRAM-timer monitor stays on and deep windows form (the
// preconditions of the parked-bit cascade).
func dramFig2Program() *prog.Program {
	const wordsA = 1 << 14
	const wordsB = 1 << 18 // 2 MB
	b := prog.NewBuilder("fig2dram")
	rJ, rI := isa.R(1), isa.R(2)
	rBaseA, rBaseB, rBaseC := isa.R(3), isa.R(4), isa.R(5)
	rT1, rAddrA, rAddrB, rAddrC := isa.R(6), isa.R(7), isa.R(8), isa.R(9)
	rD, rD2, rT2 := isa.R(10), isa.R(11), isa.R(12)
	b.SetReg(rBaseA, 0x1_0000_0000)
	b.SetReg(rBaseB, 0x2_0000_0000)
	b.SetReg(rBaseC, 0x3_0000_0000)
	b.InitWith(func(m *prog.Memory) {
		x := uint64(999)
		for k := 0; k < wordsA; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			m.Write(0x1_0000_0000+uint64(k)*8, int64((x%wordsB)<<3))
		}
	})
	b.Label("outer").
		Movi(rJ, int64(wordsA-1)<<3).
		Movi(rI, 0)
	b.Label("loop").
		Add(rAddrA, rBaseA, rJ).
		Ld(rT1, rAddrA, 0).
		Add(rAddrB, rBaseB, rT1).
		Ld(rD, rAddrB, 0).
		Addi(rJ, rJ, -8).
		Addi(rD2, rD, 5).
		Add(rAddrC, rBaseC, rI).
		St(rAddrC, 0, rD2).
		Addi(rI, rI, 8).
		Addi(rT2, rJ, 0).
		Br(isa.CondGE, rT2, "loop").
		Jmp("outer")
	return b.Build()
}

func TestDisableUrgentEscapeCascades(t *testing.T) {
	// With the escape disabled, the loop-carried urgent chain stays
	// parked and performance collapses versus the default design. The
	// cascade's precondition is a deep window while the UIT is still
	// learning, which needs warm caches from the first detailed cycle.
	mk := func(disable bool) uint64 {
		lcfg := DefaultConfig()
		lcfg.DisableUrgentEscape = disable
		p := dramFig2Program()
		pcfg := testPipeConfig()
		unit := New(lcfg, pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
		em := prog.NewEmulator(p)
		pipe := pipeline.New(pcfg, em, unit)
		for i := range p.Insts {
			pipe.Hier.WarmFetch(prog.PCOf(i))
		}
		var u isa.Uop
		for n := 0; n < 40_000; n++ {
			if !em.Next(&u) {
				break
			}
			if u.IsMem() {
				pipe.Hier.Warm(u.PC, u.Addr, u.Op == isa.Store)
			}
		}
		for pipe.Committed() < 20_000 {
			pipe.Cycle()
		}
		return pipe.Now()
	}
	withEscape := mk(false)
	withoutEscape := mk(true)
	if withoutEscape <= withEscape {
		t.Errorf("cascade ablation not slower: %d vs %d cycles", withoutEscape, withEscape)
	}
}

func TestEarlyTicketWakeupLead(t *testing.T) {
	// With a large early-wakeup lead, NR instructions should leave the
	// LTP sooner (lower average occupancy) than with no lead.
	mk := func(lead uint64) float64 {
		lcfg := DefaultConfig()
		lcfg.Mode = ModeNRNU
		lcfg.EarlyWakeupLead = lead
		pipe, unit := newLTPPipeline(testPipeConfig(), lcfg, fig2Program())
		for pipe.Committed() < 20_000 {
			pipe.Cycle()
		}
		return unit.OccInsts.Mean()
	}
	withLead := mk(40)
	noLead := mk(1)
	// The effect is small (only U+NR instructions are affected) but must
	// not invert: more lead, no more occupancy.
	if withLead > noLead*1.1 {
		t.Errorf("larger early-wakeup lead increased occupancy: %.2f vs %.2f", withLead, noLead)
	}
}

func TestTicketClearGuardAgainstReuse(t *testing.T) {
	l := New(Config{Mode: ModeNRNU, Tickets: 4}, 200, 6)
	p := handPipe(l)
	owner := p.NewInflight(isa.Uop{Seq: 5, Dst: isa.R(1)})
	l.allocateOwnTicket(owner)
	tk, ok := l.ownTicket[owner.Seq()]
	if !ok {
		t.Fatal("ticket not allocated")
	}
	// Schedule a clear, then simulate a squash + reallocation of the
	// same ticket to a different owner.
	l.scheduleTicketClear(owner, 100)
	l.clearTicket(p, tk) // squash path frees it
	newOwner := p.NewInflight(isa.Uop{Seq: 9, Dst: isa.R(2)})
	l.allocateOwnTicket(newOwner)
	tk2 := l.ownTicket[newOwner.Seq()]
	if tk2 != tk {
		t.Skip("allocator did not reuse the ticket; nothing to test")
	}
	// Firing the stale clear must NOT free the new owner's ticket.
	waiter := p.NewInflight(isa.Uop{Seq: 11})
	waiter.Tickets.Set(tk)
	l.Park(p, waiter, 0)
	l.fireTicketClears(p, 200)
	if !waiter.Tickets.Has(tk) {
		t.Error("stale scheduled clear fired against the reused ticket")
	}
}

// TestMinimalParkProgram exercises parking on a program small enough to
// verify by hand: one miss chain and one independent add stream.
func TestMinimalParkProgram(t *testing.T) {
	b := prog.NewBuilder("mini")
	b.SetReg(isa.R(1), 0x9_0000_0000)
	b.SetReg(isa.R(5), 1<<40)
	b.SetReg(isa.R(6), 6364136223846793005)
	b.Label("loop").
		Mul(isa.R(2), isa.R(2), isa.R(6)).
		Andi(isa.R(3), isa.R(2), 0x3FFFF8).
		Add(isa.R(4), isa.R(1), isa.R(3)).
		Ld(isa.R(7), isa.R(4), 0).         // random miss
		Add(isa.R(8), isa.R(8), isa.R(7)). // NU+NR: parks
		Addi(isa.R(9), isa.R(9), 1).       // NU+R: parks
		Addi(isa.R(5), isa.R(5), -1).
		Br(isa.CondNE, isa.R(5), "loop")
	pipe, unit := newLTPPipeline(testPipeConfig(), DefaultConfig(), b.Build())
	run(t, pipe, 20_000)
	if unit.ParkedTotal == 0 {
		t.Fatal("nothing parked")
	}
	// Everything parked must have been woken and committed.
	if unit.WokenTotal < unit.ParkedTotal-uint64(unit.ParkedCount()) {
		t.Errorf("parked %d, woken %d, still parked %d",
			unit.ParkedTotal, unit.WokenTotal, unit.ParkedCount())
	}
}
