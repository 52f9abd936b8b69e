package core

import (
	"testing"

	"ltp/internal/isa"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

// newLTPPipeline wires a pipeline with an LTP for tests.
func newLTPPipeline(pcfg pipeline.Config, lcfg Config, p *prog.Program) (*pipeline.Pipeline, *LTP) {
	unit := New(lcfg, pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
	pipe := pipeline.New(pcfg, prog.NewEmulator(p), unit)
	for i := range p.Insts {
		pipe.Hier.WarmFetch(prog.PCOf(i))
	}
	return pipe, unit
}

func testPipeConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Hier.PrefetchDegree = 0
	cfg.IQSize = 32
	cfg.IntRegs = 96
	cfg.FPRegs = 96
	cfg.WatchdogCycles = 100_000
	return cfg
}

// run drives the pipeline with periodic invariant checks.
func run(t *testing.T, pipe *pipeline.Pipeline, insts uint64) pipeline.Result {
	t.Helper()
	for pipe.Committed() < insts {
		pipe.Cycle()
		if err := pipe.Err(); err != nil {
			t.Fatal(err)
		}
		if pipe.Now()%128 == 0 {
			if err := pipe.CheckInvariants(); err != nil {
				t.Fatalf("invariant violated at cycle %d: %v", pipe.Now(), err)
			}
		}
		if pipe.Now() > 3_000_000 {
			t.Fatalf("runaway: %d committed", pipe.Committed())
		}
	}
	return pipe.Snapshot()
}

func TestUITLearnsFig2Chain(t *testing.T) {
	pipe, unit := newLTPPipeline(testPipeConfig(), DefaultConfig(), fig2Program())
	run(t, pipe, 40_000)

	// Locate the tagged PCs.
	p := fig2Program()
	pcOf := map[string]uint64{}
	for i, in := range p.Insts {
		if in.Label != "" {
			pcOf[in.Label] = prog.PCOf(i)
		}
	}
	for _, tag := range []string{"A", "B", "C", "D", "E"} {
		if !unit.UITTable().Urgent(pcOf[tag]) {
			t.Errorf("UIT missing urgent instruction %s", tag)
		}
	}
	for _, tag := range []string{"F", "G", "H", "I", "J", "K"} {
		if unit.UITTable().Urgent(pcOf[tag]) {
			t.Errorf("UIT wrongly marks %s urgent", tag)
		}
	}
}

func TestLTPParksAndHelps(t *testing.T) {
	// With the small core (IQ 32 / RF 96), adding LTP must recover
	// performance on the miss-heavy Fig. 2 loop.
	base, _ := newLTPPipeline(testPipeConfig(), DefaultConfig(), fig2Program())
	// Replace parker with the null baseline for the control run.
	ctl := pipeline.New(testPipeConfig(), prog.NewEmulator(fig2Program()), pipeline.NullParker{})
	for i := range fig2Program().Insts {
		ctl.Hier.WarmFetch(prog.PCOf(i))
	}

	resLTP := run(t, base, 60_000)
	for ctl.Committed() < 60_000 {
		ctl.Cycle()
	}
	resCtl := ctl.Snapshot()

	if resLTP.Cycles >= resCtl.Cycles {
		t.Errorf("LTP did not help: %d vs %d cycles", resLTP.Cycles, resCtl.Cycles)
	}
	if resLTP.MLP <= resCtl.MLP {
		t.Errorf("LTP did not raise MLP: %.2f vs %.2f", resLTP.MLP, resCtl.MLP)
	}
}

func TestLTPCapacityIsRespected(t *testing.T) {
	lcfg := DefaultConfig()
	lcfg.Entries = 16
	lcfg.Ports = 2
	pipe, unit := newLTPPipeline(testPipeConfig(), lcfg, fig2Program())
	maxSeen := 0
	for pipe.Committed() < 20_000 {
		pipe.Cycle()
		if n := unit.ParkedCount(); n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen > 16 {
		t.Errorf("LTP held %d > 16 entries", maxSeen)
	}
	if maxSeen == 0 {
		t.Error("nothing was ever parked")
	}
}

func TestMonitorDisablesLTPOnComputeBound(t *testing.T) {
	// Pure ALU loop: no cache misses, LTP must stay off.
	b := prog.NewBuilder("alu")
	b.SetReg(isa.R(1), 1<<30)
	b.Label("loop").
		Addi(isa.R(2), isa.R(2), 1).
		Addi(isa.R(3), isa.R(3), 2).
		Addi(isa.R(1), isa.R(1), -1).
		Br(isa.CondNE, isa.R(1), "loop")
	pipe, unit := newLTPPipeline(testPipeConfig(), DefaultConfig(), b.Build())
	run(t, pipe, 20_000)
	if unit.ParkedTotal != 0 {
		t.Errorf("%d instructions parked in a compute-bound loop", unit.ParkedTotal)
	}
	if unit.Monitor().EnabledFraction() > 0.01 {
		t.Errorf("monitor enabled %.0f%% of a compute-bound run", unit.Monitor().EnabledFraction()*100)
	}
}

func TestNRTicketFlow(t *testing.T) {
	// NR+NU on the Fig. 2 loop: tickets must be allocated, inherited, and
	// cleared; non-ready instructions must park.
	lcfg := DefaultConfig()
	lcfg.Mode = ModeNRNU
	lcfg.Entries = 0
	lcfg.Ports = 0
	pipe, unit := newLTPPipeline(testPipeConfig(), lcfg, fig2Program())
	run(t, pipe, 40_000)
	if unit.ClassNonReady == 0 {
		t.Error("no instruction classified Non-Ready")
	}
	if unit.ParkedTotal == 0 {
		t.Error("nothing parked")
	}
	// All tickets must be reclaimed over time: no permanent leak.
	free := 0
	for _, owner := range unit.ticketOwner {
		if owner == ^uint64(0) {
			free++
		}
	}
	if free < len(unit.ticketOwner)/2 {
		t.Errorf("ticket leak: only %d/%d free after drain", free, len(unit.ticketOwner))
	}
}

func TestFewTicketsStillCorrect(t *testing.T) {
	lcfg := DefaultConfig()
	lcfg.Mode = ModeNRNU
	lcfg.Tickets = 4
	pipe, unit := newLTPPipeline(testPipeConfig(), lcfg, fig2Program())
	res := run(t, pipe, 30_000)
	if res.Committed < 30_000 {
		t.Fatalf("committed %d", res.Committed)
	}
	if unit.TicketsExhausted == 0 {
		t.Error("4 tickets never exhausted on a miss-heavy loop")
	}
}

func TestLTPWithMemoryViolationSquash(t *testing.T) {
	// Mix parked instructions with a violation-prone store/load pair and
	// verify the machine stays consistent through squashes.
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x6000)
	b.SetReg(isa.R(3), 1)
	b.SetReg(isa.R(10), 1<<30)
	b.SetReg(isa.R(12), 0x2_0000_0000)
	b.SetReg(isa.R(13), 6364136223846793005)
	b.Label("loop").
		Mul(isa.R(14), isa.R(14), isa.R(13)).
		Addi(isa.R(14), isa.R(14), 99991).
		Andi(isa.R(15), isa.R(14), 0x3FFFF8).
		Add(isa.R(16), isa.R(12), isa.R(15)).
		Ld(isa.R(17), isa.R(16), 0). // random miss: enables parking
		Div(isa.R(4), isa.R(10), isa.R(3)).
		Add(isa.R(5), isa.R(1), isa.R(4)).
		Andi(isa.R(5), isa.R(5), 0x7FF8).
		St(isa.R(5), 0, isa.R(10)).
		Ld(isa.R(7), isa.R(5), 0). // may violate against the store
		Add(isa.R(8), isa.R(8), isa.R(7)).
		Addi(isa.R(10), isa.R(10), -1).
		Br(isa.CondNE, isa.R(10), "loop")
	pipe, unit := newLTPPipeline(testPipeConfig(), DefaultConfig(), b.Build())
	res := run(t, pipe, 40_000)
	if res.Committed < 40_000 {
		t.Fatalf("committed %d", res.Committed)
	}
	if unit.ParkedTotal == 0 {
		t.Error("nothing parked in a miss-heavy loop")
	}
	if err := pipe.CheckInvariants(); err != nil {
		t.Fatalf("invariants after squash-heavy run: %v", err)
	}
}

func TestLTPDeterminism(t *testing.T) {
	mk := func() pipeline.Result {
		pipe, _ := newLTPPipeline(testPipeConfig(), DefaultConfig(), fig2Program())
		var res pipeline.Result
		for pipe.Committed() < 30_000 {
			pipe.Cycle()
		}
		res = pipe.Snapshot()
		return res
	}
	r1, r2 := mk(), mk()
	if r1.Cycles != r2.Cycles || r1.MLP != r2.MLP {
		t.Errorf("nondeterministic LTP run: %v vs %v", r1, r2)
	}
}

func TestOracleModeRuns(t *testing.T) {
	p := fig2Program()
	pcfg := testPipeConfig()
	lcfg := DefaultConfig()
	lcfg.Mode = ModeNRNU
	lcfg.Entries = 0
	lcfg.Ports = 0
	lcfg.Oracle = BuildOracle(p, 45_000, pcfg.Hier, pcfg.ROBSize)
	pipe, unit := newLTPPipeline(pcfg, lcfg, p)
	res := run(t, pipe, 30_000)
	if res.Committed < 30_000 {
		t.Fatalf("committed %d", res.Committed)
	}
	if unit.ParkedTotal == 0 {
		t.Error("oracle mode parked nothing")
	}
	// Oracle mode must not touch the UIT.
	if unit.UITTable().Len() != 0 {
		t.Error("oracle mode inserted into the UIT")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	// In NU mode the LTP is a strict queue: observe that parked seqs are
	// monotonically increasing and wakes come from the head.
	lcfg := DefaultConfig()
	pipe, unit := newLTPPipeline(testPipeConfig(), lcfg, fig2Program())
	for pipe.Committed() < 20_000 {
		pipe.Cycle()
		parked := unit.queue.Items()
		for i := 1; i < len(parked); i++ {
			if parked[i-1].Seq >= parked[i].Seq {
				t.Fatalf("LTP queue out of order at cycle %d", pipe.Now())
			}
		}
	}
}
