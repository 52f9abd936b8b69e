package pipeline

import (
	"strings"
	"testing"

	"ltp/internal/isa"
	"ltp/internal/prog"
)

// smallConfig returns a configuration small enough to expose structural
// limits quickly, with prefetching off for deterministic latency checks.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hier.PrefetchDegree = 0
	cfg.WatchdogCycles = 50_000
	return cfg
}

// runProgram simulates the program to completion (or maxInsts) with
// invariants checked every cycle.
func runProgram(t *testing.T, cfg Config, p *prog.Program, maxInsts uint64) (*Pipeline, Result) {
	t.Helper()
	pipe := New(cfg, prog.NewEmulator(p), NullParker{})
	// Warm the instruction lines: micro-tests measure backend timing, not
	// cold code fetch.
	for i := range p.Insts {
		pipe.Hier.WarmFetch(prog.PCOf(i))
	}
	for pipe.Committed() < maxInsts {
		if pipe.finished() {
			break
		}
		pipe.Cycle()
		if err := pipe.Err(); err != nil {
			t.Fatal(err)
		}
		if pipe.Now()%64 == 0 {
			if err := pipe.CheckInvariants(); err != nil {
				t.Fatalf("invariant violated at cycle %d: %v", pipe.Now(), err)
			}
		}
		if pipe.Now() > 2_000_000 {
			t.Fatal("runaway simulation")
		}
	}
	if err := pipe.CheckInvariants(); err != nil {
		t.Fatalf("final invariant violated: %v", err)
	}
	return pipe, pipe.Snapshot()
}

func TestStraightLineALU(t *testing.T) {
	b := prog.NewBuilder("t")
	// 64 independent adds across 16 registers.
	for i := 0; i < 64; i++ {
		r := isa.R(1 + i%16)
		b.Addi(r, r, 1)
	}
	_, res := runProgram(t, smallConfig(), b.Build(), 1000)
	if res.Committed != 64 {
		t.Fatalf("committed %d, want 64", res.Committed)
	}
	// Dependent chains per register are 4 deep; plenty of ILP: IPC well
	// above 1 and bounded by ALU count (4).
	if res.IPC < 1.0 {
		t.Errorf("independent adds IPC %.2f too low", res.IPC)
	}
}

func TestDependentChainIPC(t *testing.T) {
	b := prog.NewBuilder("t")
	for i := 0; i < 200; i++ {
		b.Addi(isa.R(1), isa.R(1), 1) // serial chain
	}
	_, res := runProgram(t, smallConfig(), b.Build(), 1000)
	// A 1-cycle serial chain commits ~1 IPC once the pipeline fills.
	if res.IPC > 1.1 {
		t.Errorf("serial chain IPC %.2f exceeds 1", res.IPC)
	}
	if res.IPC < 0.6 {
		t.Errorf("serial chain IPC %.2f unreasonably low", res.IPC)
	}
	if e := e2e(res); e != 200 {
		t.Errorf("committed %d", e)
	}
}

func e2e(r Result) uint64 { return r.Committed }

func TestLoadHitLatency(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x4000)
	b.SetMem(0x4000, 5)
	// Warm the line, then a dependent chain through loads.
	for i := 0; i < 20; i++ {
		b.Ld(isa.R(2), isa.R(1), 0)
		b.Add(isa.R(3), isa.R(3), isa.R(2))
	}
	_, res := runProgram(t, smallConfig(), b.Build(), 1000)
	if res.LoadLevel[0] < 15 {
		t.Errorf("expected L1 hits after first touch, got %v", res.LoadLevel)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x8000)
	b.SetReg(isa.R(2), 42)
	// Store then immediately load the same address, repeatedly at fresh
	// (cold) addresses: forwarding must avoid the DRAM latency.
	for i := int64(0); i < 16; i++ {
		b.St(isa.R(1), i*8, isa.R(2))
		b.Ld(isa.R(3), isa.R(1), i*8)
	}
	_, res := runProgram(t, smallConfig(), b.Build(), 1000)
	// The first load may speculate past its store (training the store
	// sets with one violation); all later loads must forward, never
	// touching memory. Forwarded loads bypass the hierarchy entirely.
	if res.LoadLevel[3] > 1 {
		t.Errorf("loads went to DRAM despite matching older stores: %v", res.LoadLevel)
	}
	if res.Loads > 4 {
		t.Errorf("%d loads reached the hierarchy; most should forward", res.Loads)
	}
	if res.Squashes > 1 {
		t.Errorf("%d squashes; store sets not learning", res.Squashes)
	}
}

func TestColdLoadGoesToDRAM(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x10_0000)
	b.Ld(isa.R(2), isa.R(1), 0)
	b.Add(isa.R(3), isa.R(3), isa.R(2))
	cfg := smallConfig()
	_, res := runProgram(t, cfg, b.Build(), 10)
	if res.LoadLevel[3] != 1 {
		t.Fatalf("cold load levels %v", res.LoadLevel)
	}
	if res.Cycles < cfg.Hier.DRAMLatency {
		t.Errorf("finished in %d cycles, under the DRAM latency", res.Cycles)
	}
}

func TestBranchMispredictStallsFetch(t *testing.T) {
	// A data-dependent branch on an LCG parity: ~50% mispredicts.
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 12345)
	b.SetReg(isa.R(2), 6364136223846793005)
	b.SetReg(isa.R(5), 2000)
	b.Label("loop").
		Mul(isa.R(1), isa.R(1), isa.R(2)).
		Addi(isa.R(1), isa.R(1), 1442695040888963407).
		Andi(isa.R(3), isa.R(1), 1).
		Br(isa.CondNE, isa.R(3), "odd").
		Addi(isa.R(4), isa.R(4), 1).
		Jmp("join").
		Label("odd").
		Addi(isa.R(4), isa.R(4), 2).
		Label("join").
		Addi(isa.R(5), isa.R(5), -1).
		Br(isa.CondNE, isa.R(5), "loop")
	_, res := runProgram(t, smallConfig(), b.Build(), 8000)
	if res.Mispredicts == 0 {
		t.Fatal("expected mispredicts on random parity branch")
	}
	// Each mispredict costs at least the front-end depth.
	if res.CPI < 0.4 {
		t.Errorf("CPI %.2f implausibly low with %d mispredicts", res.CPI, res.Mispredicts)
	}
}

func TestMemoryViolationSquashAndReplay(t *testing.T) {
	// A store whose address depends on a long (divide) chain, followed by
	// a load to the same address: the load issues speculatively first,
	// the store resolves later, violation, squash, replay — and the
	// store-set predictor prevents the second occurrence.
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x6000)
	b.SetReg(isa.R(2), 7)
	b.SetReg(isa.R(3), 1)
	b.SetReg(isa.R(10), 2000) // loop count
	b.Label("loop").
		Div(isa.R(4), isa.R(2), isa.R(3)). // slow: 7
		Div(isa.R(5), isa.R(4), isa.R(3)). // slower chain
		Add(isa.R(6), isa.R(1), isa.R(5)). // addr = 0x6000 + 7 (unaligned -> 0x6000)
		St(isa.R(6), 1, isa.R(10)).        // store [0x6008]
		Ld(isa.R(7), isa.R(1), 8).         // load [0x6008]: same word!
		Add(isa.R(8), isa.R(8), isa.R(7)).
		Addi(isa.R(10), isa.R(10), -1).
		Br(isa.CondNE, isa.R(10), "loop")
	pipe, res := runProgram(t, smallConfig(), b.Build(), 4000)
	if res.Squashes == 0 {
		t.Fatal("expected at least one memory-order violation squash")
	}
	if pipe.ssets.Violations == 0 {
		t.Error("store sets not trained")
	}
	// The predictor should cap violations well below the iteration count.
	if res.Squashes > 100 {
		t.Errorf("%d squashes for 500 iterations: predictor not learning", res.Squashes)
	}
	if res.Committed != 4000 {
		t.Errorf("committed %d", res.Committed)
	}
}

func TestConservativeMemDepNoViolations(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x6000)
	b.SetReg(isa.R(3), 1)
	b.SetReg(isa.R(10), 500)
	b.Label("loop").
		Div(isa.R(5), isa.R(10), isa.R(3)).
		Add(isa.R(6), isa.R(1), isa.R(5)).
		St(isa.R(6), 0, isa.R(10)).
		Ld(isa.R(7), isa.R(6), 0).
		Addi(isa.R(10), isa.R(10), -1).
		Br(isa.CondNE, isa.R(10), "loop")
	cfg := smallConfig()
	cfg.MemDep = MemDepConservative
	_, res := runProgram(t, cfg, b.Build(), 3000)
	if res.Squashes != 0 {
		t.Errorf("conservative mode produced %d squashes", res.Squashes)
	}
}

func TestOracleMemDepNoViolations(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x6000)
	b.SetReg(isa.R(3), 1)
	b.SetReg(isa.R(10), 500)
	b.Label("loop").
		Div(isa.R(5), isa.R(10), isa.R(3)).
		Add(isa.R(6), isa.R(1), isa.R(5)).
		St(isa.R(6), 0, isa.R(10)).
		Ld(isa.R(7), isa.R(6), 0).
		Addi(isa.R(10), isa.R(10), -1).
		Br(isa.CondNE, isa.R(10), "loop")
	cfg := smallConfig()
	cfg.MemDep = MemDepOracle
	_, res := runProgram(t, cfg, b.Build(), 3000)
	if res.Squashes != 0 {
		t.Errorf("oracle mode produced %d squashes", res.Squashes)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *prog.Program {
		b := prog.NewBuilder("t")
		b.SetReg(isa.R(1), 999)
		b.SetReg(isa.R(2), 6364136223846793005)
		b.SetReg(isa.R(4), int64(0x20000))
		b.Label("loop").
			Mul(isa.R(1), isa.R(1), isa.R(2)).
			Andi(isa.R(3), isa.R(1), 0xFFF8).
			Add(isa.R(5), isa.R(4), isa.R(3)).
			Ld(isa.R(6), isa.R(5), 0).
			St(isa.R(5), 8, isa.R(6)).
			Addi(isa.R(7), isa.R(7), -1).
			Br(isa.CondNE, isa.R(7), "loop")
		return b.Build()
	}
	_, r1 := runProgram(t, smallConfig(), build(), 20_000)
	_, r2 := runProgram(t, smallConfig(), build(), 20_000)
	if r1.Cycles != r2.Cycles || r1.Committed != r2.Committed || r1.Squashes != r2.Squashes {
		t.Errorf("nondeterministic: %v vs %v", r1, r2)
	}
}

func TestSmallIQDegradesMLP(t *testing.T) {
	// A gather loop: more IQ = more overlapped misses = fewer cycles.
	build := func() *prog.Program {
		b := prog.NewBuilder("t")
		b.SetReg(isa.R(1), 77)
		b.SetReg(isa.R(2), 6364136223846793005)
		b.SetReg(isa.R(4), int64(0x100000))
		b.Label("loop").
			Mul(isa.R(1), isa.R(1), isa.R(2)).
			Addi(isa.R(1), isa.R(1), 1442695040888963407).
			Andi(isa.R(3), isa.R(1), 0x3FFFF8).
			Add(isa.R(5), isa.R(4), isa.R(3)).
			Ld(isa.R(6), isa.R(5), 0).
			Add(isa.R(7), isa.R(7), isa.R(6)).
			Addi(isa.R(8), isa.R(8), -1).
			Br(isa.CondNE, isa.R(8), "loop")
		return b.Build()
	}
	small := smallConfig()
	small.IQSize = 8
	big := smallConfig()
	big.IQSize = 256
	big.IntRegs = 512
	big.FPRegs = 512
	big.LQSize = 256
	big.Hier.L1DMSHRs = 0
	big.Hier.L2MSHRs = 0
	_, rs := runProgram(t, small, build(), 30_000)
	_, rb := runProgram(t, big, build(), 30_000)
	if rb.MLP <= rs.MLP {
		t.Errorf("bigger IQ did not raise MLP: %.2f vs %.2f", rb.MLP, rs.MLP)
	}
	if rb.Cycles >= rs.Cycles {
		t.Errorf("bigger IQ did not help: %d vs %d cycles", rb.Cycles, rs.Cycles)
	}
}

func TestWatchdogPanics(t *testing.T) {
	// A pipeline whose parker never releases parked instructions must be
	// caught by the watchdog — as an error, not a panic: the run aborts
	// like a cancel and Err names the failure.
	b := prog.NewBuilder("t")
	for i := 0; i < 100; i++ {
		b.Addi(isa.R(1), isa.R(1), 1)
	}
	cfg := smallConfig()
	cfg.WatchdogCycles = 500
	pipe := New(cfg, prog.NewEmulator(b.Build()), blackHoleParker{})
	pipe.Run(100, 10_000)
	if !pipe.Aborted() {
		t.Fatal("watchdog did not abort the run")
	}
	if err := pipe.Err(); err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("Err() = %v; want the watchdog failure", err)
	}
	if pipe.Now() > 600 {
		t.Errorf("run continued to cycle %d after the watchdog fired at ~500", pipe.Now())
	}
}

// blackHoleParker parks everything and never wakes it: used to verify the
// watchdog contract enforcement.
type blackHoleParker struct{ NullParker }

func (blackHoleParker) ShouldPark(*Pipeline, *Inflight, uint64) bool { return true }
func (blackHoleParker) CanAccept(uint64) bool                        { return true }
func (blackHoleParker) Park(*Pipeline, *Inflight, uint64)            {}
func (blackHoleParker) ParkedCount() int                             { return 1 }

// conflictParker parks nothing but reports every load as conflicting
// with an older parked store, so no load can ever issue: the shape of a
// head load that never issues.
type conflictParker struct{ NullParker }

func (conflictParker) ParkedStoreConflict(uint64, uint64) bool { return true }

func TestWatchdogNamesHeadBlocker(t *testing.T) {
	watchdog := func(parker Parker, pr *prog.Program) string {
		t.Helper()
		cfg := smallConfig()
		cfg.WatchdogCycles = 500
		pipe := New(cfg, prog.NewEmulator(pr), parker)
		pipe.Run(100, 10_000)
		if pipe.Err() == nil {
			t.Fatal("watchdog did not fire")
		}
		return pipe.Err().Error()
	}

	b := prog.NewBuilder("t")
	b.Addi(isa.R(1), isa.R(1), 1)
	msg := watchdog(blackHoleParker{}, b.Build())
	if !strings.Contains(msg, "rob head blocked: parked in the LTP") {
		t.Errorf("parked head not named:\n%s", msg)
	}

	b = prog.NewBuilder("t")
	b.Ld(isa.R(2), isa.R(3), 0x7000)
	b.Add(isa.R(4), isa.R(2), isa.R(2))
	msg = watchdog(conflictParker{}, b.Build())
	for _, want := range []string{
		"rob head blocked: in IQ",
		"blockedUntil=",
		"last load refusal: parked-store conflict",
		"src1 waiting on producer seq 0 (not issued, readyAt unknown)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog dump lacks %q:\n%s", want, msg)
		}
	}
}

func TestProgramEndDrains(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Addi(isa.R(1), isa.R(1), 1)
	b.Ld(isa.R(2), isa.R(3), 0x7000)
	b.Add(isa.R(4), isa.R(1), isa.R(2))
	pipe, res := runProgram(t, smallConfig(), b.Build(), 100)
	if res.Committed != 3 {
		t.Errorf("committed %d of 3", res.Committed)
	}
	if pipe.rob.Len() != 0 {
		t.Error("ROB not drained at program end")
	}
}

func TestSnapshotMetrics(t *testing.T) {
	b := prog.NewBuilder("t")
	for i := 0; i < 32; i++ {
		b.Addi(isa.R(1+i%8), isa.R(1+i%8), 1)
	}
	_, res := runProgram(t, smallConfig(), b.Build(), 100)
	if res.CPI <= 0 || res.IPC <= 0 {
		t.Error("CPI/IPC not computed")
	}
	if res.CPI*res.IPC < 0.99 || res.CPI*res.IPC > 1.01 {
		t.Error("CPI and IPC inconsistent")
	}
	if res.String() == "" {
		t.Error("empty result string")
	}
}
