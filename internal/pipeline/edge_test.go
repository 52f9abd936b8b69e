package pipeline

import (
	"testing"

	"ltp/internal/isa"
	"ltp/internal/prog"
)

// TestInfSentinelNeverBinds: structures sized Inf must never be the
// bottleneck (ROB is the only limit).
func TestInfSentinelNeverBinds(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 1<<40)
	b.SetReg(isa.R(2), int64(0x2_0000_0000))
	b.Label("loop").
		Ld(isa.R(3), isa.R(2), 0).
		Add(isa.R(4), isa.R(4), isa.R(3)).
		Addi(isa.R(2), isa.R(2), 64).
		Addi(isa.R(1), isa.R(1), -1).
		Br(isa.CondNE, isa.R(1), "loop")
	cfg := smallConfig()
	cfg.IQSize = Inf
	cfg.IntRegs, cfg.FPRegs = Inf, Inf
	cfg.LQSize, cfg.SQSize = Inf, Inf
	pipe, res := runProgram(t, cfg, b.Build(), 20_000)
	if res.StallIQ+res.StallRegs+res.StallLQ+res.StallSQ != 0 {
		t.Errorf("Inf-sized structures stalled rename: %+v", res)
	}
	if pipe.rob.Cap() != 256 {
		t.Errorf("ROB cap changed: %d", pipe.rob.Cap())
	}
}

// TestTinyWidths: a 1-wide machine must still be correct (just slow).
func TestTinyWidths(t *testing.T) {
	b := prog.NewBuilder("t")
	for i := 0; i < 50; i++ {
		b.Addi(isa.R(1+i%4), isa.R(1+i%4), 1)
	}
	cfg := smallConfig()
	cfg.FetchWidth, cfg.DecodeWidth, cfg.RenameWidth = 1, 1, 1
	cfg.IssueWidth, cfg.CommitWidth = 1, 1
	_, res := runProgram(t, cfg, b.Build(), 100)
	if res.Committed != 50 {
		t.Errorf("committed %d of 50", res.Committed)
	}
	if res.IPC > 1.01 {
		t.Errorf("1-wide machine exceeded IPC 1: %.2f", res.IPC)
	}
}

// TestUnpipelinedDivThroughput: back-to-back divides serialize on the
// single unpipelined unit.
func TestUnpipelinedDivThroughput(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 1000)
	b.SetReg(isa.R(2), 1)
	// Independent divides (different destinations, same sources).
	for i := 0; i < 20; i++ {
		b.Div(isa.R(3+i%8), isa.R(1), isa.R(2))
	}
	_, res := runProgram(t, smallConfig(), b.Build(), 100)
	// 20 divides at 20 cycles each on one unpipelined unit: >= 400 cycles.
	if res.Cycles < 20*uint64(isa.Latency[isa.IDiv]) {
		t.Errorf("independent divides finished in %d cycles; unpipelined unit not modelled", res.Cycles)
	}
}

// TestStoreDataArrivesAfterAddress: a store whose data operand is produced
// long after its address must not commit until the data is ready.
func TestStoreDataLate(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 0x4000) // address base, ready at once
	b.SetReg(isa.R(2), 9)
	b.SetReg(isa.R(3), 3)
	b.Div(isa.R(4), isa.R(2), isa.R(3)) // slow data producer
	b.St(isa.R(1), 0, isa.R(4))         // store addr ready, data late
	b.Addi(isa.R(5), isa.R(5), 1)
	_, res := runProgram(t, smallConfig(), b.Build(), 10)
	if res.Committed != 3 {
		t.Fatalf("committed %d", res.Committed)
	}
	if res.Cycles < uint64(isa.Latency[isa.IDiv]) {
		t.Errorf("store committed before its data could exist (%d cycles)", res.Cycles)
	}
}

// TestROBCapBindsWindow: the ROB limits in-flight instructions exactly.
func TestROBCapBindsWindow(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 1<<40)
	b.SetReg(isa.R(2), int64(0x2_0000_0000))
	b.SetReg(isa.R(7), 6364136223846793005)
	b.Label("loop").
		Mul(isa.R(6), isa.R(6), isa.R(7)).
		Andi(isa.R(5), isa.R(6), 0x3FFFF8).
		Add(isa.R(3), isa.R(2), isa.R(5)).
		Ld(isa.R(4), isa.R(3), 0).
		Add(isa.R(8), isa.R(8), isa.R(4)).
		Addi(isa.R(1), isa.R(1), -1).
		Br(isa.CondNE, isa.R(1), "loop")
	cfg := smallConfig()
	cfg.ROBSize = 32
	cfg.IQSize = Inf
	cfg.IntRegs, cfg.FPRegs = Inf, Inf
	cfg.LQSize, cfg.SQSize = Inf, Inf
	cfg.Hier.L1DMSHRs = 0
	cfg.Hier.L2MSHRs = 0
	pipe, res := runProgram(t, cfg, b.Build(), 20_000)
	if max := pipe.OccROB.Max(); max > 32 {
		t.Errorf("ROB occupancy %v exceeded cap 32", max)
	}
	// With 7 instructions per iteration and one miss each, a 32-entry ROB
	// caps MLP at ~4-5.
	if res.MLP > 6 {
		t.Errorf("MLP %.1f exceeds what a 32-entry ROB allows", res.MLP)
	}
}

// TestReplayBufferReclaims: the fetch replay buffer must not grow without
// bound over a long run.
func TestReplayBufferReclaims(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetReg(isa.R(1), 1<<40)
	b.Label("loop").
		Addi(isa.R(2), isa.R(2), 1).
		Addi(isa.R(1), isa.R(1), -1).
		Br(isa.CondNE, isa.R(1), "loop")
	pipe, _ := runProgram(t, smallConfig(), b.Build(), 100_000)
	if cap(pipe.fetchBuf) > 8*pipe.cfg.ROBSize+4096 {
		t.Errorf("replay buffer capacity grew to %d", cap(pipe.fetchBuf))
	}
}

// TestRunCommitsStalledLastStore: a program that ends with stores
// waiting for SQ entries still held by committed, draining stores must
// commit every one of them. The last store sits between the decode
// queue and dispatch when everything older has committed, so Run's
// end-of-program check must count it as in flight.
func TestRunCommitsStalledLastStore(t *testing.T) {
	for sq := 1; sq <= 4; sq++ {
		for n := 1; n <= 8; n++ {
			b := prog.NewBuilder("t")
			b.SetReg(isa.R(1), 0x4000)
			b.SetReg(isa.R(2), 7)
			for i := 0; i < n; i++ {
				b.St(isa.R(1), int64(8*i), isa.R(2))
			}
			cfg := smallConfig()
			cfg.SQSize = sq
			pr := b.Build()
			pipe := New(cfg, prog.NewEmulator(pr), NullParker{})
			for i := range pr.Insts {
				pipe.Hier.WarmFetch(prog.PCOf(i))
			}
			if got := pipe.Run(1_000, 0); got != uint64(n) || pipe.Err() != nil {
				t.Errorf("SQ %d, %d stores: Run committed %d (err %v)", sq, n, got, pipe.Err())
			}
			if err := pipe.CheckInvariants(); err != nil {
				t.Errorf("SQ %d, %d stores: %v", sq, n, err)
			}
		}
	}
}
