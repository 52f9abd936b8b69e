package core

import (
	"math/rand"
	"testing"

	"ltp/internal/isa"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

// randomProgram generates a structurally valid random loop: a mix of ALU
// ops, loads/stores over a table, divides, and a data-dependent branch,
// with registers drawn from a small pool so real dependence chains form.
func randomProgram(seed int64) *prog.Program {
	rng := rand.New(rand.NewSource(seed))
	b := prog.NewBuilder("fuzz")

	const tableWords = 1 << 14
	rBase := isa.R(15)
	rCnt := isa.R(14)
	b.SetReg(rBase, 0x5_0000_0000)
	b.SetReg(rCnt, 1<<40)
	for i := 1; i < 8; i++ {
		b.SetReg(isa.R(i), rng.Int63n(1000)+1)
	}

	reg := func() isa.Reg { return isa.R(1 + rng.Intn(7)) }
	freg := func() isa.Reg { return isa.F(1 + rng.Intn(7)) }

	b.Label("loop")
	n := 8 + rng.Intn(24)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			b.Add(reg(), reg(), reg())
		case 3:
			b.Mul(reg(), reg(), reg())
		case 4:
			b.FAdd(freg(), freg(), freg())
		case 5:
			// Masked table load: address always in range, 8-aligned.
			r1, r2 := reg(), reg()
			b.Andi(r1, r2, (tableWords-1)<<3)
			b.Add(r1, r1, rBase)
			b.Ld(reg(), r1, 0)
		case 6:
			r1, r2 := reg(), reg()
			b.Andi(r1, r2, (tableWords-1)<<3)
			b.Add(r1, r1, rBase)
			b.St(r1, 0, reg())
		case 7:
			b.Div(reg(), reg(), reg())
		case 8:
			b.Addi(reg(), reg(), rng.Int63n(64)-32)
		case 9:
			b.Andi(reg(), reg(), 0xFFFF)
		}
	}
	b.Addi(rCnt, rCnt, -1)
	b.Br(isa.CondNE, rCnt, "loop")
	b.Jmp("loop")
	return b.Build()
}

// TestFuzzRandomPrograms runs randomly generated programs through the
// baseline, every LTP mode on a small core, and the limit study's
// unlimited core and LTP, checking invariants and that every
// configuration commits without deadlocking. This is the
// failure-injection net for the parking / wakeup / squash interactions.
func TestFuzzRandomPrograms(t *testing.T) {
	const insts = 12_000
	type fuzzMode struct {
		mode  Mode
		limit bool // unlimited IQ/RF/LQ/SQ and LTP, late LSQ allocation
	}
	modes := []fuzzMode{{ModeOff, false}, {ModeNU, false}, {ModeNR, false}, {ModeNRNU, false}, {ModeNRNU, true}}
	for seed := int64(1); seed <= 8; seed++ {
		p := randomProgram(seed)

		for _, m := range modes {
			mode := m.mode
			pcfg := pipeline.DefaultConfig()
			pcfg.Hier.PrefetchDegree = 0
			pcfg.IQSize = 24
			pcfg.IntRegs, pcfg.FPRegs = 72, 72
			pcfg.LQSize, pcfg.SQSize = 24, 12
			pcfg.WatchdogCycles = 200_000
			lcfg := DefaultConfig()
			lcfg.Mode = mode
			lcfg.Entries = 48
			lcfg.Ports = 2
			lcfg.Tickets = 8
			if m.limit {
				pcfg.IQSize = pipeline.Inf
				pcfg.IntRegs, pcfg.FPRegs = pipeline.Inf, pipeline.Inf
				pcfg.LQSize, pcfg.SQSize = pipeline.Inf, pipeline.Inf
				pcfg.LateLSQAlloc = true
				lcfg.Entries, lcfg.Ports = 0, 0
			}

			var parker pipeline.Parker = pipeline.NullParker{}
			if mode != ModeOff {
				parker = New(lcfg, pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
			}
			pipe := pipeline.New(pcfg, prog.NewEmulator(p), parker)
			for i := range p.Insts {
				pipe.Hier.WarmFetch(prog.PCOf(i))
			}
			for pipe.Committed() < insts {
				pipe.Cycle()
				if err := pipe.Err(); err != nil {
					t.Fatalf("seed %d mode %v limit=%v: %v", seed, mode, m.limit, err)
				}
				if pipe.Now()%512 == 0 {
					if err := pipe.CheckInvariants(); err != nil {
						t.Fatalf("seed %d mode %v limit=%v: %v", seed, mode, m.limit, err)
					}
				}
				if pipe.Now() > 5_000_000 {
					t.Fatalf("seed %d mode %v limit=%v: runaway (committed %d)", seed, mode, m.limit, pipe.Committed())
				}
			}
			if err := pipe.CheckInvariants(); err != nil {
				t.Fatalf("seed %d mode %v limit=%v final: %v", seed, mode, m.limit, err)
			}
		}
	}
}

// TestFuzzSqueezeResources stresses the deadlock-avoidance reserves with
// pathologically small structures.
func TestFuzzSqueezeResources(t *testing.T) {
	for seed := int64(20); seed <= 24; seed++ {
		p := randomProgram(seed)
		pcfg := pipeline.DefaultConfig()
		pcfg.Hier.PrefetchDegree = 0
		pcfg.IQSize = 12
		pcfg.IntRegs, pcfg.FPRegs = 40, 40
		pcfg.LQSize, pcfg.SQSize = 10, 6
		pcfg.ROBSize = 64
		pcfg.WatchdogCycles = 200_000
		pcfg.LateLSQAlloc = true

		lcfg := DefaultConfig()
		lcfg.Mode = ModeNRNU
		lcfg.Entries = 24
		lcfg.Ports = 1
		lcfg.Tickets = 4
		unit := New(lcfg, pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
		pipe := pipeline.New(pcfg, prog.NewEmulator(p), unit)
		for i := range p.Insts {
			pipe.Hier.WarmFetch(prog.PCOf(i))
		}
		for pipe.Committed() < 8_000 {
			pipe.Cycle()
			if err := pipe.Err(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if pipe.Now() > 5_000_000 {
				t.Fatalf("seed %d: runaway (committed %d)", seed, pipe.Committed())
			}
		}
		if err := pipe.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
