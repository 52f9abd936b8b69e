package core

import (
	"testing"

	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/prog"
)

func TestUITInsertLookup(t *testing.T) {
	u := NewUIT(256, 4)
	if u.Urgent(0x1000) {
		t.Error("empty UIT reported urgent")
	}
	u.Insert(0x1000)
	if !u.Urgent(0x1000) {
		t.Error("inserted PC not urgent")
	}
	u.Insert(0x1000) // duplicate: no growth
	if u.Len() != 1 {
		t.Errorf("duplicate insert grew the table to %d", u.Len())
	}
}

func TestUITEviction(t *testing.T) {
	u := NewUIT(8, 4) // 2 sets x 4 ways
	// Fill one set (PCs mapping to set 0: pc>>2 even).
	pcs := []uint64{0x100, 0x500, 0x900, 0xD00, 0x1100}
	for _, pc := range pcs {
		u.Insert(pc)
	}
	if u.Evicts == 0 {
		t.Error("overfilled set did not evict")
	}
	if !u.Urgent(pcs[len(pcs)-1]) {
		t.Error("most recent insert evicted")
	}
}

func TestUITUnlimited(t *testing.T) {
	u := NewUIT(0, 0)
	for pc := uint64(4); pc < 4096; pc += 4 {
		u.Insert(pc)
	}
	if u.Len() != 1023 {
		t.Errorf("unlimited UIT length %d", u.Len())
	}
	if u.Evicts != 0 {
		t.Error("unlimited UIT evicted")
	}
}

func TestLLPredictorLearnsAlwaysMiss(t *testing.T) {
	p := DefaultLLPredictor()
	pc := uint64(0x2000)
	for i := 0; i < 32; i++ {
		p.Predict(pc)
		p.Train(pc, true)
	}
	if !p.Predict(pc) {
		t.Error("always-miss load not predicted LL")
	}
}

func TestLLPredictorLearnsAlwaysHit(t *testing.T) {
	p := DefaultLLPredictor()
	pc := uint64(0x3000)
	for i := 0; i < 32; i++ {
		p.Train(pc, false)
	}
	if p.Predict(pc) {
		t.Error("always-hit load predicted LL")
	}
}

func TestLLPredictorPeriodicPattern(t *testing.T) {
	// hit,hit,hit,miss repeating: the 4-bit history disambiguates.
	p := DefaultLLPredictor()
	pc := uint64(0x4000)
	for i := 0; i < 400; i++ {
		p.Train(pc, i%4 == 3)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if p.Predict(pc) == (i%4 == 3) {
			correct++
		}
		p.Train(pc, i%4 == 3)
	}
	if correct < 85 {
		t.Errorf("periodic pattern: %d/100 correct", correct)
	}
}

func TestDRAMMonitor(t *testing.T) {
	m := NewDRAMMonitor(200, false)
	if m.Enabled(0) {
		t.Error("monitor enabled before any miss")
	}
	m.NoteDemandMiss(100)
	if !m.Enabled(100) || !m.Enabled(299) {
		t.Error("monitor not enabled within the timer window")
	}
	if m.Enabled(300) {
		t.Error("monitor enabled after timer expiry")
	}
	// Restart extends.
	m.NoteDemandMiss(250)
	if !m.Enabled(350) {
		t.Error("timer restart broken")
	}
	for c := uint64(0); c < 10; c++ {
		m.Tick(c)
	}
	if m.EnabledFraction() == 0 {
		t.Error("enabled fraction not tracked")
	}
}

func TestDRAMMonitorForceOn(t *testing.T) {
	m := NewDRAMMonitor(200, true)
	if !m.Enabled(1_000_000) {
		t.Error("forced-on monitor reported disabled")
	}
}

func TestModeHelpers(t *testing.T) {
	if !ModeNU.ParksNU() || ModeNU.ParksNR() {
		t.Error("ModeNU flags wrong")
	}
	if ModeNR.ParksNU() || !ModeNR.ParksNR() {
		t.Error("ModeNR flags wrong")
	}
	if !ModeNRNU.ParksNU() || !ModeNRNU.ParksNR() {
		t.Error("ModeNRNU flags wrong")
	}
	if ModeNRNU.String() != "NR+NU" {
		t.Errorf("mode name %q", ModeNRNU)
	}
}

// fig2Program builds the paper's Fig. 2 loop with a guaranteed-miss B
// array access (D) so classification is observable quickly.
func fig2Program() *prog.Program {
	const wordsA = 1 << 12
	const wordsB = 1 << 16 // 512 kB: misses the small test caches often
	b := prog.NewBuilder("fig2")
	rJ, rI := isa.R(1), isa.R(2)
	rBaseA, rBaseB, rBaseC := isa.R(3), isa.R(4), isa.R(5)
	rT1, rAddrA, rAddrB, rAddrC := isa.R(6), isa.R(7), isa.R(8), isa.R(9)
	rD, rD2, rT2 := isa.R(10), isa.R(11), isa.R(12)
	b.SetReg(rBaseA, 0x1_0000_0000)
	b.SetReg(rBaseB, 0x2_0000_0000)
	b.SetReg(rBaseC, 0x3_0000_0000)
	b.InitWith(func(m *prog.Memory) {
		// Pseudo-random indices into B.
		x := uint64(12345)
		for k := 0; k < wordsA; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			m.Write(0x1_0000_0000+uint64(k)*8, int64((x%(wordsB))<<3))
		}
	})
	b.Label("outer").
		Movi(rJ, int64(wordsA-1)<<3).
		Movi(rI, 0)
	b.Label("loop").
		Add(rAddrA, rBaseA, rJ).Tag("A").
		Ld(rT1, rAddrA, 0).Tag("B").
		Add(rAddrB, rBaseB, rT1).Tag("C").
		Ld(rD, rAddrB, 0).Tag("D").
		Addi(rJ, rJ, -8).Tag("E").
		Addi(rD2, rD, 5).Tag("F").
		Add(rAddrC, rBaseC, rI).Tag("G").
		St(rAddrC, 0, rD2).Tag("H").
		Addi(rI, rI, 8).Tag("I").
		Addi(rT2, rJ, 0).Tag("J").
		Br(isa.CondGE, rT2, "loop").Tag("K").
		Jmp("outer")
	return b.Build()
}

func TestOracleClassifiesFig2(t *testing.T) {
	p := fig2Program()
	hcfg := mem.DefaultConfig()
	hcfg.PrefetchDegree = 0
	o := BuildOracle(p, 20_000, hcfg, 256)
	if o.Len() < 20_000 {
		t.Fatalf("oracle classified %d", o.Len())
	}

	// Tally flags per static tag over the steady-state region.
	urgent := map[string]int{}
	nonReady := map[string]int{}
	ll := map[string]int{}
	count := map[string]int{}
	em := prog.NewEmulator(p)
	var u isa.Uop
	for i := 0; i < 20_000; i++ {
		if !em.Next(&u) {
			break
		}
		if i < 2_000 || u.Label == "" {
			continue // skip warm-up and untagged
		}
		fl := o.Flags(u.Seq)
		count[u.Label]++
		if fl&FlagUrgent != 0 {
			urgent[u.Label]++
		}
		if fl&FlagNonReady != 0 {
			nonReady[u.Label]++
		}
		if fl&FlagLongLat != 0 {
			ll[u.Label]++
		}
	}

	frac := func(m map[string]int, tag string) float64 {
		if count[tag] == 0 {
			return 0
		}
		return float64(m[tag]) / float64(count[tag])
	}

	// D is the missing load: mostly long-latency and urgent.
	if frac(ll, "D") < 0.5 {
		t.Errorf("D long-latency fraction %.2f", frac(ll, "D"))
	}
	// The address chain A,B,C,E must be mostly urgent (Fig. 2).
	for _, tag := range []string{"A", "B", "C", "E"} {
		if frac(urgent, tag) < 0.5 {
			t.Errorf("%s urgent fraction %.2f, want >0.5", tag, frac(urgent, tag))
		}
	}
	// G, I, J, K are not ancestors of the miss: Non-Urgent.
	for _, tag := range []string{"G", "I", "J", "K"} {
		if frac(urgent, tag) > 0.2 {
			t.Errorf("%s urgent fraction %.2f, want low", tag, frac(urgent, tag))
		}
	}
	// F consumes the miss: Non-Ready.
	if frac(nonReady, "F") < 0.5 {
		t.Errorf("F non-ready fraction %.2f", frac(nonReady, "F"))
	}
	// A, the address generator, does not descend from the miss.
	if frac(nonReady, "A") > 0.2 {
		t.Errorf("A non-ready fraction %.2f, want low", frac(nonReady, "A"))
	}
}

func TestOracleShortBudget(t *testing.T) {
	p := fig2Program()
	o := BuildOracle(p, 100, mem.DefaultConfig(), 64)
	if o.Len() == 0 {
		t.Fatal("empty oracle")
	}
	if o.Flags(1<<40) != 0 {
		t.Error("out-of-range seq must report zero flags")
	}
}
