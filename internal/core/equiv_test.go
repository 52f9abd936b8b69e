package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/stats"
)

// equivShape is one configuration on which Pipeline.Run, which skips
// idle cycles, is compared with a plain Cycle loop.
type equivShape struct {
	name      string
	pcfg      pipeline.Config
	lcfg      *Config // nil: the baseline core
	stuck     bool    // the unit never wakes anything: the watchdog fires
	insts     uint64
	maxCycles uint64
}

// Shape bits, as FuzzRunMatchesCycle draws them.
const (
	shapeModeMask = 3 // ModeOff, ModeNU, ModeNR, ModeNRNU
	shapeLimit    = 1 << 2
	shapeForceOn  = 1 << 3
	shapeCap      = 1 << 4
	shapeWIB      = 1 << 5
	shapeStuck    = 1 << 6
	shapeSqueeze  = 1 << 7
)

// shapeOf builds the configuration the bits name: the LTP mode, the
// realistic core (8 tickets, 2 ports) or the limit study's unlimited
// one, the DRAM monitor on its timer or forced on, and optionally a
// MaxCycles cap, the WIB baseline or a unit that never wakes.
func shapeOf(bits uint8, insts uint64) equivShape {
	mode := Mode(bits & shapeModeMask)
	s := equivShape{insts: insts}
	s.pcfg = pipeline.DefaultConfig()
	s.pcfg.Hier.PrefetchDegree = 0
	s.pcfg.IQSize = 24
	s.pcfg.IntRegs, s.pcfg.FPRegs = 72, 72
	s.pcfg.LQSize, s.pcfg.SQSize = 24, 12
	s.pcfg.WatchdogCycles = 200_000
	lcfg := DefaultConfig()
	lcfg.Mode = mode
	lcfg.Entries, lcfg.Ports, lcfg.Tickets = 48, 2, 8
	core := "real"
	if bits&shapeLimit != 0 {
		core = "limit"
		s.pcfg.IQSize = pipeline.Inf
		s.pcfg.IntRegs, s.pcfg.FPRegs = pipeline.Inf, pipeline.Inf
		s.pcfg.LQSize, s.pcfg.SQSize = pipeline.Inf, pipeline.Inf
		s.pcfg.LateLSQAlloc = true
		lcfg.Entries, lcfg.Ports = 0, 0
	}
	if bits&shapeSqueeze != 0 {
		// Structures so small that pressure releases and the LTP's
		// liveness valve fire (TestWakeNRMatchesQueueWalk's squeeze).
		core = "squeeze"
		s.pcfg.IQSize, s.pcfg.ROBSize = 6, 48
		s.pcfg.IntRegs, s.pcfg.FPRegs = 36, 36
		s.pcfg.LQSize, s.pcfg.SQSize = 8, 6
		s.pcfg.ParkReserveIQ, s.pcfg.ParkReserveRegs = 0, 1
		s.pcfg.LateLSQAlloc = true
		lcfg.Entries, lcfg.Ports, lcfg.Tickets = 0, 0, 4
	}
	monitor := "timer"
	if bits&shapeForceOn != 0 {
		monitor = "forced"
		lcfg.MonitorForceOn = true
	}
	if bits&shapeStuck != 0 {
		// The NU unit with the monitor forced on parks the first
		// instruction it classifies, which the UIT has not learned.
		mode, monitor = ModeNU, "forced"
		lcfg.Mode, lcfg.MonitorForceOn = mode, true
		s.stuck = true
		s.pcfg.WatchdogCycles = 3_000
	}
	s.name = fmt.Sprintf("%v/%s/%s", mode, core, monitor)
	if s.stuck {
		s.name += "/stuck"
	}
	if lcfg.Mode != ModeOff {
		s.lcfg = &lcfg
	}
	if bits&shapeCap != 0 {
		s.maxCycles = insts / 10 // binds even at the full commit width of 8
		s.name += "/cap"
	}
	if bits&shapeWIB != 0 {
		s.pcfg.WIBSize, s.pcfg.WIBPorts = 64, 4
		s.name += "/wib"
	}
	return s
}

// stuckLTP parks like the LTP but never wakes anything, so the ROB head
// stays parked until the watchdog fires.
type stuckLTP struct{ *LTP }

func (stuckLTP) Wake(*pipeline.Pipeline, uint64, int, bool) int { return 0 }

// ltpView is every statistic the LTP reports, and its monitor timer.
type ltpView struct {
	OccInsts, OccRegs, OccLoads, OccStores        stats.Accumulator
	ParkedTotal, WokenTotal, PressureWakes        uint64
	ForcedParks, ClassUrgent, ClassNonReady       uint64
	TicketsExhausted, Enqueues, Dequeues          uint64
	EnabledCycles, TotalCycles                    uint64
	Predictions, PredictedLL, Correct, TimerUntil uint64
}

func viewOf(l *LTP) ltpView {
	return ltpView{
		l.OccInsts, l.OccRegs, l.OccLoads, l.OccStores,
		l.ParkedTotal, l.WokenTotal, l.PressureWakes,
		l.ForcedParks, l.ClassUrgent, l.ClassNonReady,
		l.TicketsExhausted, l.Enqueues, l.Dequeues,
		l.monitor.EnabledCycles, l.monitor.TotalCycles,
		l.llpred.Predictions, l.llpred.PredictedLL, l.llpred.Correct, l.monitor.timerUntil,
	}
}

// equivOutcome is everything a run reports.
type equivOutcome struct {
	result         string // json(Snapshot())
	now, committed uint64
	err            string
	ltp            ltpView
}

// runShape simulates randomProgram(seed) on the shape, either through
// Run or by calling Cycle under Run's stop rule (the program never
// ends, so the rule is the instruction budget, the cap and an abort).
// It returns the outcome and the share of cycles Run skipped.
func runShape(seed int64, s equivShape, step bool) (equivOutcome, float64) {
	p := randomProgram(seed)
	var parker pipeline.Parker = pipeline.NullParker{}
	var unit *LTP
	if s.lcfg != nil {
		unit = New(*s.lcfg, s.pcfg.Hier.DRAMLatency, s.pcfg.Hier.TagEarlyLead)
		parker = unit
		if s.stuck {
			parker = stuckLTP{unit}
		}
	}
	pipe := pipeline.New(s.pcfg, prog.NewEmulator(p), parker)
	for i := range p.Insts {
		pipe.Hier.WarmFetch(prog.PCOf(i))
	}
	if step {
		for pipe.Committed() < s.insts && !pipe.Aborted() && (s.maxCycles == 0 || pipe.Now() < s.maxCycles) {
			pipe.Cycle()
		}
	} else {
		pipe.Run(s.insts, s.maxCycles)
	}
	js, err := json.Marshal(pipe.Snapshot())
	if err != nil {
		panic(err)
	}
	out := equivOutcome{result: string(js), now: pipe.Now(), committed: pipe.Committed()}
	if err := pipe.Err(); err != nil {
		out.err = err.Error()
	}
	if unit != nil {
		out.ltp = viewOf(unit)
	}
	return out, float64(pipe.SkippedCycles()) / float64(max(pipe.Now(), 1))
}

// checkRunMatchesCycle compares Run with the Cycle loop on one shape
// and returns the share of cycles Run skipped.
func checkRunMatchesCycle(t *testing.T, seed int64, s equivShape) float64 {
	t.Helper()
	got, skipped := runShape(seed, s, false)
	want, _ := runShape(seed, s, true)
	if got != want {
		t.Errorf("seed %d %s: Run diverges from stepping Cycle:\n got %+v\nwant %+v", seed, s.name, got, want)
	}
	switch {
	case s.maxCycles > 0 && !s.stuck && got.now != s.maxCycles:
		t.Errorf("seed %d %s: the cap did not bind (cycle %d)", seed, s.name, got.now)
	case s.maxCycles == 0 && s.stuck && !strings.Contains(got.err, "watchdog"):
		t.Errorf("seed %d %s: the watchdog did not fire (err %q)", seed, s.name, got.err)
	}
	if s.pcfg.WIBSize > 0 && skipped != 0 {
		t.Errorf("seed %d %s: Run skipped %.1f%% of the WIB baseline's cycles", seed, s.name, 100*skipped)
	}
	return skipped
}

// TestRunMatchesCycle requires Run to give exactly what stepping Cycle
// gives — the Result bytes, the cycle count, the error and every LTP
// statistic — for random programs on every LTP mode, on the realistic
// and the limit core, with the DRAM monitor on its timer and forced
// on, and for a MaxCycles cap, the WIB baseline and a watchdog that
// fires. Skipping must also happen: the realistic core waits on DRAM
// with a full window for much of the run, and a skip that never fires
// fails the test.
func TestRunMatchesCycle(t *testing.T) {
	seeds, insts := int64(4), uint64(6_000)
	if testing.Short() {
		seeds, insts = 2, 3_000
	}
	var shapes []uint8
	for mode := uint8(0); mode <= shapeModeMask; mode++ {
		for _, b := range []uint8{0, shapeLimit, shapeForceOn, shapeLimit | shapeForceOn} {
			if mode == uint8(ModeOff) && b&shapeForceOn != 0 {
				continue // no unit, no monitor
			}
			shapes = append(shapes, mode|b)
		}
	}
	shapes = append(shapes,
		uint8(ModeNU)|shapeCap, uint8(ModeNRNU)|shapeLimit|shapeCap,
		uint8(ModeOff)|shapeWIB, uint8(ModeNU)|shapeWIB,
		shapeStuck, shapeLimit|shapeStuck,
		uint8(ModeNU)|shapeSqueeze, uint8(ModeNR)|shapeSqueeze, uint8(ModeNRNU)|shapeSqueeze|shapeForceOn)
	for seed := int64(1); seed <= seeds; seed++ {
		for _, b := range shapes {
			s := shapeOf(b, insts)
			skipped := checkRunMatchesCycle(t, seed, s)
			t.Logf("seed %d %-28s skipped %.1f%%", seed, s.name, 100*skipped)
			if b&(shapeLimit|shapeWIB|shapeSqueeze) == 0 && skipped < 0.15 {
				t.Errorf("seed %d %s: Run skipped only %.1f%% of the cycles", seed, s.name, 100*skipped)
			}
		}
	}
	// Programs whose idle stretches hold the ROB head parked under
	// pressure, so Wake counts a pressure wake in each skipped cycle and
	// the liveness valve bounds skips. Seed 30 wedges the squeezed NU
	// core until the watchdog fires, with almost every cycle skipped.
	for _, c := range []struct {
		seed int64
		bits uint8
	}{{40, uint8(ModeNRNU) | shapeSqueeze | shapeForceOn}, {30, uint8(ModeNU) | shapeSqueeze}} {
		checkRunMatchesCycle(t, c.seed, shapeOf(c.bits, insts))
	}
}

// FuzzRunMatchesCycle draws the program seed and the shape bits.
func FuzzRunMatchesCycle(f *testing.F) {
	f.Add(int64(1), uint8(ModeNU))
	f.Add(int64(2), uint8(ModeNRNU)|shapeLimit|shapeCap)
	f.Add(int64(3), uint8(ModeNR)|shapeForceOn|shapeStuck)
	f.Fuzz(func(t *testing.T, seed int64, bits uint8) {
		checkRunMatchesCycle(t, seed, shapeOf(bits, 2_000))
	})
}
