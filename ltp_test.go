package ltp_test

import (
	"context"
	"strings"
	"testing"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
)

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := ltp.RunContext(context.Background(), ltp.RunSpec{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestWorkloadsRegistry(t *testing.T) {
	if len(ltp.Workloads()) < 12 {
		t.Fatalf("registry too small: %d", len(ltp.Workloads()))
	}
	if _, err := ltp.WorkloadByName("indirect"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBaselineSmoke(t *testing.T) {
	r, err := ltp.RunContext(context.Background(), ltp.RunSpec{
		Workload: "gather", Scale: 0.05,
		WarmInsts: 10_000, MaxInsts: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < 30_000 || r.CPI <= 0 {
		t.Errorf("bad result: %v", r.Result)
	}
	if r.LTP != nil {
		t.Error("baseline run reported LTP stats")
	}
	if r.Energy.IQ <= 0 || r.Energy.RF <= 0 {
		t.Error("energy model not evaluated")
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := ltp.RunSpec{
		Workload: "indirectwork", Scale: 0.05,
		WarmInsts: 10_000, MaxInsts: 30_000, UseLTP: true,
	}
	a := mustRun(t, spec)
	b := mustRun(t, spec)
	if a.Cycles != b.Cycles || a.MLP != b.MLP {
		t.Errorf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

// The headline reproduction check: on an MLP-sensitive kernel with the
// small core (IQ:32/RF:96), LTP must recover a large share of the big
// baseline's performance (paper Fig. 6/10).
func TestLTPRecoversSmallCorePerformance(t *testing.T) {
	small := pipeline.DefaultConfig()
	small.IQSize = 32
	small.IntRegs, small.FPRegs = 96, 96

	mk := func(useLTP bool, cfg pipeline.Config) ltp.RunResult {
		return mustRun(t, ltp.RunSpec{
			Workload: "indirectwork", Scale: 0.1,
			WarmInsts: 30_000, MaxInsts: 80_000,
			Pipeline: &cfg, UseLTP: useLTP,
		})
	}
	base := mk(false, pipeline.DefaultConfig())
	noLTP := mk(false, small)
	withLTP := mk(true, small)

	if noLTP.Cycles <= base.Cycles {
		t.Skip("small core unexpectedly not slower; workload scaling issue")
	}
	if withLTP.Cycles >= noLTP.Cycles {
		t.Errorf("LTP did not help the small core: %d vs %d cycles", withLTP.Cycles, noLTP.Cycles)
	}
	// LTP must close at least half of the gap to the big baseline.
	gap := float64(noLTP.Cycles - base.Cycles)
	closed := float64(noLTP.Cycles - withLTP.Cycles)
	if closed < 0.5*gap {
		t.Errorf("LTP closed only %.0f%% of the small-core gap", 100*closed/gap)
	}
}

func TestMonitorKeepsLTPOffOnCompute(t *testing.T) {
	r := mustRun(t, ltp.RunSpec{
		Workload: "compute", Scale: 0.05,
		WarmInsts: 5_000, MaxInsts: 20_000, UseLTP: true,
	})
	if r.LTP == nil {
		t.Fatal("no LTP stats")
	}
	if r.LTP.EnabledFrac > 0.02 {
		t.Errorf("LTP enabled %.0f%% on compute-bound code", r.LTP.EnabledFrac*100)
	}
	if r.LTP.ParkedTotal != 0 {
		t.Errorf("%d parked on compute-bound code", r.LTP.ParkedTotal)
	}
}

func TestOracleMode(t *testing.T) {
	lcfg := core.DefaultConfig()
	lcfg.Mode = core.ModeNRNU
	lcfg.Entries, lcfg.Ports = 0, 0
	r := mustRun(t, ltp.RunSpec{
		Workload: "gather", Scale: 0.05,
		WarmInsts: 10_000, MaxInsts: 30_000,
		UseLTP: true, LTP: &lcfg, Oracle: true,
	})
	if r.LTP == nil || r.LTP.ParkedTotal == 0 {
		t.Error("oracle mode parked nothing on a gather kernel")
	}
}

// TestWarmupEquivalence is the fast-warm acceptance gate: on two
// workloads, the measured-region CPI after the functional fast warm-up
// must agree with the detailed (full pipeline) warm-up within 1%, with
// and without the LTP attached. If this breaks, a warm hook has drifted
// from what the pipeline actually trains.
func TestWarmupEquivalence(t *testing.T) {
	for _, tc := range []struct {
		workload string
		useLTP   bool
	}{
		{"indirectwork", false},
		{"indirectwork", true},
		{"gather", false},
		{"gather", true},
	} {
		name := tc.workload
		if tc.useLTP {
			name += "+ltp"
		}
		t.Run(name, func(t *testing.T) {
			cfg := pipeline.DefaultConfig()
			cfg.IQSize = 32
			cfg.IntRegs, cfg.FPRegs = 96, 96
			run := func(wm ltp.WarmMode) ltp.RunResult {
				return mustRun(t, ltp.RunSpec{
					Workload: tc.workload, Scale: 0.1,
					WarmInsts: 40_000, MaxInsts: 80_000, WarmMode: wm,
					Pipeline: &cfg, UseLTP: tc.useLTP,
				})
			}
			fast := run(ltp.WarmFast)
			detailed := run(ltp.WarmDetailed)
			if detailed.CPI <= 0 {
				t.Fatalf("detailed warm produced CPI %v", detailed.CPI)
			}
			rel := fast.CPI/detailed.CPI - 1
			if rel < 0 {
				rel = -rel
			}
			if rel > 0.01 {
				t.Errorf("fast-warm CPI %.4f vs detailed-warm CPI %.4f: %.2f%% apart (want <1%%)",
					fast.CPI, detailed.CPI, rel*100)
			}
		})
	}
}

// TestWarmModeString pins the flag-facing names.
func TestWarmModeString(t *testing.T) {
	if ltp.WarmFast.String() != "fast" || ltp.WarmDetailed.String() != "detailed" {
		t.Error("warm mode names changed")
	}
	if _, err := ltp.ParseWarmMode("nope"); err == nil {
		t.Error("ParseWarmMode accepted garbage")
	}
	if m, err := ltp.ParseWarmMode("detailed"); err != nil || m != ltp.WarmDetailed {
		t.Error("ParseWarmMode(detailed) wrong")
	}
}

func TestCustomProgram(t *testing.T) {
	wl, _ := ltp.WorkloadByName("stream")
	r, err := ltp.RunContext(context.Background(), ltp.RunSpec{
		Program:   wl.Build(0.05),
		WarmInsts: 5_000, MaxInsts: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < 20_000 {
		t.Errorf("committed %d", r.Committed)
	}
}

// mustRun runs spec to completion, failing the test on error.
func mustRun(tb testing.TB, spec ltp.RunSpec) ltp.RunResult {
	tb.Helper()
	r, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestBadConfigErrors feeds every tier configurations the machine's
// constructors refuse — structure sizes, cache set counts, DRAM
// geometry, UIT and criticality-table sizes — through both RunContext
// and Engine.RunCached. Each must come back as an error, never a
// panic, and never as an estimate of a machine that cannot be built.
func TestBadConfigErrors(t *testing.T) {
	pipe := func(mut func(*pipeline.Config)) func(*ltp.RunSpec) {
		return func(s *ltp.RunSpec) {
			c := pipeline.DefaultConfig()
			mut(&c)
			s.Pipeline = &c
		}
	}
	ltpCfg := func(mut func(*core.Config)) func(*ltp.RunSpec) {
		return func(s *ltp.RunSpec) {
			c := core.DefaultConfig()
			mut(&c)
			s.UseLTP, s.LTP = true, &c
		}
	}
	// The squeezed core's IQ wedges under Non-Urgent parking without an
	// IQ entry reserved for unparking; NR parking alone does not need it.
	noIQReserve := func(m core.Mode) func(*ltp.RunSpec) {
		return func(s *ltp.RunSpec) {
			pipe(func(c *pipeline.Config) { c.ParkReserveIQ = 0 })(s)
			ltpCfg(func(c *core.Config) { c.Mode = m })(s)
		}
	}
	bad := []struct {
		name string
		mut  func(*ltp.RunSpec)
	}{
		{"IQ 0", pipe(func(c *pipeline.Config) { c.IQSize = 0 })},
		{"4 int regs", pipe(func(c *pipeline.Config) { c.IntRegs = 4 })},
		{"3 kB L2", pipe(func(c *pipeline.Config) { c.Hier.L2Size = 3 << 10 })},
		{"0-way L1D", pipe(func(c *pipeline.Config) { c.Hier.L1DWays = 0 })},
		{"3 DRAM banks", pipe(func(c *pipeline.Config) {
			d := mem.DefaultDRAMConfig()
			d.Banks = 3
			c.Hier.DRAM = &d
		})},
		{"1000 B DRAM rows", pipe(func(c *pipeline.Config) {
			d := mem.DefaultDRAMConfig()
			d.RowBytes = 1000
			c.Hier.DRAM = &d
		})},
		{"UIT 12", ltpCfg(func(c *core.Config) { c.UITEntries = 12 })},
		{"crit table 100", ltpCfg(func(c *core.Config) { c.Ident, c.CritEntries = core.IdentCrit, 100 })},
		{"NU with no IQ reserve", noIQReserve(core.ModeNU)},
		{"NR+NU with no IQ reserve", noIQReserve(core.ModeNRNU)},
	}
	eng, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	noPanic := func(what string, run func() error) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s panicked: %v", what, p)
			}
		}()
		if err := run(); err == nil {
			t.Errorf("%s returned no error", what)
		}
	}
	for _, backend := range []string{ltp.BackendCycle, ltp.BackendSampled, ltp.BackendModel} {
		for _, b := range bad {
			spec := ltp.RunSpec{Workload: "compute", Scale: 0.05, WarmInsts: 1_000, MaxInsts: 2_000, Backend: backend}
			b.mut(&spec)
			noPanic(backend+"/"+b.name+" RunContext", func() error {
				_, err := ltp.RunContext(ctx, spec)
				return err
			})
			noPanic(backend+"/"+b.name+" RunCached", func() error {
				_, _, _, err := eng.RunCached(ctx, spec)
				return err
			})
		}
		spec := ltp.RunSpec{Workload: "compute", Scale: 0.05, WarmInsts: 1_000, MaxInsts: 2_000, Backend: backend}
		noIQReserve(core.ModeNR)(&spec)
		if _, err := ltp.RunContext(ctx, spec); err != nil {
			t.Errorf("%s/NR with no IQ reserve: %v; NR parking alone must still run", backend, err)
		}
	}

	// The model has no timing for co-runner traffic: a model run with a
	// co-runner, and a triage sweep (whose pre-pass runs every cell on
	// the model) with a co-runner cell, are refused, not estimated.
	contended := ltp.RunSpec{Workload: "compute", Scale: 0.05, WarmInsts: 1_000, MaxInsts: 2_000,
		Backend: ltp.BackendModel, Corunners: []ltp.Corunner{{Scenario: "memhog"}}}
	refused := func(what string, run func() error) {
		t.Helper()
		noPanic(what, func() error {
			err := run()
			if err != nil && !strings.Contains(err.Error(), "co-runner") {
				t.Errorf("%s: err = %v; want the co-runner refusal", what, err)
			}
			return err
		})
	}
	refused("model/co-runner RunContext", func() error {
		_, err := ltp.RunContext(ctx, contended)
		return err
	})
	refused("model/co-runner RunCached", func() error {
		_, _, _, err := eng.RunCached(ctx, contended)
		return err
	})
	iqs := []int{32, 64}
	triage := ltp.SweepSpec{Base: contended, Triage: &ltp.TriageSpec{TopK: 1}, Axes: []ltp.SweepAxis{{Name: "iq", Points: []ltp.SweepPoint{
		{Name: "iq32", Patch: ltp.RunPatch{IQSize: &iqs[0]}}, {Name: "iq64", Patch: ltp.RunPatch{IQSize: &iqs[1]}}}}}}
	triage.Base.Backend = ltp.BackendCycle
	refused("triage/co-runner sweep", func() error {
		_, err := eng.Submit(ctx, triage)
		return err
	})
	triage.Base.Corunners = nil
	if _, err := triage.Canonical(); err != nil {
		t.Errorf("solo triage sweep: %v; only the co-runner cell may be refused", err)
	}
}
