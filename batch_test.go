package ltp_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ltp"
	"ltp/internal/cache"
	"ltp/internal/core"
	"ltp/internal/pipeline"
)

// batchCase is a sweep whose cells the engine coalesces into batched
// evaluations, plus the same cells spelled as standalone RunSpecs
// (row-major, last axis fastest — the sweep's enumeration order).
type batchCase struct {
	name    string
	sweep   ltp.SweepSpec
	singles []ltp.RunSpec
	// differ lists pairs of singles whose results must differ, so the
	// case can tell apart the warm state their lanes start from.
	differ [][2]int
}

// modelBatchCase is a model-backend sweep whose cells all share one
// functional stream (same scenario/seed/budgets), so the engine
// coalesces them into a single batched evaluation: an IQ-size axis
// crossed with the parking unit on/off.
func modelBatchCase() batchCase {
	base := ltp.RunSpec{
		Scenario:  "hashjoin",
		Backend:   ltp.BackendModel,
		Scale:     0.05,
		WarmInsts: 8_000,
		MaxInsts:  20_000,
	}
	iqs := []int{24, 32, 48, 64}
	onOff := []bool{false, true}

	var iqPts []ltp.SweepPoint
	for i := range iqs {
		iq := iqs[i]
		iqPts = append(iqPts, ltp.SweepPoint{
			Name:  fmt.Sprintf("IQ%d", iq),
			Patch: ltp.RunPatch{IQSize: &iq},
		})
	}
	var ltpPts []ltp.SweepPoint
	for i := range onOff {
		on := onOff[i]
		name := "base"
		if on {
			name = "ltp"
		}
		ltpPts = append(ltpPts, ltp.SweepPoint{
			Name:  name,
			Patch: ltp.RunPatch{UseLTP: &on},
		})
	}
	sweep := ltp.SweepSpec{
		Base: base,
		Axes: []ltp.SweepAxis{
			{Name: "iq", Points: iqPts},
			{Name: "park", Points: ltpPts},
		},
	}

	var singles []ltp.RunSpec
	for _, iq := range iqs {
		for _, on := range onOff {
			s := base
			cfg := pipeline.DefaultConfig()
			cfg.IQSize = iq
			s.Pipeline = &cfg
			s.UseLTP = on
			singles = append(singles, s)
		}
	}
	return batchCase{name: "model", sweep: sweep, singles: singles}
}

// warmBatchCase is a cycle- or sampled-backend (K=4) sweep on one
// scenario's stream whose lanes exercise every part of the shared warm
// checkpoint: LTP off and on with two UIT geometries (two LTP
// observers warming in one pass), gshare and TAGE (two warm groups
// driven by one stream), a non-default prefetcher, and a co-runner set.
// Singles are ordered park point by park point, gshare then TAGE.
func warmBatchCase(backend, scenario string) batchCase {
	base := ltp.RunSpec{
		Scenario:   scenario,
		Seed:       5,
		Backend:    backend,
		Intervals:  4,
		Scale:      0.05,
		WarmInsts:  8_000,
		MaxInsts:   20_000,
		Prefetcher: "stream",
		Corunners:  []ltp.Corunner{{Scenario: "memhog"}},
	}
	smallUIT := core.DefaultConfig()
	smallUIT.UITEntries = 64
	parks := []struct {
		name string
		on   bool
		cfg  *core.Config
	}{{"base", false, nil}, {"uit256", true, nil}, {"uit64", true, &smallUIT}}
	bps := []string{"gshare", "tage"}

	var parkPts, bpPts []ltp.SweepPoint
	for i := range parks {
		p := parks[i]
		parkPts = append(parkPts, ltp.SweepPoint{Name: p.name, Patch: ltp.RunPatch{UseLTP: &p.on, LTP: p.cfg}})
	}
	for i := range bps {
		bp := bps[i]
		bpPts = append(bpPts, ltp.SweepPoint{Name: bp, Patch: ltp.RunPatch{BranchPred: &bp}})
	}
	sweep := ltp.SweepSpec{
		Base: base,
		Axes: []ltp.SweepAxis{{Name: "park", Points: parkPts}, {Name: "bpred", Points: bpPts}},
	}

	var singles []ltp.RunSpec
	for _, p := range parks {
		for _, bp := range bps {
			s := base
			s.UseLTP, s.LTP, s.BranchPred = p.on, p.cfg, bp
			singles = append(singles, s)
		}
	}
	return batchCase{name: backend, sweep: sweep, singles: singles}
}

// branchyWarmCase is warmBatchCase on the branchy family, where each
// gshare single differs from its TAGE twin: a batch that hands one warm
// group's checkpoint to the other group's lanes cannot match them.
// (On ptrchase, which is branch-light, the two predictors agree.)
func branchyWarmCase(backend string) batchCase {
	bc := warmBatchCase(backend, "branchy")
	bc.name += "-branchy"
	if backend == ltp.BackendModel { // the model refuses co-runners
		bc.sweep.Base.Corunners = nil
		for i := range bc.singles {
			bc.singles[i].Corunners = nil
		}
	}
	for i := 0; i < len(bc.singles); i += 2 {
		bc.differ = append(bc.differ, [2]int{i, i + 1})
	}
	return bc
}

// sampledGeometryCase is a sampled-backend sweep whose lanes differ in
// interval count (K 2, 4, 8) and ROB size (64, 256), so one measured
// pass serves lanes whose interval starts partly coincide (every K
// starts at 0 and half-way) and partly differ (K=8's odd eighths), and
// whose replayed spans — ramp and slack scale with the ROB — run past
// the next interval's start.
func sampledGeometryCase() batchCase {
	base := ltp.RunSpec{
		Scenario:  "hashjoin",
		Seed:      3,
		Backend:   ltp.BackendSampled,
		Scale:     0.05,
		WarmInsts: 4_000,
		MaxInsts:  6_000,
	}
	ks := []int{2, 4, 8}
	robs := []int{64, 256}

	var kPts, robPts []ltp.SweepPoint
	for i := range ks {
		kPts = append(kPts, ltp.SweepPoint{Name: fmt.Sprintf("K%d", ks[i]), Patch: ltp.RunPatch{Intervals: &ks[i]}})
	}
	for i := range robs {
		robPts = append(robPts, ltp.SweepPoint{Name: fmt.Sprintf("rob%d", robs[i]), Patch: ltp.RunPatch{ROBSize: &robs[i]}})
	}
	sweep := ltp.SweepSpec{
		Base: base,
		Axes: []ltp.SweepAxis{{Name: "k", Points: kPts}, {Name: "rob", Points: robPts}},
	}

	var singles []ltp.RunSpec
	for _, k := range ks {
		for _, rob := range robs {
			s := base
			cfg := pipeline.DefaultConfig()
			cfg.ROBSize = rob
			s.Intervals, s.Pipeline = k, &cfg
			singles = append(singles, s)
		}
	}
	return batchCase{name: "sampled-geometry", sweep: sweep, singles: singles}
}

// oracleBatchCase is a limit-study sweep (the paper's Fig. 6 core:
// unlimited MSHRs, late LQ/SQ allocation) with oracle classification:
// a kernel axis, then unlimited and sized IQ/RF/LQ-SQ cores, then the
// four parking configurations. The engine batches each kernel's
// lanes, which share one oracle pre-pass and one warm checkpoint.
func oracleBatchCase() batchCase {
	base := ltp.RunSpec{Scale: 0.05, WarmInsts: 2_000, MaxInsts: 3_000, Oracle: true}
	kernels := []string{"chains", "fpstream", "indirect"}
	limit := func(iq, rf, lq, sq int) pipeline.Config {
		cfg := pipeline.DefaultConfig()
		cfg.IQSize, cfg.IntRegs, cfg.FPRegs = iq, rf, rf
		cfg.LQSize, cfg.SQSize = lq, sq
		cfg.Hier.L1DMSHRs, cfg.Hier.L2MSHRs = 0, 0
		cfg.LateLSQAlloc = true
		return cfg
	}
	inf := pipeline.Inf
	cores := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"inf", limit(inf, inf, inf, inf)},
		{"iq32", limit(32, inf, inf, inf)},
		{"rf64", limit(inf, 64, inf, inf)},
		{"lsq16", limit(inf, inf, 16, 8)},
	}
	modes := []core.Mode{core.ModeOff, core.ModeNR, core.ModeNU, core.ModeNRNU}
	ltpCfg := func(m core.Mode) *core.Config {
		return &core.Config{Mode: m, Tickets: 128, UITWays: 4}
	}

	var kPts, cPts, mPts []ltp.SweepPoint
	for i := range kernels {
		kPts = append(kPts, ltp.SweepPoint{Name: kernels[i], Patch: ltp.RunPatch{Workload: &kernels[i]}})
	}
	for i := range cores {
		cPts = append(cPts, ltp.SweepPoint{Name: cores[i].name, Patch: ltp.RunPatch{Pipeline: &cores[i].cfg}})
	}
	for _, m := range modes {
		on := m != core.ModeOff
		p := ltp.RunPatch{UseLTP: &on}
		if on {
			p.LTP = ltpCfg(m)
		}
		mPts = append(mPts, ltp.SweepPoint{Name: m.String(), Patch: p})
	}
	sweep := ltp.SweepSpec{
		Base: base,
		Axes: []ltp.SweepAxis{{Name: "kernel", Points: kPts}, {Name: "core", Points: cPts}, {Name: "mode", Points: mPts}},
	}

	var singles []ltp.RunSpec
	for _, k := range kernels {
		for _, c := range cores {
			for _, m := range modes {
				s := base
				cfg := c.cfg
				s.Workload, s.Pipeline = k, &cfg
				if m != core.ModeOff {
					s.UseLTP, s.LTP = true, ltpCfg(m)
				}
				singles = append(singles, s)
			}
		}
	}
	return batchCase{name: "oracle", sweep: sweep, singles: singles}
}

// collectCells drains a finished job's cell stream keyed by content
// address.
func collectCells(t *testing.T, job *ltp.Job) map[string]ltp.CellResult {
	t.Helper()
	cells := make(map[string]ltp.CellResult)
	for c := range job.Cells() {
		if c.Err != nil {
			t.Fatalf("cell %v failed: %v", c.Coords, c.Err)
		}
		cells[c.Hash] = c
	}
	return cells
}

// TestBatchMatchesSingle is the batching differential fence: a sweep
// executed through the engine's batched path — the model backend's
// shared stream, the cycle and sampled backends' shared warm
// checkpoints, the limit study's shared oracle pre-passes — must produce, per cell, results byte-identical to
// standalone RunContext calls, under the same content addresses, with
// cache entries interchangeable in both directions (batch-populated
// cache serves single runs as hits, single-populated cache serves the
// batch as hits).
func TestBatchMatchesSingle(t *testing.T) {
	for _, bc := range []batchCase{
		modelBatchCase(),
		warmBatchCase(ltp.BackendCycle, "ptrchase"),
		warmBatchCase(ltp.BackendSampled, "ptrchase"),
		branchyWarmCase(ltp.BackendCycle),
		branchyWarmCase(ltp.BackendSampled),
		branchyWarmCase(ltp.BackendModel),
		sampledGeometryCase(),
		oracleBatchCase(),
	} {
		t.Run(bc.name, func(t *testing.T) { checkBatchMatchesSingle(t, bc) })
	}
}

// resultJSON is a result's serialized bytes, the form the cache, the
// store and the service hand out.
func resultJSON(t *testing.T, r ltp.RunResult) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkBatchMatchesSingle(t *testing.T, bc batchCase) {
	sweep, singles := bc.sweep, bc.singles
	ctx := context.Background()

	// Reference: every cell standalone, no engine, no cache.
	refs := make([]string, len(singles))
	hashes := make([]string, len(singles))
	for i, s := range singles {
		res, err := ltp.RunContext(ctx, s)
		if err != nil {
			t.Fatalf("single run %d: %v", i, err)
		}
		refs[i] = resultJSON(t, res)
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	for _, d := range bc.differ {
		if refs[d[0]] == refs[d[1]] {
			t.Fatalf("singles %d and %d give the same result: the case cannot tell their warm state apart", d[0], d[1])
		}
	}

	// Batched: the sweep through a fresh engine.
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()
	job, err := e.Submit(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	cells := collectCells(t, job)
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(singles) {
		t.Fatalf("sweep resolved %d distinct cells; want %d", len(cells), len(singles))
	}
	for i := range singles {
		c, ok := cells[hashes[i]]
		if !ok {
			t.Fatalf("sweep produced no cell for single spec %d (hash %s): the batch and single paths disagree on content addresses", i, hashes[i])
		}
		if got := resultJSON(t, c.Result); got != refs[i] {
			t.Fatalf("cell %d (%v) diverged from its standalone run:\nbatch:  %s\nsingle: %s",
				i, c.Coords, got, refs[i])
		}
	}

	// Batch-populated cache must serve single submissions as hits.
	for i, s := range singles {
		res, out, h, err := e.RunCached(ctx, s)
		if err != nil {
			t.Fatalf("RunCached %d: %v", i, err)
		}
		if out != cache.Hit {
			t.Fatalf("RunCached %d outcome = %v; want hit from the batch-populated cache", i, out)
		}
		if h != hashes[i] {
			t.Fatalf("RunCached %d hash = %s; want %s", i, h, hashes[i])
		}
		if resultJSON(t, res) != refs[i] {
			t.Fatalf("RunCached %d served a different result than the standalone run", i)
		}
	}

	// And the reverse: a cache populated by single runs serves the
	// whole batch as hits.
	e2 := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e2.Close()
	for i, s := range singles {
		if _, _, _, err := e2.RunCached(ctx, s); err != nil {
			t.Fatalf("priming RunCached %d: %v", i, err)
		}
	}
	job2, err := e2.Submit(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	cells2 := collectCells(t, job2)
	if _, err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range singles {
		c, ok := cells2[hashes[i]]
		if !ok {
			t.Fatalf("primed sweep missing cell for single spec %d", i)
		}
		if c.Outcome != "hit" {
			t.Fatalf("primed sweep cell %d outcome = %s; want hit", i, c.Outcome)
		}
		if resultJSON(t, c.Result) != refs[i] {
			t.Fatalf("primed sweep cell %d result diverged", i)
		}
	}
}

// TestBatchCancelDuringWarm cancels a batched cycle sweep while its
// shared warm pass is running: every lane must fail as cancelled
// promptly, nothing may reach the cache, and closing the engine must
// leave no goroutine behind.
func TestBatchCancelDuringWarm(t *testing.T) {
	before := runtime.NumGoroutine()
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})

	var iqPts []ltp.SweepPoint
	for _, iq := range []int{32, 48, 64, 80} {
		iq := iq
		iqPts = append(iqPts, ltp.SweepPoint{Name: fmt.Sprintf("IQ%d", iq), Patch: ltp.RunPatch{IQSize: &iq}})
	}
	// A warm region far longer than the test: only a cancel ends it.
	job, err := e.Submit(context.Background(), ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, WarmInsts: 2_000_000_000, MaxInsts: 10_000},
		Axes: []ltp.SweepAxis{{Name: "iq", Points: iqPts}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.RunningRuns() == 0 {
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond) // past the program build, into the warm pass
	canceledAt := time.Now()
	job.Cancel()
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch never finished")
	}
	// The warm pass checks its context every warmCancelChunk µops
	// (well under a millisecond); the bound leaves room for -race.
	if settle := time.Since(canceledAt); settle > 500*time.Millisecond {
		t.Fatalf("cancel took %v to settle", settle)
	}
	if _, err := job.Wait(); !errors.Is(err, ltp.ErrJobCanceled) {
		t.Fatalf("Wait err = %v; want ErrJobCanceled", err)
	}
	if p := job.Progress(); p.CanceledRuns != len(iqPts) || p.DoneRuns != 0 {
		t.Fatalf("progress = %+v; want all %d lanes cancelled", p, len(iqPts))
	}
	// Close waits for the batch task; a cancelled lane stores nothing.
	e.Close()
	if st := e.CacheStats(); st.Len != 0 {
		t.Fatalf("cache after cancel = %+v; want nothing cached", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
