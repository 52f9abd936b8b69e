package ltp_test

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"ltp"
	"ltp/internal/cache"
	"ltp/internal/pipeline"
	"ltp/internal/sched"
)

// TestSampledK1MatchesCycle pins the sampled tier's degeneration
// contract: with K=1 the single "interval" is the whole measured
// region, warmed and restored through the checkpoint machinery, and
// the result must equal a plain fast-warm cycle run bit for bit — any
// drift means the warm-state snapshot/restore or the trace replay is
// not faithful, which would silently bias every K>1 estimate too.
func TestSampledK1MatchesCycle(t *testing.T) {
	for _, base := range []ltp.RunSpec{
		{Workload: "indirect", Scale: 0.05, MaxInsts: 30_000},
		{Workload: "hashprobe", Scale: 0.05, WarmInsts: 10_000, MaxInsts: 30_000, UseLTP: true},
		{Scenario: "ptrchase", Seed: 5, Scale: 0.05, WarmInsts: 8_000, MaxInsts: 25_000},
	} {
		cspec := base
		cspec.Backend = ltp.BackendCycle
		cres, err := ltp.RunContext(context.Background(), cspec)
		if err != nil {
			t.Fatalf("%+v cycle: %v", base, err)
		}
		sspec := base
		sspec.Backend = ltp.BackendSampled
		sspec.Intervals = 1
		sres, err := ltp.RunContext(context.Background(), sspec)
		if err != nil {
			t.Fatalf("%+v sampled: %v", base, err)
		}
		if sres.Result != cres.Result {
			t.Errorf("%s%s: K=1 sampled Result diverges from cycle:\ncycle   %+v\nsampled %+v",
				base.Workload, base.Scenario, cres.Result, sres.Result)
		}
		if (sres.LTP == nil) != (cres.LTP == nil) {
			t.Fatalf("%s%s: LTP presence diverges", base.Workload, base.Scenario)
		}
		if sres.LTP != nil && *sres.LTP != *cres.LTP {
			t.Errorf("%s%s: K=1 sampled LTP stats diverge:\ncycle   %+v\nsampled %+v",
				base.Workload, base.Scenario, *cres.LTP, *sres.LTP)
		}
		if sres.Energy != cres.Energy {
			t.Errorf("%s%s: K=1 sampled energy diverges", base.Workload, base.Scenario)
		}
		if sres.Sampling == nil || sres.Sampling.Intervals != 1 {
			t.Errorf("%s%s: K=1 sampled run missing its Sampling annotation: %+v",
				base.Workload, base.Scenario, sres.Sampling)
		}
		if cres.Sampling != nil {
			t.Errorf("cycle run carries a Sampling annotation: %+v", cres.Sampling)
		}
	}
}

// TestSampledEstimateTracksCycle is the tentpole's accuracy
// differential: a K-interval sampled run's CPI estimate must cover the
// cycle backend's measured CPI within its own reported 95% confidence
// interval (plus a small epsilon for near-degenerate CIs on uniform
// kernels), and the run must report how much it actually simulated.
func TestSampledEstimateTracksCycle(t *testing.T) {
	for _, tc := range []struct {
		spec ltp.RunSpec
		k    int
	}{
		{ltp.RunSpec{Workload: "indirect", Scale: 0.1, WarmInsts: 10_000, MaxInsts: 200_000}, 8},
		{ltp.RunSpec{Workload: "mixphase", Scale: 0.1, WarmInsts: 10_000, MaxInsts: 200_000, UseLTP: true}, 8},
		{ltp.RunSpec{Scenario: "hashjoin", Seed: 3, Scale: 0.1, WarmInsts: 10_000, MaxInsts: 200_000}, 16},
	} {
		cspec := tc.spec
		cspec.Backend = ltp.BackendCycle
		cres, err := ltp.RunContext(context.Background(), cspec)
		if err != nil {
			t.Fatal(err)
		}
		sspec := tc.spec
		sspec.Backend = ltp.BackendSampled
		sspec.Intervals = tc.k
		sres, err := ltp.RunContext(context.Background(), sspec)
		if err != nil {
			t.Fatal(err)
		}
		sm := sres.Sampling
		if sm == nil || sm.Intervals != tc.k {
			t.Fatalf("%s%s: Sampling = %+v; want %d intervals", tc.spec.Workload, tc.spec.Scenario, sm, tc.k)
		}
		if sm.SampledInsts == 0 || sm.SampledInsts >= tc.spec.MaxInsts {
			t.Errorf("%s%s: sampled %d of %d instructions; want a strict fraction",
				tc.spec.Workload, tc.spec.Scenario, sm.SampledInsts, tc.spec.MaxInsts)
		}
		// The CI is the estimate's own error bar; epsilon covers
		// kernels so uniform the per-interval variance collapses.
		eps := 0.03 * cres.CPI
		if diff := math.Abs(sres.CPI - cres.CPI); diff > sm.CPI.CI95+eps {
			t.Errorf("%s%s: sampled CPI %.4f vs cycle %.4f: |diff| %.4f outside CI95 %.4f + eps %.4f",
				tc.spec.Workload, tc.spec.Scenario, sres.CPI, cres.CPI, diff, sm.CPI.CI95, eps)
		}
		t.Logf("%s%s K=%d: cycle CPI %.4f, sampled %.4f ± %.4f (sampled %d/%d insts)",
			tc.spec.Workload, tc.spec.Scenario, tc.k, cres.CPI, sres.CPI, sm.CPI.CI95, sm.SampledInsts, tc.spec.MaxInsts)
	}
}

// TestSampledSpeedup is the tentpole's wall-clock acceptance: on a
// large kernel the sampled tier must beat the cycle backend by at
// least 5x. The margin is generous at K=32 (the detailed coverage is
// 1/32 plus per-interval ramps, and functional warming is an order of
// magnitude cheaper than cycle simulation), so the bound holds on
// loaded CI machines; -short skips it.
func TestSampledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential; skipped in -short")
	}
	spec := ltp.RunSpec{Workload: "hashprobe", Scale: 0.5, WarmInsts: 50_000, MaxInsts: 2_000_000, UseLTP: true}

	spec.Backend = ltp.BackendCycle
	t0 := time.Now()
	cres, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cycleWall := time.Since(t0)

	spec.Backend = ltp.BackendSampled
	spec.Intervals = 32
	t0 = time.Now()
	sres, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sampledWall := time.Since(t0)

	speedup := cycleWall.Seconds() / sampledWall.Seconds()
	t.Logf("cycle %.2fs, sampled %.2fs: %.1fx (cycle CPI %.4f, sampled %.4f ± %.4f)",
		cycleWall.Seconds(), sampledWall.Seconds(), speedup, cres.CPI, sres.CPI, sres.Sampling.CPI.CI95)
	if speedup < 5 {
		t.Errorf("sampled speedup %.1fx below the 5x acceptance bound", speedup)
	}
	eps := 0.03 * cres.CPI
	if diff := math.Abs(sres.CPI - cres.CPI); diff > sres.Sampling.CPI.CI95+eps {
		t.Errorf("sampled CPI %.4f vs cycle %.4f outside CI95 %.4f + eps %.4f",
			sres.CPI, cres.CPI, sres.Sampling.CPI.CI95, eps)
	}
}

// TestSampledHashing pins the cache-keying rules the sampled tier
// adds: Intervals is part of a sampled cell's identity (different K =
// different cell), irrelevant to every other backend's (a cycle cell's
// hash must not depend on a leftover Intervals field), and the sampled
// tier never collides with cycle or model.
func TestSampledHashing(t *testing.T) {
	spec := ltp.RunSpec{Workload: "indirect", MaxInsts: 10_000}
	hash := func(backend string, k int) string {
		s := spec
		s.Backend = backend
		s.Intervals = k
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("hash(%s, K=%d): %v", backend, k, err)
		}
		return h
	}
	if hash(ltp.BackendCycle, 0) != hash(ltp.BackendCycle, 8) {
		t.Error("cycle cell hash depends on Intervals")
	}
	if hash(ltp.BackendModel, 0) != hash(ltp.BackendModel, 8) {
		t.Error("model cell hash depends on Intervals")
	}
	if hash(ltp.BackendSampled, 4) == hash(ltp.BackendSampled, 8) {
		t.Error("sampled cells with different K hash identically")
	}
	// Unset and explicit-default K are the same sampled cell.
	if hash(ltp.BackendSampled, 0) != hash(ltp.BackendSampled, ltp.DefaultSampledIntervals) {
		t.Error("default-K sampled cell hashes differently from explicit default")
	}
	for _, other := range []string{ltp.BackendCycle, ltp.BackendModel} {
		if hash(ltp.BackendSampled, 8) == hash(other, 0) {
			t.Errorf("sampled cell hash collides with %s", other)
		}
	}
}

// TestSampledCanceledWaiterKeepsEntry mirrors the engine single-flight
// test for the sampled backend: its interval fan-out runs through the
// engine pool (work helping), and a cancelled waiter must neither
// poison the cache entry nor strand the surviving waiter.
func TestSampledCanceledWaiterKeepsEntry(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()

	spec := ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 400_000, Backend: ltp.BackendSampled, Intervals: 4}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := e.RunCached(ctx, spec)
		errCh <- err
	}()
	resCh := make(chan error, 1)
	go func() {
		_, _, _, err := e.RunCached(context.Background(), spec)
		resCh <- err
	}()
	// Cancel as soon as the second caller has joined the flight, so the
	// cancel lands mid-run however fast the host simulates.
	for e.CacheStats().Shared == 0 {
		select {
		case err := <-errCh:
			t.Fatalf("the run finished (err %v) before the second caller joined its flight", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller err = %v; want context.Canceled", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("surviving caller err = %v; want success", err)
	}
	if res, out, _, err := e.RunCached(context.Background(), spec); err != nil || out != cache.Hit {
		t.Fatalf("post-cancel resubmit = %v, %v; want hit", out, err)
	} else if res.Sampling == nil {
		t.Fatal("cached sampled result lost its Sampling annotation")
	}

	// A fully cancelled flight must store nothing: resubmitting a
	// different sampled cell after cancelling its only waiter must
	// simulate (miss), not hit a poisoned entry.
	spec2 := spec
	spec2.Intervals = 8
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		_, _, _, err := e.RunCached(ctx2, spec2)
		errCh <- err
	}()
	// Cancel as soon as the run has started.
	for e.RunningRuns() == 0 {
		select {
		case err := <-errCh:
			t.Fatalf("the run finished (err %v) before it was seen running", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	cancel2()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solo caller err = %v", err)
	}
	if _, out, _, err := e.RunCached(context.Background(), spec2); err != nil || out == cache.Hit {
		t.Fatalf("resubmit after full cancellation = %v, %v; want a fresh miss", out, err)
	}
}

// TestSampledValidation: the sampled tier refuses cycle-only features
// (trace capture, oracles, detailed warm-up) loudly at Canonical time.
func TestSampledValidation(t *testing.T) {
	base := ltp.RunSpec{Workload: "indirect", MaxInsts: 10_000, Backend: ltp.BackendSampled}

	rec := base
	rec.RecordTo = io.Discard
	if _, err := rec.Canonical(); err == nil {
		t.Error("sampled run with RecordTo canonicalized")
	}
	orc := base
	orc.UseLTP, orc.Oracle = true, true
	if _, err := orc.Canonical(); err == nil {
		t.Error("sampled run with an oracle canonicalized")
	}
	det := base
	det.WarmInsts = 1_000
	det.WarmMode = ltp.WarmDetailed
	canon, err := det.Canonical()
	if err != nil {
		t.Fatalf("sampled spec with detailed warm mode: %v", err)
	}
	if canon.WarmMode != ltp.WarmFast {
		t.Errorf("sampled canonical warm mode = %v; want forced fast", canon.WarmMode)
	}
	if canon.Intervals != ltp.DefaultSampledIntervals {
		t.Errorf("sampled canonical Intervals = %d; want default %d", canon.Intervals, ltp.DefaultSampledIntervals)
	}

	cyc := base
	cyc.Backend = ltp.BackendCycle
	cyc.Intervals = 8
	canon, err = cyc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Intervals != 0 {
		t.Errorf("cycle canonical keeps Intervals = %d; want 0", canon.Intervals)
	}
}

// TestSampledSweepAxis drives the sampled tier through the sweep
// surface as a fidelity-axis point next to cycle and model, and pins
// the replicate-pooling exclusion (a replicate axis may not patch the
// backend to sampled any more than to model).
func TestSampledSweepAxis(t *testing.T) {
	// Samples must be long enough to amortize the per-interval
	// pipeline-fill transient (a fresh pipeline ramps for ~ROB-size
	// instructions), and a warm budget keeps interval 0 from measuring
	// the cold-start spike as if it were representative — the cell is
	// sized the way the tier is meant to be used.
	intervals := 4
	sweep := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "gemmblock", Scale: 0.05, WarmInsts: 10_000, MaxInsts: 100_000},
		Axes: []ltp.SweepAxis{{
			Name: "fidelity",
			Points: []ltp.SweepPoint{
				{Name: "cycle", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendCycle)}},
				{Name: "sampled", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendSampled), Intervals: &intervals}},
				{Name: "model", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendModel)}},
			},
		}},
	}
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("sweep produced %d cells; want 3", len(res.Cells))
	}
	byName := map[string]ltp.SweepCell{}
	for _, c := range res.Cells {
		byName[c.Coords[0]] = c
	}
	for name, backend := range map[string]string{"cycle": "cycle", "sampled": "sampled", "model": "model"} {
		if got := byName[name].Backend; got != backend {
			t.Errorf("cell %q tagged backend %q; want %q", name, got, backend)
		}
	}
	cycleCPI, sampledCPI := byName["cycle"].CPI.Mean, byName["sampled"].CPI.Mean
	if math.Abs(sampledCPI-cycleCPI)/cycleCPI > 0.10 {
		t.Errorf("sampled sweep cell CPI %.4f vs cycle %.4f drifts more than 10%%", sampledCPI, cycleCPI)
	}

	bad := sweep
	bad.Axes = append([]ltp.SweepAxis{}, sweep.Axes...)
	bad.Axes[0] = ltp.SweepAxis{
		Name:      "reps",
		Replicate: true,
		Points: []ltp.SweepPoint{
			{Name: "a", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendSampled)}},
			{Name: "b", Patch: ltp.RunPatch{}},
		},
	}
	if _, err := bad.Canonical(); err == nil {
		t.Error("replicate axis patching the backend to sampled was admitted")
	}

	k := 4
	bad.Axes[0] = ltp.SweepAxis{
		Name:      "reps",
		Replicate: true,
		Points: []ltp.SweepPoint{
			{Name: "a", Patch: ltp.RunPatch{Intervals: &k}},
			{Name: "b", Patch: ltp.RunPatch{}},
		},
	}
	if _, err := bad.Canonical(); err == nil {
		t.Error("replicate axis patching intervals was admitted")
	}
}

// TestSampledTriageDetail: a triage sweep whose cells select the
// sampled backend runs its detailed phase at the sampled tier.
func TestSampledTriageDetail(t *testing.T) {
	sweep := triageSweep(1)
	sweep.Base.Backend = ltp.BackendSampled
	sweep.Base.Intervals = 2
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Triage == nil || len(res.Triage.Detailed) != 1 {
		t.Fatalf("triage result = %+v; want one detailed cell", res.Triage)
	}
	if got := res.Triage.Detailed[0].Backend; got != ltp.BackendSampled {
		t.Errorf("detailed cell backend = %q; want sampled", got)
	}
}

// FuzzBatchMatchesSingle draws a program seed, a tier and scenario
// family, and 2–4 lanes on one stream, one byte each. The high two bits
// of family pick the tier (0 sampled, 1 cycle, 2 model) and the rest the
// family; in a lane byte, K = 1 + the low four bits (sampled only),
// bits 4–5 pick the ROB size, bit 6 parks with LTP and bit 7 predicts
// with TAGE instead of gshare. The lanes run as one engine batch — one
// warm pass, then the tier's lanes or measured-region pass — and each
// must come back byte-identical to the same spec run alone, errors
// included.
func FuzzBatchMatchesSingle(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x01, 0x13, 0x67})
	f.Add(int64(2), uint8(3), []byte{0x0f, 0xb7, 0x40, 0xf0})
	f.Add(int64(3), uint8(5), []byte{0x00, 0x00})
	f.Add(int64(2), uint8(0), []byte{0x31, 0xb7})    // gshare and TAGE lanes: two warm groups
	f.Add(int64(2), uint8(0x40), []byte{0x31, 0xb7}) // the same on the cycle tier
	f.Add(int64(2), uint8(0x80), []byte{0x31, 0xb7}) // and on the model tier
	fams := ltp.Scenarios()
	tiers := []string{ltp.BackendSampled, ltp.BackendCycle, ltp.BackendModel}
	robs := []int{64, 128, 192, 256}
	f.Fuzz(func(t *testing.T, seed int64, family uint8, lanes []byte) {
		if len(lanes) < 2 {
			return
		}
		lanes = lanes[:min(len(lanes), 4)]
		specs := make([]ltp.RunSpec, len(lanes))
		for i, b := range lanes {
			cfg := pipeline.DefaultConfig()
			cfg.ROBSize = robs[b>>4&3]
			if b&0x80 != 0 {
				cfg.BranchPred = "tage"
			}
			specs[i] = ltp.RunSpec{
				Scenario:  fams[int(family&0x3f)%len(fams)].Name,
				Seed:      seed,
				Backend:   tiers[int(family>>6)%len(tiers)],
				Scale:     0.05,
				WarmInsts: 2_000,
				MaxInsts:  3_000,
				Intervals: 1 + int(b&15),
				Pipeline:  &cfg,
				UseLTP:    b&0x40 != 0,
			}
		}
		ctx := context.Background()
		e, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		got, _, _, errs := e.RunBatchCached(ctx, sched.TierInteractive, specs)
		for i, s := range specs {
			want, werr := ltp.RunContext(ctx, s)
			switch {
			case (werr == nil) != (errs[i] == nil):
				t.Fatalf("lane %d (K %d, ROB %d): batch err %v, alone err %v", i, s.Intervals, s.Pipeline.ROBSize, errs[i], werr)
			case werr != nil:
				if werr.Error() != errs[i].Error() {
					t.Fatalf("lane %d: batch err %q, alone err %q", i, errs[i], werr)
				}
			default:
				if b, w := resultJSON(t, got[i]), resultJSON(t, want); b != w {
					t.Fatalf("lane %d (K %d, ROB %d) diverged from its run alone:\nbatch: %s\nalone: %s", i, s.Intervals, s.Pipeline.ROBSize, b, w)
				}
			}
		}
	})
}
