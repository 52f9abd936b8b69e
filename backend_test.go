package ltp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"ltp"
	"ltp/internal/cache"
	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/workload"
)

// backendMatrixConfigs is the default IQ64/IQ32/IQ32+LTP comparison at
// test scale.
func backendMatrixConfigs() []ltp.MatrixConfig {
	return ltp.DefaultMatrixConfigs()
}

// TestModelTracksCycleBackend is the model backend's acceptance
// differential: on every registry kernel, the model must rank the
// default IQ64/IQ32/IQ32+LTP matrix in the same relative CPI order as
// the cycle-accurate backend (pairs within 2% are ties and may land
// either way), and the mean absolute CPI error across the whole grid
// must stay under 15%.
func TestModelTracksCycleBackend(t *testing.T) {
	kernels := ltp.Workloads()
	configs := backendMatrixConfigs()

	// The full grid is 42 cycle-accurate runs; under -short -race the
	// budgets shrink (the ranking is stable well below them — the
	// calibration was fitted at the full-budget grid).
	scale, warm, insts := 0.1, uint64(20_000), uint64(60_000)
	tieTol := 0.02
	if testing.Short() {
		// Smaller budgets are noisier, so near-ties widen with them;
		// the strict 2% bound holds at the calibration budget above.
		scale, warm, insts = 0.05, 8_000, 25_000
		tieTol = 0.05
	}

	type cellKey struct{ k, c int }
	cpis := map[string]map[cellKey]float64{"cycle": {}, "model": {}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	errCh := make(chan error, len(kernels)*len(configs))
	for ki := range kernels {
		for ci := range configs {
			wg.Add(1)
			sem <- struct{}{}
			go func(ki, ci int) {
				defer wg.Done()
				defer func() { <-sem }()
				spec := ltp.RunSpec{
					Workload:  kernels[ki].Name,
					Scale:     scale,
					WarmInsts: warm,
					MaxInsts:  insts,
					Pipeline:  configs[ci].Pipeline,
					UseLTP:    configs[ci].UseLTP,
					LTP:       configs[ci].LTP,
				}
				for _, backend := range []string{ltp.BackendCycle, ltp.BackendModel} {
					spec.Backend = backend
					res, err := ltp.RunContext(context.Background(), spec)
					if err != nil {
						errCh <- fmt.Errorf("%s/%s on %s: %w", kernels[ki].Name, configs[ci].Name, backend, err)
						return
					}
					mu.Lock()
					cpis[backend][cellKey{ki, ci}] = res.CPI
					mu.Unlock()
				}
			}(ki, ci)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var errSum float64
	n := 0
	for ki, k := range kernels {
		for ci := range configs {
			c := cpis["cycle"][cellKey{ki, ci}]
			m := cpis["model"][cellKey{ki, ci}]
			errSum += math.Abs(m-c) / c
			n++
			t.Logf("%-12s %-9s cycle %.3f model %.3f (%+.1f%%)",
				k.Name, configs[ci].Name, c, m, 100*(m-c)/c)
		}
		// Pairwise rank agreement with a 2% tie tolerance.
		for a := 0; a < len(configs); a++ {
			for b := a + 1; b < len(configs); b++ {
				ca, cb := cpis["cycle"][cellKey{ki, a}], cpis["cycle"][cellKey{ki, b}]
				ma, mb := cpis["model"][cellKey{ki, a}], cpis["model"][cellKey{ki, b}]
				if math.Abs(ca-cb)/math.Max(ca, cb) < tieTol {
					continue // a measured tie may land either way
				}
				if (ca < cb) != (ma < mb) {
					t.Errorf("%s: model ranks %s vs %s backwards: cycle %.3f/%.3f, model %.3f/%.3f",
						k.Name, configs[a].Name, configs[b].Name, ca, cb, ma, mb)
				}
			}
		}
	}
	mean := errSum / float64(n)
	t.Logf("mean absolute CPI error across %d cells: %.1f%%", n, 100*mean)
	if mean > 0.15 {
		t.Fatalf("mean absolute CPI error %.1f%% exceeds the 15%% calibration bound", 100*mean)
	}
}

// TestModelTracksScenarioFamilies extends the model differential to
// the generated scenario families with per-family error tolerances
// instead of one blanket bound. hashjoin is the load-bearing row: the
// real mechanism's finite UIT misclassifies its hash-probe dependence
// chains, and the model — which trains the same bounded set-associative
// table with the same one-hop backward propagation — must track the
// cycle backend there too instead of estimating through a too-clean
// urgency oracle (the DESIGN.md §10 known miss).
func TestModelTracksScenarioFamilies(t *testing.T) {
	configs := backendMatrixConfigs()
	// Per-family mean-absolute-CPI-error bound across the config grid.
	// The families are noisier than the fixed registry kernels (hashed
	// layouts, data-dependent branches), so each carries its own
	// calibrated tolerance; a regression in any family trips its own
	// bound rather than hiding in a global mean.
	tol := map[string]float64{
		"ptrchase":  0.05,
		"gemmblock": 0.05,
		// hashjoin is the family whose urgency misclassification the
		// unbounded-map model could not reproduce; the finite-UIT model
		// holds it under 8%, and this bound keeps it there.
		"hashjoin": 0.08,
		"prodcons": 0.05,
		// branchy's miss is a branch-bubble calibration artifact (flat
		// across configs, no LTP involvement), not an urgency one.
		"branchy": 0.15,
		"phased":  0.08,
	}
	scale, warm, insts := 0.05, uint64(8_000), uint64(25_000)

	type cell struct{ cycle, model float64 }
	results := make(map[string][]cell)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	errCh := make(chan error, len(tol)*len(configs))
	// Populate every map entry before any worker starts: the workers
	// index into the map concurrently, and a mapassign racing their
	// reads trips the race detector even though the slices are disjoint.
	for fam := range tol {
		results[fam] = make([]cell, len(configs))
	}
	for fam := range tol {
		for ci := range configs {
			wg.Add(1)
			sem <- struct{}{}
			go func(fam string, ci int) {
				defer wg.Done()
				defer func() { <-sem }()
				spec := ltp.RunSpec{
					Scenario:  fam,
					Seed:      3,
					Scale:     scale,
					WarmInsts: warm,
					MaxInsts:  insts,
					Pipeline:  configs[ci].Pipeline,
					UseLTP:    configs[ci].UseLTP,
					LTP:       configs[ci].LTP,
				}
				var c cell
				for _, backend := range []string{ltp.BackendCycle, ltp.BackendModel} {
					spec.Backend = backend
					res, err := ltp.RunContext(context.Background(), spec)
					if err != nil {
						errCh <- fmt.Errorf("%s/%s on %s: %w", fam, configs[ci].Name, backend, err)
						return
					}
					if backend == ltp.BackendCycle {
						c.cycle = res.CPI
					} else {
						c.model = res.CPI
					}
				}
				mu.Lock()
				results[fam][ci] = c
				mu.Unlock()
			}(fam, ci)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for fam, bound := range tol {
		var errSum float64
		for ci, c := range results[fam] {
			errSum += math.Abs(c.model-c.cycle) / c.cycle
			t.Logf("%-10s %-9s cycle %.3f model %.3f (%+.1f%%)",
				fam, configs[ci].Name, c.cycle, c.model, 100*(c.model-c.cycle)/c.cycle)
		}
		mean := errSum / float64(len(results[fam]))
		if mean > bound {
			t.Errorf("%s: mean absolute CPI error %.1f%% exceeds the family bound %.0f%%",
				fam, 100*mean, 100*bound)
		}
	}
}

// TestBackendHashesNeverCollide pins the cache-keying contract: the
// same run at different fidelities hashes differently, and the default
// backend spelling ("") hashes identically to its explicit name.
func TestBackendHashesNeverCollide(t *testing.T) {
	spec := ltp.RunSpec{Workload: "indirect", MaxInsts: 10_000}
	hDefault, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	spec.Backend = ltp.BackendCycle
	hCycle, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	spec.Backend = ltp.BackendModel
	hModel, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hDefault != hCycle {
		t.Fatalf("default backend hash %s != explicit cycle hash %s", hDefault, hCycle)
	}
	if hModel == hCycle {
		t.Fatalf("model and cycle backends hash identically (%s): cached fidelities would collide", hModel)
	}
	spec.Backend = "quantum"
	if _, err := spec.Hash(); err == nil {
		t.Fatal("unknown backend canonicalized without error")
	}
}

// TestModelBackendDeterminism: equal model specs produce identical
// estimates.
func TestModelBackendDeterminism(t *testing.T) {
	spec := ltp.RunSpec{Scenario: "ptrchase", Seed: 7, Scale: 0.05, WarmInsts: 5_000, MaxInsts: 20_000, Backend: ltp.BackendModel}
	a, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result {
		t.Fatalf("model backend is nondeterministic:\n%+v\n%+v", a.Result, b.Result)
	}
}

// TestModelHonorsIdentPolicy: the model classifies through the lane's
// own LTP unit, so the identification policy reaches it as it reaches
// the cycle tier. Under IdentCrit both tiers train the criticality
// table and leave the UIT empty, and the model's estimate differs from
// its IdentPaper one.
func TestModelHonorsIdentPolicy(t *testing.T) {
	run := func(backend string, ident core.IdentPolicy) ltp.RunResult {
		t.Helper()
		lcfg := core.DefaultConfig()
		lcfg.Ident = ident
		res, err := ltp.RunContext(context.Background(), ltp.RunSpec{
			Scenario: "hashjoin", Scale: 0.05, WarmInsts: 20_000, MaxInsts: 20_000,
			UseLTP: true, LTP: &lcfg, Backend: backend,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", backend, ident, err)
		}
		return res
	}
	for _, backend := range []string{ltp.BackendCycle, ltp.BackendModel} {
		if n := run(backend, core.IdentCrit).LTP.UITLen; n != 0 {
			t.Errorf("%s: IdentCrit lane reports UITLen %d; want 0 (the crit table is trained instead)", backend, n)
		}
	}
	paper, err := json.Marshal(run(ltp.BackendModel, core.IdentPaper))
	if err != nil {
		t.Fatal(err)
	}
	crit, err := json.Marshal(run(ltp.BackendModel, core.IdentCrit))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(paper, crit) {
		t.Fatal("model IdentCrit result is byte-identical to IdentPaper: the model ignores the identification policy")
	}
}

// TestModelBackendRejectsCycleOnlyFeatures: oracles and trace capture
// have no meaning on the analytical backend and must error loudly —
// including a prebuilt oracle, which would otherwise be silently
// replaced by the model's own urgency heuristic.
func TestModelBackendRejectsCycleOnlyFeatures(t *testing.T) {
	spec := ltp.RunSpec{Workload: "indirect", MaxInsts: 5_000, UseLTP: true, Oracle: true, Backend: ltp.BackendModel}
	if _, err := ltp.RunContext(context.Background(), spec); err == nil {
		t.Fatal("oracle run on the model backend did not error")
	}
	if _, err := spec.Canonical(); err == nil {
		t.Fatal("oracle spec on the model backend canonicalized")
	}

	wl, err := workload.ByName("indirect")
	if err != nil {
		t.Fatal(err)
	}
	pcfg := pipeline.DefaultConfig()
	lcfg := core.DefaultConfig()
	lcfg.Oracle = core.BuildOracle(wl.Build(0.05), 8_192, pcfg.Hier, pcfg.ROBSize)
	prebuilt := ltp.RunSpec{Workload: "indirect", Scale: 0.05, MaxInsts: 5_000,
		UseLTP: true, LTP: &lcfg, Backend: ltp.BackendModel}
	if _, err := ltp.RunContext(context.Background(), prebuilt); err == nil {
		t.Fatal("prebuilt-oracle run on the model backend did not error")
	}
}

// TestModelBackendHonorsMaxCycles: the safety cap halts the estimate
// like it halts the detailed pipeline, so mixed-fidelity comparisons
// measure the same region.
func TestModelBackendHonorsMaxCycles(t *testing.T) {
	spec := ltp.RunSpec{Workload: "ptrchase1", Scale: 0.05, MaxInsts: 50_000, Backend: ltp.BackendModel}
	full, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.MaxCycles = full.Cycles / 4
	capped, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Committed >= full.Committed {
		t.Fatalf("MaxCycles ignored: capped run committed %d of %d", capped.Committed, full.Committed)
	}
	if capped.Cycles > spec.MaxCycles+1_000 {
		t.Fatalf("capped run overshot the cycle cap: %d cycles vs cap %d", capped.Cycles, spec.MaxCycles)
	}
}

// triageSweep is a small scenario × config sweep with seed replication
// used by the triage tests.
func triageSweep(topK int) ltp.SweepSpec {
	seeds := ltp.SweepAxis{Name: "seed", Replicate: true}
	for s := int64(1); s <= 2; s++ {
		s := s
		seeds.Points = append(seeds.Points, ltp.SweepPoint{
			Name: fmt.Sprintf("seed%d", s), Patch: ltp.RunPatch{Seed: &s},
		})
	}
	iq32, regs := 32, 96
	var useLTP = true
	return ltp.SweepSpec{
		Base: ltp.RunSpec{Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{
			{Name: "scenario", Points: []ltp.SweepPoint{
				{Name: "branchy", Patch: ltp.RunPatch{Scenario: strPtr("branchy")}},
				{Name: "ptrchase", Patch: ltp.RunPatch{Scenario: strPtr("ptrchase")}},
			}},
			{Name: "config", Points: []ltp.SweepPoint{
				{Name: "IQ64", Patch: ltp.RunPatch{}},
				{Name: "IQ32+LTP", Patch: ltp.RunPatch{IQSize: &iq32, IntRegs: &regs, FPRegs: &regs, UseLTP: &useLTP}},
			}},
			seeds,
		},
		Triage: &ltp.TriageSpec{TopK: topK},
	}
}

func strPtr(s string) *string { return &s }

// TestTriageSweep drives the two-phase fidelity triage end to end: the
// model pre-pass covers every enumerated run, the TopK best cells
// re-run cycle-accurately as distinct "detail" cell events, and the
// detailed runs are cache-key-identical to directly submitted
// cycle-backend runs.
func TestTriageSweep(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	spec := triageSweep(2)
	job, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	var triageCells, detailCells []ltp.CellResult
	for c := range job.Cells() {
		switch c.Phase {
		case ltp.PhaseTriage:
			triageCells = append(triageCells, c)
		case ltp.PhaseDetail:
			detailCells = append(detailCells, c)
		default:
			t.Errorf("triage sweep emitted unphased cell %+v", c)
		}
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}

	enumerated := 2 * 2 * 2 // scenarios × configs × seeds
	if len(triageCells) != enumerated {
		t.Fatalf("model pre-pass streamed %d cells, want %d", len(triageCells), enumerated)
	}
	wantDetail := 2 * 2 // TopK × replicates
	if len(detailCells) != wantDetail {
		t.Fatalf("detailed phase streamed %d cells, want %d", len(detailCells), wantDetail)
	}
	for _, c := range triageCells {
		if c.Backend != ltp.BackendModel {
			t.Fatalf("triage-phase cell ran on backend %q", c.Backend)
		}
	}
	for _, c := range detailCells {
		if c.Backend != ltp.BackendCycle {
			t.Fatalf("detail-phase cell ran on backend %q", c.Backend)
		}
	}
	p := job.Progress()
	if p.DoneRuns != job.TotalRuns() || p.TotalRuns != enumerated+wantDetail {
		t.Fatalf("triage progress inconsistent: %+v (total %d)", p, job.TotalRuns())
	}

	// Result shape: model estimates for every cell, detailed aggregates
	// for the TopK selection, never pooled.
	if len(res.Cells) != 4 {
		t.Fatalf("triage result has %d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Backend != ltp.BackendModel {
			t.Fatalf("triage estimate cell %v tagged backend %q", c.Coords, c.Backend)
		}
		if c.CPI.N != 2 {
			t.Fatalf("triage estimate cell %v aggregated %d replicates, want 2", c.Coords, c.CPI.N)
		}
	}
	if res.Triage == nil || len(res.Triage.Detailed) != 2 {
		t.Fatalf("triage result missing detailed cells: %+v", res.Triage)
	}
	for _, c := range res.Triage.Detailed {
		if c.Backend != ltp.BackendCycle {
			t.Fatalf("detailed cell %v tagged backend %q", c.Coords, c.Backend)
		}
		if c.CPI.N != 2 {
			t.Fatalf("detailed cell %v aggregated %d replicates, want 2", c.Coords, c.CPI.N)
		}
	}

	// The detailed runs must be hash-identical to direct cycle-backend
	// submissions: resubmitting one through the engine must be a pure
	// cache hit, never a new simulation.
	one := detailCells[0]
	direct := ltp.RunSpec{
		Scenario: one.Coords[0],
		Seed:     int64(one.Replicate) + 1,
		Scale:    0.05, MaxInsts: 4_000,
	}
	if one.Coords[1] == "IQ32+LTP" {
		cfg := pipeline.DefaultConfig()
		cfg.IQSize, cfg.IntRegs, cfg.FPRegs = 32, 96, 96
		direct.Pipeline = &cfg
		direct.UseLTP = true
	}
	dh, err := direct.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if dh != one.Hash {
		t.Fatalf("detailed cell hash %s != direct submission hash %s", one.Hash, dh)
	}
	_, outcome, _, err := e.RunCached(context.Background(), direct)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != cache.Hit {
		t.Fatalf("direct resubmission of a triaged cell was %v, want a cache hit", outcome)
	}
}

// TestTriageValidation pins the triage-specific Canonical rules.
func TestTriageValidation(t *testing.T) {
	// TopK out of range.
	s := triageSweep(0)
	if _, err := s.Canonical(); err == nil {
		t.Fatal("top_k = 0 accepted")
	}
	s = triageSweep(5)
	if _, err := s.Canonical(); err == nil {
		t.Fatal("top_k above the cell count accepted")
	}
	// Triage cells must be cycle-backend cells.
	s = triageSweep(2)
	s.Base.Backend = ltp.BackendModel
	if _, err := s.Canonical(); err == nil {
		t.Fatal("triage over model-backend cells accepted")
	}
	// Oracle cells would make the model pre-pass fail post-admission.
	s = triageSweep(2)
	s.Base.Workload, s.Base.Scenario = "", ""
	s.Base.UseLTP, s.Base.Oracle = true, true
	if _, err := s.Canonical(); err == nil {
		t.Fatal("triage over oracle cells accepted")
	}
}

// TestSweepBackendAxis crosses an explicit backend axis with seed
// replication: each cell aggregates exactly its own fidelity's
// replicates (mean ± CI per backend, never pooled across fidelities).
func TestSweepBackendAxis(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	seeds := ltp.SweepAxis{Name: "seed", Replicate: true}
	for s := int64(1); s <= 3; s++ {
		s := s
		seeds.Points = append(seeds.Points, ltp.SweepPoint{
			Name: fmt.Sprintf("seed%d", s), Patch: ltp.RunPatch{Seed: &s},
		})
	}
	spec := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{
			{Name: "backend", Points: []ltp.SweepPoint{
				{Name: "cycle", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendCycle)}},
				{Name: "model", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendModel)}},
			}},
			seeds,
		},
	}
	job, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("backend axis produced %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Backend != c.Coords[0] {
			t.Fatalf("cell %v tagged backend %q", c.Coords, c.Backend)
		}
		if c.CPI.N != 3 || c.Replicates != 3 {
			t.Fatalf("cell %v pooled %d samples, want 3 (its own fidelity only)", c.Coords, c.CPI.N)
		}
	}
	cyc, mod := res.Cell("cycle"), res.Cell("model")
	if cyc == nil || mod == nil {
		t.Fatalf("missing per-backend cells: %+v", res.Cells)
	}
	// Seed replication must spread within each fidelity independently.
	if cyc.CPI.Mean == mod.CPI.Mean && cyc.CPI.CI95 == mod.CPI.CI95 {
		t.Fatalf("cycle and model cells aggregated identically (%v): pooled across fidelities?", cyc.CPI)
	}
}

// TestSweepRejectsReplicateBackendAxis: a replicate axis whose patches
// change the backend would pool estimates into measurements; Canonical
// must refuse it.
func TestSweepRejectsReplicateBackendAxis(t *testing.T) {
	spec := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{
			{Name: "backend", Replicate: true, Points: []ltp.SweepPoint{
				{Name: "cycle", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendCycle)}},
				{Name: "model", Patch: ltp.RunPatch{Backend: strPtr(ltp.BackendModel)}},
			}},
		},
	}
	if _, err := spec.Canonical(); err == nil {
		t.Fatal("replicate backend axis accepted")
	}
}
