package ltp_test

import (
	"context"
	"strings"
	"testing"

	"ltp"
	"ltp/internal/pipeline"
	"ltp/internal/workload"
)

// TestTAGEBeatsGshareOnBranchy is the predictor axis's end-to-end
// differential: on the branchy scenario at maximum entropy, TAGE's
// geometric history tables must resolve the data-dependent pattern
// that aliases out of gshare's single fixed-length history. The
// simulator is deterministic, so the margin asserted here (TAGE under
// 60% of gshare's mispredicts, measured rates ~0.03 vs ~0.15) is a
// regression fence, not a statistical bet.
func TestTAGEBeatsGshareOnBranchy(t *testing.T) {
	run := func(bp string) ltp.RunResult {
		t.Helper()
		return mustRun(t, ltp.RunSpec{
			Scenario:   "branchy",
			Knobs:      &workload.Knobs{FootprintWords: 512, BranchEntropy: 0.5},
			Scale:      1.0,
			WarmInsts:  50_000,
			MaxInsts:   150_000,
			BranchPred: bp,
		})
	}
	g := run("gshare")
	ta := run("tage")
	if g.Branches == 0 || ta.Branches == 0 {
		t.Fatalf("no branches simulated: gshare %d, tage %d", g.Branches, ta.Branches)
	}
	gr := float64(g.Mispredicts) / float64(g.Branches)
	tr := float64(ta.Mispredicts) / float64(ta.Branches)
	if tr >= 0.6*gr {
		t.Fatalf("TAGE mispredict rate %.4f not clearly below gshare %.4f", tr, gr)
	}
	if ta.CPI >= g.CPI {
		t.Fatalf("TAGE CPI %.3f not below gshare CPI %.3f on a branch-bound kernel", ta.CPI, g.CPI)
	}
}

// TestCorunnerDeterminism pins the contention subsystem's determinism
// contract: the captured-traffic replay is part of the content-
// addressed spec, so the same spec must produce identical Stats every
// run — and must actually perturb the solo baseline.
func TestCorunnerDeterminism(t *testing.T) {
	spec := ltp.RunSpec{
		Scenario:  "ptrchase",
		Scale:     0.1,
		WarmInsts: 20_000,
		MaxInsts:  80_000,
		UseLTP:    true,
		Corunners: []ltp.Corunner{{Scenario: "memhog"}},
	}
	a := mustRun(t, spec)
	b := mustRun(t, spec)
	if a.Result != b.Result {
		t.Fatalf("co-runner run is not deterministic:\n%+v\n%+v", a.Result, b.Result)
	}
	if (a.LTP == nil) != (b.LTP == nil) || (a.LTP != nil && *a.LTP != *b.LTP) {
		t.Fatalf("co-runner LTP stats diverge across identical runs")
	}
	if a.CorunnerAccesses == 0 {
		t.Fatal("co-runner attached but replayed zero accesses")
	}
	solo := spec
	solo.Corunners = nil
	s := mustRun(t, solo)
	if s.CorunnerAccesses != 0 {
		t.Fatalf("solo run reports %d co-runner accesses", s.CorunnerAccesses)
	}
	if a.CPI <= s.CPI {
		t.Fatalf("memhog co-runner did not raise CPI: contended %.3f vs solo %.3f", a.CPI, s.CPI)
	}
}

// TestCorunnerLTPDelta is the contention subsystem's reason to exist:
// parking non-critical work matters most when the shared hierarchy is
// under pressure. On hashjoin, LTP is roughly neutral solo but must
// buy strictly more CPI when a memhog co-runner is hammering the
// shared LLC, MSHRs and DRAM banks.
func TestCorunnerLTPDelta(t *testing.T) {
	run := func(hog, useLTP bool) float64 {
		t.Helper()
		spec := ltp.RunSpec{
			Scenario:  "hashjoin",
			Scale:     0.1,
			WarmInsts: 20_000,
			MaxInsts:  80_000,
			UseLTP:    useLTP,
		}
		if hog {
			spec.Corunners = []ltp.Corunner{{Scenario: "memhog", Intensity: 1024}}
		}
		return mustRun(t, spec).CPI
	}
	dSolo := run(false, false) - run(false, true)
	dHog := run(true, false) - run(true, true)
	if dHog <= dSolo {
		t.Fatalf("LTP CPI delta under memhog co-runner (%.3f) not larger than solo (%.3f)",
			dHog, dSolo)
	}
	if dHog <= 0 {
		t.Fatalf("LTP did not help at all under contention (delta %.3f)", dHog)
	}
}

// TestSampledK1Corunner extends the K=1 degeneration contract to
// contended runs: co-runner replay state (private L1D, pattern index,
// credit) rides through the checkpoint clone machinery, so a K=1
// sampled run of a contended spec must equal the cycle run bit for
// bit. Any drift means co-runner state is not faithfully cloned.
func TestSampledK1Corunner(t *testing.T) {
	base := ltp.RunSpec{
		Scenario:  "ptrchase",
		Seed:      5,
		Scale:     0.05,
		WarmInsts: 8_000,
		MaxInsts:  25_000,
		UseLTP:    true,
		Corunners: []ltp.Corunner{{Scenario: "memhog"}},
	}
	cspec := base
	cspec.Backend = ltp.BackendCycle
	cres, err := ltp.RunContext(context.Background(), cspec)
	if err != nil {
		t.Fatalf("cycle: %v", err)
	}
	sspec := base
	sspec.Backend = ltp.BackendSampled
	sspec.Intervals = 1
	sres, err := ltp.RunContext(context.Background(), sspec)
	if err != nil {
		t.Fatalf("sampled: %v", err)
	}
	if sres.Result != cres.Result {
		t.Errorf("K=1 sampled Result diverges from cycle under contention:\ncycle   %+v\nsampled %+v",
			cres.Result, sres.Result)
	}
	if sres.LTP != nil && cres.LTP != nil && *sres.LTP != *cres.LTP {
		t.Errorf("K=1 sampled LTP stats diverge under contention")
	}
	if cres.CorunnerAccesses == 0 {
		t.Fatal("contended cycle run replayed zero co-runner accesses")
	}

	// K>1 stitches its intervals: the co-runner counters must scale up
	// to the whole run like every other additive counter.
	sspec.Intervals = 4
	kres, err := ltp.RunContext(context.Background(), sspec)
	if err != nil {
		t.Fatalf("sampled K=4: %v", err)
	}
	if kres.CorunnerAccesses == 0 || kres.CorunnerDRAM == 0 || kres.CorunnerStalls == 0 {
		t.Errorf("K=4 sampled run reports co-runner accesses/DRAM/stalls %d/%d/%d (cycle %d/%d/%d)",
			kres.CorunnerAccesses, kres.CorunnerDRAM, kres.CorunnerStalls,
			cres.CorunnerAccesses, cres.CorunnerDRAM, cres.CorunnerStalls)
	}
}

// TestMicroarchAxisHashing holds the rs3 canonicalization contract for
// the new sweep axes: every axis value is a distinct content address,
// and default spellings collapse onto the unset form so cache hits
// cross spelling variants.
func TestMicroarchAxisHashing(t *testing.T) {
	hash := func(s ltp.RunSpec) string {
		t.Helper()
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 50_000}

	// Within each axis, every value hashes distinctly. (Across axes the
	// default spellings — gshare, stride — intentionally collapse onto
	// the base address; that collapse is asserted below.)
	var all []string
	distinct := func(axis string, hashes map[string]string) {
		t.Helper()
		rev := map[string]string{}
		for label, h := range hashes {
			if prev, ok := rev[h]; ok {
				t.Fatalf("%s values %q and %q collide on %s", axis, prev, label, h)
			}
			rev[h] = label
			all = append(all, h)
		}
	}
	bpHashes := map[string]string{}
	for _, bp := range ltp.BranchPredictors() {
		s := base
		s.BranchPred = bp
		bpHashes[bp] = hash(s)
	}
	distinct("branch predictor", bpHashes)
	pfHashes := map[string]string{}
	for _, pf := range ltp.Prefetchers() {
		s := base
		s.Prefetcher = pf
		pfHashes[pf] = hash(s)
	}
	distinct("prefetcher", pfHashes)
	cor := base
	cor.Corunners = []ltp.Corunner{{Scenario: "memhog"}}
	cor2 := base
	cor2.Corunners = []ltp.Corunner{{Scenario: "memhog", Intensity: 512}}
	distinct("co-runner", map[string]string{
		"solo": hash(base), "memhog": hash(cor), "memhog/512": hash(cor2),
	})

	// Default spellings are the unset form: gshare and stride are the
	// Table 1 baseline, so naming them cannot change the address.
	h0 := hash(base)
	g := base
	g.BranchPred = "gshare"
	if hash(g) != h0 {
		t.Fatal("explicit gshare hashes differently from the default")
	}
	st := base
	st.Prefetcher = "stride"
	if hash(st) != h0 {
		t.Fatal("explicit stride hashes differently from the default")
	}

	// RunSpec.BranchPred and Pipeline.BranchPred are the same axis.
	viaSpec := base
	viaSpec.BranchPred = "tage"
	pcfg := pipeline.DefaultConfig()
	pcfg.BranchPred = "tage"
	viaPipe := base
	viaPipe.Pipeline = &pcfg
	if hash(viaSpec) != hash(viaPipe) {
		t.Fatal("RunSpec.BranchPred and Pipeline.BranchPred hash differently")
	}

	// An explicitly-defaulted co-runner equals its shorthand.
	corDefault := base
	corDefault.Corunners = []ltp.Corunner{{
		Scenario:  "memhog",
		Intensity: ltp.DefaultCorunnerIntensity,
		Accesses:  ltp.DefaultCorunnerAccesses,
	}}
	if hash(corDefault) != hash(cor) {
		t.Fatal("explicit co-runner defaults hash differently from the shorthand")
	}

	for _, h := range all {
		if !strings.HasPrefix(h, "rs3:") {
			t.Fatalf("hash %q missing the rs3 version prefix", h)
		}
	}
}

// TestMicroarchAxisValidation rejects malformed axis values before any
// simulation runs.
func TestMicroarchAxisValidation(t *testing.T) {
	base := ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 10_000}
	for _, tc := range []struct {
		name string
		mut  func(*ltp.RunSpec)
	}{
		{"unknown predictor", func(s *ltp.RunSpec) { s.BranchPred = "perceptron" }},
		{"unknown prefetcher", func(s *ltp.RunSpec) { s.Prefetcher = "ghb" }},
		{"unknown co-runner family", func(s *ltp.RunSpec) {
			s.Corunners = []ltp.Corunner{{Scenario: "nosuch"}}
		}},
		{"too many co-runners", func(s *ltp.RunSpec) {
			for i := 0; i <= ltp.MaxCorunners; i++ {
				s.Corunners = append(s.Corunners, ltp.Corunner{Scenario: "memhog"})
			}
		}},
	} {
		s := base
		tc.mut(&s)
		if _, err := s.Hash(); err == nil {
			t.Errorf("%s: Hash accepted the spec", tc.name)
		}
		if _, err := ltp.RunContext(context.Background(), s); err == nil {
			t.Errorf("%s: RunContext accepted the spec", tc.name)
		}
	}
}
