package ltp_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/workload"
)

// TestHashStableAcrossFieldOrder decodes the same request from JSON
// bodies with reordered fields — the shape an HTTP client controls —
// and requires identical hashes.
func TestHashStableAcrossFieldOrder(t *testing.T) {
	a := `{"Scenario":"hashjoin","Seed":7,"Scale":0.5,"MaxInsts":50000,"UseLTP":true}`
	b := `{"UseLTP":true,"MaxInsts":50000,"Scale":0.5,"Seed":7,"Scenario":"hashjoin"}`
	var sa, sb ltp.RunSpec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("field order perturbed the hash:\n%s\n%s", ha, hb)
	}
	if !strings.HasPrefix(ha, "rs3:") {
		t.Fatalf("hash %q missing version prefix", ha)
	}
}

// TestHashNormalizesDefaults holds the canonicalization contract:
// zero/nil defaults and their explicit spellings hash identically, and
// ignored fields cannot perturb the hash.
func TestHashNormalizesDefaults(t *testing.T) {
	hash := func(s ltp.RunSpec) string {
		t.Helper()
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	base := ltp.RunSpec{Workload: "indirect", MaxInsts: 50_000}

	// nil Pipeline == explicit DefaultConfig.
	pcfg := pipeline.DefaultConfig()
	if got, want := hash(ltp.RunSpec{Workload: "indirect", MaxInsts: 50_000, Pipeline: &pcfg}), hash(base); got != want {
		t.Errorf("nil vs default Pipeline hash differs")
	}

	// Scale 0 == Scale 1.0.
	if got, want := hash(ltp.RunSpec{Workload: "indirect", MaxInsts: 50_000, Scale: 1.0}), hash(base); got != want {
		t.Errorf("Scale 0 vs 1.0 hash differs")
	}

	// Scenario fields are ignored (and must not perturb) under a named
	// workload; so is LTP config without UseLTP.
	lcfg := core.DefaultConfig()
	noisy := base
	noisy.Seed = 99
	noisy.Knobs = &workload.Knobs{Stride: 7}
	noisy.LTP = &lcfg
	noisy.Oracle = true
	if got, want := hash(noisy), hash(base); got != want {
		t.Errorf("ignored fields perturbed the hash")
	}

	// nil Knobs == explicitly resolved family defaults.
	fam, err := ltp.ScenarioByName("ptrchase")
	if err != nil {
		t.Fatal(err)
	}
	resolved := fam.Resolve(nil)
	sNil := ltp.RunSpec{Scenario: "ptrchase", MaxInsts: 50_000}
	sRes := ltp.RunSpec{Scenario: "ptrchase", MaxInsts: 50_000, Knobs: &resolved}
	if hash(sNil) != hash(sRes) {
		t.Errorf("nil knobs vs resolved defaults hash differs")
	}

	// WarmMode is irrelevant without a warm region.
	warmless := base
	warmless.WarmMode = ltp.WarmDetailed
	if hash(warmless) != hash(base) {
		t.Errorf("WarmMode perturbed the hash of a warmless run")
	}

	// ...but distinguishing fields must distinguish.
	for name, s := range map[string]ltp.RunSpec{
		"workload": {Workload: "compute", MaxInsts: 50_000},
		"insts":    {Workload: "indirect", MaxInsts: 60_000},
		"ltp":      {Workload: "indirect", MaxInsts: 50_000, UseLTP: true},
		"scale":    {Workload: "indirect", MaxInsts: 50_000, Scale: 0.5},
	} {
		if hash(s) == hash(base) {
			t.Errorf("%s change did not change the hash", name)
		}
	}
}

// fixedPointSpecs is every shape of spec that is canonicalized and then
// handed on to code that canonicalizes it again (a sweep's admitted
// runs reach RunContext, ltpbench and the triage pre-pass): every
// scenario family and two fixed kernels on each backend with and
// without the LTP, plus a co-runner, a prefetcher and a TAGE row on the
// cycle and sampled tiers.
func fixedPointSpecs() []ltp.RunSpec {
	specs := []ltp.RunSpec{
		{Scenario: "branchy", MaxInsts: 50_000, Knobs: &workload.Knobs{BranchEntropy: -1}},
	}
	sources := []ltp.RunSpec{{Workload: "indirect"}, {Workload: "chains"}}
	for _, f := range workload.FamilyNames() {
		sources = append(sources, ltp.RunSpec{Scenario: f, Seed: 3})
	}
	for _, src := range sources {
		for _, backend := range []string{ltp.BackendCycle, ltp.BackendSampled, ltp.BackendModel} {
			for _, useLTP := range []bool{false, true} {
				s := src
				s.Scale, s.WarmInsts, s.MaxInsts = 0.1, 20_000, 50_000
				s.Backend, s.UseLTP = backend, useLTP
				specs = append(specs, s)
			}
		}
	}
	for _, backend := range []string{ltp.BackendCycle, ltp.BackendSampled} {
		base := ltp.RunSpec{Scenario: "hashjoin", MaxInsts: 50_000, Backend: backend, UseLTP: true}
		cor, pf, tage := base, base, base
		cor.Corunners = []ltp.Corunner{{Scenario: "memhog"}}
		pf.Prefetcher = "stride"
		tage.BranchPred = "tage"
		specs = append(specs, cor, pf, tage)
	}
	return specs
}

// TestCanonicalFixedPoint holds that Canonical is idempotent on every
// fixedPointSpecs shape — the second pass returns the first's spec
// field for field, not only its hash — in particular for resolved
// BranchEntropy 0, whose literal-zero spelling would re-merge to the
// family default on a second resolution. It also holds the triage
// property: swapping a canonical spec's backend to the model and
// canonicalizing again gives what canonicalizing the swapped original
// gives.
func TestCanonicalFixedPoint(t *testing.T) {
	for _, s := range fixedPointSpecs() {
		name := fmt.Sprintf("%s%s/%s/ltp=%v", s.Workload, s.Scenario, s.Backend, s.UseLTP)
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := c1.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: canonical not a fixed point:\n%+v\n%+v", name, c1, c2)
		}
		h1, _ := c1.Hash()
		h2, _ := c2.Hash()
		ho, _ := s.Hash()
		if h1 != h2 || h1 != ho {
			t.Errorf("%s: canonical hash not a fixed point: %s vs %s vs %s", name, ho, h1, h2)
		}
		if c1.Scenario != "" && c1.Knobs.BranchEntropy == 0 {
			t.Errorf("%s: canonical knobs carry literal entropy 0 (would re-merge to the family default)", name)
		}

		swapped, orig := c1, s
		swapped.Backend, orig.Backend = ltp.BackendModel, ltp.BackendModel
		m1, err1 := swapped.Canonical()
		m2, err2 := orig.Canonical()
		if (err1 != nil) != (err2 != nil) {
			t.Errorf("%s: model admission of the canonical spec (%v) and of the original (%v) disagree", name, err1, err2)
		} else if !reflect.DeepEqual(m1, m2) {
			t.Errorf("%s: model admission depends on a prior canonical pass:\n%+v\n%+v", name, m1, m2)
		}
	}

	// Entropy 0 and the family default must stay distinct cells.
	zero := ltp.RunSpec{Scenario: "hashjoin", MaxInsts: 50_000, Knobs: &workload.Knobs{BranchEntropy: -1}}
	def := ltp.RunSpec{Scenario: "hashjoin", MaxInsts: 50_000}
	hz, _ := zero.Hash()
	hd, _ := def.Hash()
	if hz == hd {
		t.Error("entropy-0 spec hashes like the family default")
	}
}

// TestHashRejectsNonCanonical documents which specs have no content
// address.
func TestHashRejectsNonCanonical(t *testing.T) {
	if _, err := (ltp.RunSpec{}).Hash(); err == nil {
		t.Error("empty spec hashed")
	}
	if _, err := (ltp.RunSpec{Workload: "nosuch"}).Hash(); err == nil {
		t.Error("unknown workload hashed")
	}
	if _, err := (ltp.RunSpec{Scenario: "nosuch"}).Hash(); err == nil {
		t.Error("unknown scenario hashed")
	}
	if _, err := (ltp.RunSpec{ReplayFrom: strings.NewReader("x")}).Hash(); err == nil {
		t.Error("replay spec hashed")
	}
}

// TestMatrixHash checks the campaign-level canonicalization: empty
// axes equal their explicit defaults, and the seed count is part of
// the campaign's identity.
func TestMatrixHash(t *testing.T) {
	base := ltp.RunSpec{Scale: 0.05, MaxInsts: 8_000}
	ha := sweepHash(t, base, nil, nil, 0)
	var fams []string
	for _, f := range ltp.Scenarios() {
		fams = append(fams, f.Name)
	}
	if hb := sweepHash(t, base, fams, ltp.DefaultMatrixConfigs(), 3); ha != hb {
		t.Fatalf("equivalent matrix sweeps hash differently:\n%s\n%s", ha, hb)
	}
	if hc := sweepHash(t, base, nil, nil, 5); hc == ha {
		t.Fatal("seed-count change did not change the matrix hash")
	}
	if _, err := ltp.NewMatrixSweep(base, []string{"nosuch"}, nil, 0); err == nil {
		t.Fatal("unknown scenario in matrix accepted")
	}
}

// TestHashAllocBound bounds what one Hash call allocates: canonicalizing
// a spec validates the predictor and prefetcher names without building
// them (a baseline gshare alone is ~150 KB), so per-request hashing in
// the service stays cheap.
func TestHashAllocBound(t *testing.T) {
	spec := ltp.RunSpec{Scenario: "hashjoin", Seed: 7, MaxInsts: 50000, UseLTP: true,
		BranchPred: "tage", Prefetcher: "stream"}
	if _, err := spec.Hash(); err != nil {
		t.Fatal(err)
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := spec.Hash(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 16<<10 {
		t.Errorf("RunSpec.Hash allocates %d bytes per call, want < 16 KB", per)
	}
}
