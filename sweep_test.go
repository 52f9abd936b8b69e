package ltp_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ltp"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/stats"
)

// quickSweepMatrix is a small real matrix campaign.
func quickSweepMatrix() (ltp.SweepSpec, error) {
	return ltp.NewMatrixSweep(ltp.RunSpec{Scale: 0.05, MaxInsts: 4_000},
		[]string{"branchy", "hashjoin"},
		[]ltp.MatrixConfig{{Name: "IQ64"}, {Name: "IQ32+LTP", UseLTP: true}},
		2)
}

// sweepHash builds a matrix sweep and returns its content address.
func sweepHash(t *testing.T, base ltp.RunSpec, scenarios []string, configs []ltp.MatrixConfig, seeds int) string {
	t.Helper()
	s, err := ltp.NewMatrixSweep(base, scenarios, configs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestNewMatrixSweepHashFixedPoint pins the matrix campaigns' content
// addresses — stores and services key campaigns by them — and checks
// that equivalent spellings of one matrix (defaults implicit or
// explicit) hash equally while a genuinely different campaign does not.
func TestNewMatrixSweepHashFixedPoint(t *testing.T) {
	if h := sweepHash(t, ltp.RunSpec{}, nil, nil, 0); h != "sw1:6cce21c57a80737a8e244c0bdcdc495402d7d3d4c967f893fe6b1df08997939d" {
		t.Errorf("default matrix sweep hash moved: %s", h)
	}
	base := ltp.RunSpec{Scale: 0.05, WarmInsts: 1_000, MaxInsts: 4_000}
	scns := []string{"branchy", "ptrchase"}
	h1 := sweepHash(t, base, scns, nil, 2)
	if h1 != "sw1:62f331eabfa3fe93f654714dc72ac4ab5bbb42056eff45c975a2d5778ba43499" {
		t.Errorf("quick matrix sweep hash moved: %s", h1)
	}

	// Spelling the defaults explicitly must not perturb the hash.
	explicit := base
	explicit.Backend = ltp.BackendCycle
	explicit.WarmMode = ltp.WarmFast
	cfg := pipeline.DefaultConfig()
	configs := ltp.DefaultMatrixConfigs()
	configs[0].Pipeline = &cfg
	if h := sweepHash(t, explicit, scns, configs, 2); h != h1 {
		t.Fatalf("explicit defaults changed the sweep hash: %s vs %s", h, h1)
	}

	// A genuinely different campaign must hash differently.
	other := base
	other.Seed = 99
	if h := sweepHash(t, other, scns, nil, 2); h == h1 {
		t.Fatal("different base seed produced the same sweep hash")
	}
}

// TestSweepMatrixDifferential holds the engine's aggregation against
// first principles: every cell of a matrix sweep run through
// Engine.Submit summarizes exactly the results of its replicates run
// alone through RunContext.
func TestSweepMatrixDifferential(t *testing.T) {
	sweep, err := quickSweepMatrix()
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}

	runs, err := sweep.Runs()
	if err != nil {
		t.Fatal(err)
	}
	cpi := make([][]float64, len(sres.Cells))
	parked := make([][]float64, len(sres.Cells))
	for _, r := range runs {
		res := mustRun(t, r.Spec)
		cpi[r.Cell] = append(cpi[r.Cell], res.CPI)
		if res.LTP != nil {
			parked[r.Cell] = append(parked[r.Cell], res.LTP.AvgInsts)
		}
	}
	for ci, c := range sres.Cells {
		if want := stats.Summarize(cpi[ci]); c.CPI != want {
			t.Fatalf("cell %v CPI %+v; its replicates alone summarize to %+v", c.Coords, c.CPI, want)
		}
		if len(parked[ci]) > 0 {
			if want := stats.Summarize(parked[ci]); c.Parked != want {
				t.Fatalf("cell %v parked %+v; its replicates alone summarize to %+v", c.Coords, c.Parked, want)
			}
		}
		if c.Replicates != 2 {
			t.Fatalf("cell %v replicates = %d; want 2", c.Coords, c.Replicates)
		}
	}
}

// TestSweepCellsStream checks the streaming channel delivers every
// run with coherent coordinates and cache outcomes.
func TestSweepCellsStream(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	sweep, err := quickSweepMatrix()
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for c := range job.Cells() {
		if seen[c.Index] {
			t.Fatalf("cell %d delivered twice", c.Index)
		}
		seen[c.Index] = true
		if len(c.Coords) != 3 || c.Hash == "" || c.Err != nil {
			t.Fatalf("bad cell result: %+v", c)
		}
		if c.Outcome != "miss" && c.Outcome != "hit" && c.Outcome != "shared" {
			t.Fatalf("cell %d outcome %q", c.Index, c.Outcome)
		}
		if c.Result.Committed == 0 {
			t.Fatalf("cell %d has an empty result", c.Index)
		}
	}
	if len(seen) != job.TotalRuns() {
		t.Fatalf("stream delivered %d cells; want %d", len(seen), job.TotalRuns())
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepRunsCarryAdmission holds that a canonical sweep's runs carry
// their admission — each run's Canonical is its spec's canonical form
// (a fixed point) and its Hash that spec's content address — and that
// the engine streams exactly those
// addresses: for plain cells, for since_snapshot "cached" cells and for
// a triage sweep's detail cells, while a triage pre-pass cell carries
// the address of its model-backend spec.
func TestSweepRunsCarryAdmission(t *testing.T) {
	iq := func(n int) *int { return &n }
	seed := func(n int64) *int64 { return &n }
	sweep := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "branchy", Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{
			{Name: "iq", Points: []ltp.SweepPoint{
				{Name: "iq32", Patch: ltp.RunPatch{IQSize: iq(32)}},
				{Name: "iq64", Patch: ltp.RunPatch{IQSize: iq(64)}},
			}},
			{Name: "seed", Replicate: true, Points: []ltp.SweepPoint{
				{Name: "s0", Patch: ltp.RunPatch{Seed: seed(0)}},
				{Name: "s1", Patch: ltp.RunPatch{Seed: seed(1)}},
			}},
		},
	}
	runs, err := sweep.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != sweep.TotalRuns() {
		t.Fatalf("%d runs; want %d", len(runs), sweep.TotalRuns())
	}
	for i, r := range runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d", i, r.Index)
		}
		for _, s := range []ltp.RunSpec{r.Spec, r.Canonical} {
			c, err := s.Canonical()
			if err != nil {
				t.Fatalf("run %v: %v", r.Coords, err)
			}
			if !reflect.DeepEqual(c, r.Canonical) {
				t.Errorf("run %v carries canonical spec\n%+v\nbut canonicalizes to\n%+v", r.Coords, r.Canonical, c)
			}
		}
		if h, err := r.Spec.Hash(); err != nil || h != r.Hash {
			t.Errorf("run %v carries hash %s; its spec hashes to %s (%v)", r.Coords, r.Hash, h, err)
		}
	}

	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()
	// check submits s and returns its streamed cells, each checked
	// against the address want gives its run.
	check := func(s ltp.SweepSpec, want func(c ltp.CellResult) string) []ltp.CellResult {
		t.Helper()
		job, err := e.Submit(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		var cells []ltp.CellResult
		for c := range job.Cells() {
			if c.Err != nil {
				t.Fatalf("cell %v: %v", c.Coords, c.Err)
			}
			if w := want(c); c.Hash != w {
				t.Errorf("%s cell %v (%s) streams hash %s; want %s", c.Phase, c.Coords, c.Outcome, c.Hash, w)
			}
			cells = append(cells, c)
		}
		if _, err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		return cells
	}
	carried := func(c ltp.CellResult) string { return runs[c.Index].Hash }

	if n := len(check(sweep, carried)); n != len(runs) {
		t.Errorf("plain sweep streamed %d cells; want %d", n, len(runs))
	}

	diffed := sweep
	diffed.SinceSnapshot = []string{runs[0].Hash, runs[3].Hash}
	cached := 0
	for _, c := range check(diffed, carried) {
		if c.Outcome == "cached" {
			cached++
		}
	}
	if cached != 2 {
		t.Errorf("since_snapshot sweep streamed %d cached cells; want 2", cached)
	}

	triage := sweep
	triage.Triage = &ltp.TriageSpec{TopK: 1}
	phases := map[string]int{}
	for _, c := range check(triage, func(c ltp.CellResult) string {
		if c.Phase != ltp.PhaseTriage {
			return runs[c.Index].Hash
		}
		model := runs[c.Index].Spec
		model.Backend = ltp.BackendModel
		h, err := model.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}) {
		phases[c.Phase]++
	}
	if phases[ltp.PhaseTriage] != len(runs) || phases[ltp.PhaseDetail] != sweep.Replicates() {
		t.Errorf("triage sweep streamed %v; want %d triage and %d detail cells", phases, len(runs), sweep.Replicates())
	}
}

// TestSweepGeneralizedAxes exercises what the matrix could not
// express: an IQ-size axis crossed with an LTP on/off axis over a
// replicated seed axis.
func TestSweepGeneralizedAxes(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	iq64, iq24 := 64, 24
	ltpOn, ltpOff := true, false
	s0, s1 := int64(0), int64(1)
	sweep := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{
			{Name: "iq", Points: []ltp.SweepPoint{
				{Name: "iq64", Patch: ltp.RunPatch{IQSize: &iq64}},
				{Name: "iq24", Patch: ltp.RunPatch{IQSize: &iq24}},
			}},
			{Name: "ltp", Points: []ltp.SweepPoint{
				{Name: "off", Patch: ltp.RunPatch{UseLTP: &ltpOff}},
				{Name: "on", Patch: ltp.RunPatch{UseLTP: &ltpOn}},
			}},
			{Name: "seed", Replicate: true, Points: []ltp.SweepPoint{
				{Name: "s0", Patch: ltp.RunPatch{Seed: &s0}},
				{Name: "s1", Patch: ltp.RunPatch{Seed: &s1}},
			}},
		},
	}
	if got := sweep.TotalRuns(); got != 8 {
		t.Fatalf("TotalRuns = %d; want 8", got)
	}
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells; want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Replicates != 2 || c.CPI.N != 2 || c.CPI.Mean <= 0 {
			t.Fatalf("cell %v under-aggregated: %+v", c.Coords, c)
		}
	}
	small := res.Cell("iq24", "off")
	big := res.Cell("iq64", "off")
	if small == nil || big == nil {
		t.Fatalf("missing cells: %+v", res.Cells)
	}
	if small.CPI.Mean <= big.CPI.Mean {
		t.Fatalf("IQ24 CPI %.3f not worse than IQ64 %.3f; the axis had no effect",
			small.CPI.Mean, big.CPI.Mean)
	}
	withLTP := res.Cell("iq24", "on")
	if withLTP == nil || withLTP.Parked.N == 0 {
		t.Fatal("LTP axis point did not attach the parking unit")
	}
}

// TestSweepValidation checks the campaign-shape errors all reject
// before any simulation.
func TestSweepValidation(t *testing.T) {
	pt := func(name string) ltp.SweepPoint { return ltp.SweepPoint{Name: name} }
	cases := map[string]ltp.SweepSpec{
		"unnamed axis": {Axes: []ltp.SweepAxis{{Points: []ltp.SweepPoint{pt("a")}}}},
		"empty axis":   {Axes: []ltp.SweepAxis{{Name: "x"}}},
		"dup axis": {Axes: []ltp.SweepAxis{
			{Name: "x", Points: []ltp.SweepPoint{pt("a")}},
			{Name: "x", Points: []ltp.SweepPoint{pt("b")}},
		}},
		"dup point":     {Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{pt("a"), pt("a")}}}},
		"unnamed point": {Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{{}}}}},
		"no source":     {Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{pt("a")}}}},
		"uncacheable base": {
			Base: ltp.RunSpec{Program: &prog.Program{Name: "p"}},
			Axes: []ltp.SweepAxis{{Name: "x", Points: []ltp.SweepPoint{pt("a")}}},
		},
	}
	for name, spec := range cases {
		if name != "no source" && name != "uncacheable base" && spec.Base.Scenario == "" {
			spec.Base.Scenario = "branchy"
		}
		if _, err := spec.Canonical(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSweepRejectsNoOpAxis checks the distinctness rule: an axis
// whose patches cannot affect the cell (seeds over a fixed kernel,
// which RunSpec.Canonical zeroes) must be rejected rather than
// producing N copies of one simulation dressed up as replicates.
func TestSweepRejectsNoOpAxis(t *testing.T) {
	s0, s1 := int64(0), int64(1)
	spec := ltp.SweepSpec{
		Base: ltp.RunSpec{Workload: "indirect", Scale: 0.05, MaxInsts: 4_000},
		Axes: []ltp.SweepAxis{{Name: "seed", Replicate: true, Points: []ltp.SweepPoint{
			{Name: "s0", Patch: ltp.RunPatch{Seed: &s0}},
			{Name: "s1", Patch: ltp.RunPatch{Seed: &s1}},
		}}},
	}
	if _, err := spec.Canonical(); err == nil {
		t.Fatal("seed axis over a fixed kernel accepted; replicates would be identical simulations")
	}
}

// TestSweepRefusesUnknownIdent checks that a point patching an LTP
// identification policy ParseIdent does not know is an error naming
// the axis and the point, not a cell that quietly runs the paper
// policy.
func TestSweepRefusesUnknownIdent(t *testing.T) {
	bogus := "bogus"
	spec := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "branchy", Scale: 0.05, MaxInsts: 4_000, UseLTP: true},
		Axes: []ltp.SweepAxis{{Name: "ident", Points: []ltp.SweepPoint{
			{Name: "typo", Patch: ltp.RunPatch{Ident: &bogus}},
		}}},
	}
	_, err := spec.Canonical()
	if err == nil {
		t.Fatal("a point with an unknown identification policy was accepted")
	}
	for _, want := range []string{`"ident"`, `"typo"`, `"bogus"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestSweepRunBoundRejectsBeforeEnumerating checks an astronomically
// wide cross-product is rejected by point-count arithmetic alone —
// never materialized (a 200^4 sweep would OOM if enumerated).
func TestSweepRunBoundRejectsBeforeEnumerating(t *testing.T) {
	wide := func(axis string) ltp.SweepAxis {
		ax := ltp.SweepAxis{Name: axis}
		for i := 0; i < 200; i++ {
			seed := int64(i)
			ax.Points = append(ax.Points, ltp.SweepPoint{
				Name: fmt.Sprintf("p%d", i), Patch: ltp.RunPatch{Seed: &seed},
			})
		}
		return ax
	}
	spec := ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "branchy"},
		Axes: []ltp.SweepAxis{wide("a"), wide("b"), wide("c"), wide("d")},
	}
	start := time.Now()
	if _, err := spec.Canonical(); err == nil {
		t.Fatal("1.6 billion-run sweep accepted")
	}
	if _, err := spec.Hash(); err == nil {
		t.Fatal("1.6 billion-run sweep hashed")
	}
	if time.Since(start) > time.Second {
		t.Fatal("rejection enumerated the cross-product")
	}
}

// TestRunContextCancelPrompt holds the pipeline-cancellation
// acceptance criterion: a long simulation aborts promptly after
// cancel, returning the context's error and no result.
func TestRunContextCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A run that would take tens of seconds uncancelled.
		_, err := ltp.RunContext(ctx, ltp.RunSpec{
			Scenario: "ptrchase", Scale: 0.5, MaxInsts: 50_000_000,
		})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it get deep into the cycle loop
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
		// The design target is ~1ms (a 2048-cycle poll interval);
		// 500ms is the generous CI bound that still rules out "ran to
		// completion".
		if lat := time.Since(start); lat > 500*time.Millisecond {
			t.Fatalf("abort latency %v; want prompt", lat)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run never returned")
	}
}

// TestRunContextPreCancelled checks a dead context never simulates.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := ltp.RunContext(ctx, ltp.RunSpec{Scenario: "branchy", MaxInsts: 10_000_000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("pre-cancelled run did work")
	}
}

// TestRunContextCancelDuringWarmup checks the fast functional warm-up
// honours cancellation between chunks.
func TestRunContextCancelDuringWarmup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ltp.RunContext(ctx, ltp.RunSpec{
			Scenario: "gemmblock", Scale: 0.5,
			WarmInsts: 200_000_000, MaxInsts: 1_000,
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled warm-up never returned")
	}
}
