package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ltp"
	"ltp/internal/experiment"
	"ltp/internal/prog"
	"ltp/internal/workload"
)

// Load is fixed, never derived from the host: two simulation workers
// (Engine pool, Suite runner) and two service clients, one
// load-generating process at a time.
const (
	parallelism = 2
	clients     = 2
)

// benchWorkload is one set of inputs the benchmark runs. Why each one
// exists is recorded with it in BENCHMARK.json and bench/README.md.
type benchWorkload struct {
	name string
	// seedFree workloads ignore -seed (the paper figures use the fixed
	// kernels), so their pinned digests apply to every seed.
	seedFree bool
	// pass runs one timed pass in this process: set-up, the timed
	// region, then the correctness checks.
	pass func(env *passEnv)
	// inputs returns the workload's own programs, cells and sweep for
	// the per-layer probes.
	inputs func(seed int64, size float64) (*probeInputs, error)
}

// workloads is the benchmark, in run order.
var workloads = []benchWorkload{
	{name: "paper-figs", seedFree: true, pass: paperFigs.pass, inputs: paperFigs.inputs},
	{name: "sweep-warm", pass: sweepWarm.pass, inputs: sweepWarm.inputs},
	{name: "sweep-long", pass: sweepLong.pass, inputs: sweepLong.inputs},
	{name: "service", pass: service.pass, inputs: service.inputs},
}

func workloadByName(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// passResult is what one pass reports back to the parent process.
type passResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// passEnv carries one pass's parameters and collects its result.
type passEnv struct {
	ctx  context.Context
	seed int64
	// size scales instruction budgets and request counts (1 = the
	// benchmark; the smoke test runs a fiftieth).
	size float64
	// start is when the process running the pass started: set-up time
	// runs from here to the first timed operation.
	start time.Time
	tr    *tracer
	// store is the pre-banked result store the service pass opens.
	store string
	out   passResult
}

func newPassEnv(ctx context.Context, seed int64, size float64, start time.Time, tr *tracer) *passEnv {
	return &passEnv{
		ctx: ctx, seed: seed, size: size, start: start, tr: tr,
		out: passResult{Metrics: map[string]float64{}, Digests: map[string]string{}},
	}
}

// maxErrors bounds how many failure messages a pass keeps.
const maxErrors = 10

// op counts one attempted operation (a cell, a figure call or a
// request) and, when err is non-nil, its failure.
func (e *passEnv) op(err error) {
	e.out.Attempted++
	if err != nil {
		e.fail(err)
	}
}

// fail records a failure that is not an operation of its own (a
// correctness check): it counts against the operations already made.
func (e *passEnv) fail(err error) {
	e.out.Failed++
	if len(e.out.Errors) < maxErrors {
		e.out.Errors = append(e.out.Errors, err.Error())
	}
}

// setupDone marks the first timed operation.
func (e *passEnv) setupDone() { e.out.Metrics["setup_s"] = time.Since(e.start).Seconds() }

// finish records the pass's wall time and the process's peak memory.
func (e *passEnv) finish(wall time.Duration) {
	e.out.Metrics["wall_s"] = wall.Seconds()
	if mb, err := peakRSSMB(); err == nil {
		e.out.Metrics["peak_rss_mb"] = mb
	} else {
		e.fail(err)
	}
	e.out.Spans = e.tr.snapshot()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// guard runs fn, turning a panic into an error: the figure runners
// panic on a failed simulation, and a failure must count, not crash.
func guard(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	fn()
	return nil
}

// scaled shrinks an instruction budget or count by size, keeping it
// at least min.
func scaled(n uint64, size float64, min uint64) uint64 {
	v := uint64(math.Round(float64(n) * size))
	if v < min {
		return min
	}
	return v
}

// scenarioSeeds derives one scenario seed per family from the
// benchmark seed, so each family gets its own layout.
func scenarioSeeds(seed int64, families []string) map[string]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]int64, len(families))
	for _, f := range families {
		out[f] = rng.Int63n(1_000_000)
	}
	return out
}

// --- paper-figs ---

// figsDef runs the paper's Fig. 6 and Fig. 7 through experiment.Suite.
type figsDef struct {
	scale          float64
	warm, measured uint64
}

var paperFigs = figsDef{scale: 0.05, warm: 2_000, measured: 3_000}

func (d figsDef) suite(size float64) *experiment.Suite {
	s := experiment.NewSuite(d.scale, scaled(d.warm, size, 100), scaled(d.measured, size, 100))
	s.Parallelism = parallelism
	s.Quiet = true
	return s
}

func (d figsDef) pass(env *passEnv) {
	s := d.suite(env.size)
	env.setupDone()
	passID, endPass := env.tr.start("pass", 0, "")
	t0 := time.Now()
	var tables [][]byte
	for _, fig := range []struct {
		name string
		run  func() []*experiment.Table
	}{{"fig6", s.Fig6}, {"fig7", s.Fig7}} {
		start := time.Now()
		_, end := env.tr.start("experiment."+fig.name, passID, "")
		var out []*experiment.Table
		err := guard(func() { out = fig.run() })
		end()
		env.out.Metrics["experiment."+fig.name+"_s"] = time.Since(start).Seconds()
		env.op(err)
		for _, t := range out {
			tables = append(tables, []byte(t.String()))
		}
	}
	endPass()
	env.finish(time.Since(t0))
	env.out.Digests["figs"] = digest(tables)
}

// figsFeatured are Fig. 6's two featured checkpoints (astar-like and
// milc-like); they stand for the figures' cells in the probes.
var figsFeatured = []string{"chains", "fpstream"}

func (d figsDef) inputs(_ int64, size float64) (*probeInputs, error) {
	warm, measured := scaled(d.warm, size, 100), scaled(d.measured, size, 100)
	in := &probeInputs{}
	for _, wl := range workload.All() {
		wl := wl
		in.builds = append(in.builds, func() *prog.Program { return wl.Build(d.scale) })
	}
	kernels := ltp.SweepAxis{Name: "kernel"}
	for _, k := range figsFeatured {
		k := k
		in.cells = append(in.cells, ltp.RunSpec{Workload: k, Scale: d.scale, WarmInsts: warm, MaxInsts: measured})
		kernels.Points = append(kernels.Points, ltp.SweepPoint{Name: k, Patch: ltp.RunPatch{Workload: &k}})
	}
	in.sweep = ltp.SweepSpec{
		Base: ltp.RunSpec{Scale: d.scale, WarmInsts: warm, MaxInsts: measured, Backend: ltp.BackendModel},
		Axes: []ltp.SweepAxis{kernels, iqAxis(16, 32, 64, 128), ltpAxis()},
	}
	return in, nil
}

// --- sweeps ---

// sweepDef is a Submit-driven sizing sweep run tier by tier on one
// Engine: scenarios × axes, each tier a sweep of its own.
type sweepDef struct {
	scenarios      []string
	scale          float64
	warm, measured uint64
	intervals      int // sampled-tier K
	tiers          []string
	axes           []ltp.SweepAxis
}

var sweepWarm = sweepDef{
	scenarios: []string{"hashjoin", "ptrchase"},
	scale:     0.5,
	warm:      1_200_000,
	measured:  40_000,
	tiers:     []string{ltp.BackendCycle, ltp.BackendModel},
	axes:      []ltp.SweepAxis{iqAxis(16, 24, 32, 40, 48, 56, 64, 80), robAxis(128, 192), ltpAxis()},
}

var sweepLong = sweepDef{
	scenarios: []string{"hashjoin", "branchy"},
	scale:     0.5,
	warm:      50_000,
	measured:  1_000_000,
	intervals: 16,
	tiers:     []string{ltp.BackendCycle, ltp.BackendSampled, ltp.BackendModel},
	axes:      []ltp.SweepAxis{iqAxis(32, 64), ltpAxis(), bpredAxis("gshare", "tage")},
}

func iqAxis(vals ...int) ltp.SweepAxis {
	ax := ltp.SweepAxis{Name: "iq"}
	for _, v := range vals {
		v := v
		ax.Points = append(ax.Points, ltp.SweepPoint{Name: fmt.Sprintf("iq%d", v), Patch: ltp.RunPatch{IQSize: &v}})
	}
	return ax
}

func robAxis(vals ...int) ltp.SweepAxis {
	ax := ltp.SweepAxis{Name: "rob"}
	for _, v := range vals {
		v := v
		ax.Points = append(ax.Points, ltp.SweepPoint{Name: fmt.Sprintf("rob%d", v), Patch: ltp.RunPatch{ROBSize: &v}})
	}
	return ax
}

func ltpAxis() ltp.SweepAxis {
	off, on := false, true
	return ltp.SweepAxis{Name: "ltp", Points: []ltp.SweepPoint{
		{Name: "noltp", Patch: ltp.RunPatch{UseLTP: &off}},
		{Name: "ltp", Patch: ltp.RunPatch{UseLTP: &on}},
	}}
}

func bpredAxis(names ...string) ltp.SweepAxis {
	ax := ltp.SweepAxis{Name: "bpred"}
	for _, n := range names {
		n := n
		ax.Points = append(ax.Points, ltp.SweepPoint{Name: n, Patch: ltp.RunPatch{BranchPred: &n}})
	}
	return ax
}

// spec returns the sweep of one tier; the scenario axis comes first so
// a cell's first coordinate names its scenario.
func (d sweepDef) spec(tier string, seed int64, size float64) ltp.SweepSpec {
	seeds := scenarioSeeds(seed, d.scenarios)
	scn := ltp.SweepAxis{Name: "scenario"}
	for _, name := range d.scenarios {
		name, s := name, seeds[name]
		scn.Points = append(scn.Points, ltp.SweepPoint{Name: name, Patch: ltp.RunPatch{Scenario: &name, Seed: &s}})
	}
	base := ltp.RunSpec{
		Scale:     d.scale,
		WarmInsts: scaled(d.warm, size, 1_000),
		MaxInsts:  scaled(d.measured, size, 1_000),
		Backend:   tier,
	}
	if tier == ltp.BackendSampled {
		base.Intervals = d.intervals
	}
	return ltp.SweepSpec{Base: base, Axes: append([]ltp.SweepAxis{scn}, d.axes...)}
}

func (d sweepDef) pass(env *passEnv) {
	eng, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: parallelism})
	if err != nil {
		env.op(err)
		return
	}
	defer eng.Close()
	specs := make([]ltp.SweepSpec, len(d.tiers))
	for i, tier := range d.tiers {
		specs[i] = d.spec(tier, env.seed, env.size)
	}
	env.setupDone()

	passID, endPass := env.tr.start("pass", 0, "")
	t0 := time.Now()
	cells := make(map[string][]ltp.CellResult, len(d.tiers))
	for i, tier := range d.tiers {
		cells[tier] = submitSweep(env, eng, specs[i], tier, passID)
	}
	endPass()
	env.finish(time.Since(t0))

	d.check(env, cells)
}

// submitSweep runs one tier's sweep to completion, recording each
// cell's arrival, and returns the cells in enumeration order.
func submitSweep(env *passEnv, eng *ltp.Engine, spec ltp.SweepSpec, tier string, parent int64) []ltp.CellResult {
	start := time.Now()
	tierID, endTier := env.tr.start("engine.submit."+tier, parent, "")
	defer func() {
		endTier()
		env.out.Metrics[tier+"_s"] = time.Since(start).Seconds()
	}()
	job, err := eng.Submit(env.ctx, spec)
	if err != nil {
		env.op(fmt.Errorf("%s sweep: %w", tier, err))
		return nil
	}
	out := make([]ltp.CellResult, job.TotalRuns())
	for c := range job.Cells() {
		env.tr.record("engine.cell."+tier, tierID, fmt.Sprintf("%s/%d", tier, c.Index), start, time.Now())
		out[c.Index] = c
		var cerr error
		if c.Err != nil {
			cerr = fmt.Errorf("%s cell %v: %w", tier, c.Coords, c.Err)
		}
		env.op(cerr)
	}
	if _, err := job.Wait(); err != nil && env.out.Failed == 0 {
		env.fail(fmt.Errorf("%s sweep: %w", tier, err))
	}
	return out
}

// check scores the fast tiers against the cycle tier, digests the exact
// tiers, and re-runs the first cycle cell outside the Engine to confirm
// the cached path returns the bytes a direct run produces.
func (d sweepDef) check(env *passEnv, cells map[string][]ltp.CellResult) {
	ref := cells[ltp.BackendCycle]
	for _, tier := range d.tiers {
		got := cells[tier]
		if len(ref) == 0 || len(got) != len(ref) {
			return // a failed submission is already counted
		}
		switch tier {
		case ltp.BackendCycle:
			digestTier(env, tier, got)
		case ltp.BackendSampled:
			digestTier(env, tier, got)
			env.out.Metrics["sampled_cpi_err_pct"] = cpiErrPct(ref, got)
			miss := 0
			for i := range ref {
				s := got[i].Result.Sampling
				if s == nil {
					env.fail(fmt.Errorf("sampled cell %v has no sampling statistics", got[i].Coords))
					continue
				}
				if c := ref[i].Result.CPI; c < s.CPI.Mean-s.CPI.CI95 || c > s.CPI.Mean+s.CPI.CI95 {
					miss++
				}
			}
			env.out.Metrics["sampled_ci_miss"] = float64(miss)
		case ltp.BackendModel:
			env.out.Metrics["model_cpi_err_pct"] = cpiErrPct(ref, got)
			rc := make([]rankCell, len(ref))
			for i := range ref {
				rc[i] = rankCell{group: ref[i].Coords[0], ref: ref[i].Result.CPI, est: got[i].Result.CPI}
			}
			env.out.Metrics["model_rank_inversions"] = float64(inversions(rc))
		}
	}

	runs, err := d.spec(ltp.BackendCycle, env.seed, env.size).Runs()
	if err != nil {
		env.fail(err)
		return
	}
	direct, err := ltp.RunContext(env.ctx, runs[0].Spec)
	if err != nil {
		env.fail(fmt.Errorf("direct re-run of cell %v: %w", runs[0].Coords, err))
		return
	}
	a, err := json.Marshal(direct)
	if err != nil {
		env.fail(err)
		return
	}
	b, err := json.Marshal(ref[0].Result)
	if err != nil {
		env.fail(err)
		return
	}
	if string(a) != string(b) {
		env.fail(fmt.Errorf("cell %v: engine result differs from a direct run", runs[0].Coords))
	}
}

// digestTier records the digest of a tier's results in enumeration order.
func digestTier(env *passEnv, tier string, cells []ltp.CellResult) {
	parts := make([][]byte, len(cells))
	for i, c := range cells {
		b, err := json.Marshal(c.Result)
		if err != nil {
			env.fail(fmt.Errorf("%s cell %v: %w", tier, c.Coords, err))
			return
		}
		parts[i] = b
	}
	env.out.Digests[tier] = digest(parts)
}

func (d sweepDef) inputs(seed int64, size float64) (*probeInputs, error) {
	seeds := scenarioSeeds(seed, d.scenarios)
	in := &probeInputs{sweep: d.spec(ltp.BackendModel, seed, size)}
	for _, name := range d.scenarios {
		fam, err := workload.FamilyByName(name)
		if err != nil {
			return nil, err
		}
		s := seeds[name]
		in.builds = append(in.builds, func() *prog.Program { return fam.Build(nil, d.scale, s) })
		in.cells = append(in.cells, ltp.RunSpec{
			Scenario: name, Seed: s, Scale: d.scale,
			WarmInsts: scaled(d.warm, size, 1_000), MaxInsts: scaled(d.measured, size, 1_000),
		})
	}
	return in, nil
}

// cpiErrPct is the mean relative CPI error of est against ref, in
// percent.
func cpiErrPct(ref, est []ltp.CellResult) float64 {
	var sum float64
	for i := range ref {
		sum += math.Abs(est[i].Result.CPI-ref[i].Result.CPI) / ref[i].Result.CPI
	}
	return 100 * sum / float64(len(ref))
}
