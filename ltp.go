// Package ltp is the public API of the Long Term Parking reproduction: a
// cycle-level out-of-order processor simulator (internal/pipeline +
// internal/mem) with the paper's criticality-aware resource allocation
// mechanism (internal/core) attached, a workload suite standing in for
// SPEC CPU2006 (internal/workload), and an energy model (internal/energy).
//
// Quick start (the v2 API is context-first; a cancelled context aborts
// the simulation mid-pipeline within about a millisecond):
//
//	res, err := ltp.RunContext(ctx, ltp.RunSpec{
//		Workload: "indirect",
//		MaxInsts: 200_000,
//		UseLTP:   true,
//	})
//
// Campaigns are sweeps — a base spec crossed with declarative axes —
// submitted asynchronously with streaming per-cell results:
//
//	eng, err := ltp.NewEngine(ltp.EngineConfig{})
//	defer eng.Close()
//	job, err := eng.Submit(ctx, sweep)
//	for cell := range job.Cells() { ... }
//	res, err := job.Wait()             // job.Cancel() aborts the rest
//
// See DESIGN.md for the system inventory (§9: cancellation, priority
// tiers, sweep design) and EXPERIMENTS.md for the paper-versus-
// measured record of every figure and table.
package ltp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"ltp/internal/bpred"
	"ltp/internal/core"
	"ltp/internal/energy"
	"ltp/internal/isa"
	"ltp/internal/mem"
	_ "ltp/internal/model" // registers the "model" interval backend
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sim"
	"ltp/internal/trace"
	"ltp/internal/workload"
)

// Inf marks an effectively unlimited structure size in sweeps.
const Inf = pipeline.Inf

// Mode re-exports the LTP parking-class selection.
type Mode = core.Mode

// Parking modes.
const (
	ModeOff  = core.ModeOff
	ModeNU   = core.ModeNU
	ModeNR   = core.ModeNR
	ModeNRNU = core.ModeNRNU
)

// WarmMode selects how the warm-up region (WarmInsts) is executed before
// detailed simulation.
type WarmMode uint8

const (
	// WarmFast (the default) replays the warm-up region through the
	// functional emulator only, touching the caches, branch predictor and
	// LTP classification tables along the way. It runs at emulation speed
	// — orders of magnitude faster than the pipeline — and reaches the
	// measured region with the same architectural state and warmed
	// microarchitectural tables, so measured-region CPI matches detailed
	// warming within a small tolerance (see TestWarmupEquivalence).
	WarmFast WarmMode = iota
	// WarmDetailed runs the warm-up region through the full out-of-order
	// pipeline and resets all statistics at the boundary. It is the
	// reference warm-up: slow, but byte-for-byte the machine state a
	// single long detailed run would have.
	WarmDetailed
)

var warmModeNames = map[WarmMode]string{WarmFast: "fast", WarmDetailed: "detailed"}

// String returns the mode name ("fast", "detailed").
func (m WarmMode) String() string { return warmModeNames[m] }

// ParseWarmMode converts a flag value into a WarmMode.
func ParseWarmMode(s string) (WarmMode, error) {
	switch s {
	case "fast", "":
		return WarmFast, nil
	case "detailed", "full":
		return WarmDetailed, nil
	}
	return WarmFast, fmt.Errorf("unknown warm mode %q (want fast or detailed)", s)
}

// Execution backend names (RunSpec.Backend). Backends lists the full
// registry with fidelities.
const (
	// BackendCycle is the cycle-accurate reference pipeline (the
	// default).
	BackendCycle = "cycle"
	// BackendModel is the fast interval-style analytical model: CPI
	// and the derived metrics are first-order estimates, orders of
	// magnitude cheaper than detailed simulation and calibrated
	// against it (internal/model) — for ranking and sweep triage, not
	// absolute numbers.
	BackendModel = "model"
	// BackendSampled is the interval-sampling tier between model and
	// cycle: the run is functionally warmed end to end, K checkpointed
	// measurement windows are simulated cycle-accurately (concurrently,
	// when an engine pool is available), and their CPIs are stitched
	// into a whole-run estimate with a sampling confidence interval
	// (RunResult.Sampling). RunSpec.Intervals selects K.
	BackendSampled = "sampled"
)

// Sampled-backend interval bounds (RunSpec.Intervals).
const (
	// DefaultSampledIntervals is the interval count K a sampled run
	// uses when RunSpec.Intervals is unset.
	DefaultSampledIntervals = 8
	// MaxSampledIntervals caps K: beyond this the per-interval samples
	// are too short to ride out checkpoint-restore transients.
	MaxSampledIntervals = 64
)

// sampledIntervals resolves the interval count K for a sampled-backend
// run: default when unset, clamped to [1, MaxSampledIntervals] and to
// at most one interval per measured instruction. Canonical applies it,
// so the hash always names the K that executes.
func sampledIntervals(k int, maxInsts uint64) int {
	if k <= 0 {
		k = DefaultSampledIntervals
	}
	if k > MaxSampledIntervals {
		k = MaxSampledIntervals
	}
	if maxInsts > 0 && uint64(k) > maxInsts {
		k = int(maxInsts)
	}
	if k < 1 {
		k = 1
	}
	return k
}

// BackendInfo describes one registered execution backend.
type BackendInfo struct {
	// Name is the RunSpec.Backend value selecting it.
	Name string `json:"name"`
	// Fidelity grades its timing faithfulness ("cycle-accurate",
	// "estimate").
	Fidelity string `json:"fidelity"`
	// About is a one-line description.
	About string `json:"about"`
}

// specBackendName resolves a spec's backend selection to its registry
// name ("cycle" for the default). Unknown names come back verbatim —
// validation happens in Canonical, not here.
func specBackendName(s RunSpec) string {
	b, err := sim.Lookup(s.Backend)
	if err != nil {
		return s.Backend
	}
	return b.Name()
}

// specCycleFidelity reports whether the spec executes at cycle
// fidelity (unknown backends count as cycle; Canonical rejects them
// before anything depends on the answer).
func specCycleFidelity(s RunSpec) bool {
	b, err := sim.Lookup(s.Backend)
	if err != nil {
		return true
	}
	return b.Fidelity() == sim.FidelityCycle
}

// Backends returns the registered execution backends, sorted by name.
func Backends() []BackendInfo {
	var out []BackendInfo
	for _, name := range sim.Names() {
		b, err := sim.Lookup(name)
		if err != nil {
			continue
		}
		info := BackendInfo{Name: name, Fidelity: b.Fidelity().String()}
		if a, ok := b.(interface{ About() string }); ok {
			info.About = a.About()
		}
		out = append(out, info)
	}
	return out
}

// Co-runner bounds and defaults.
const (
	// MaxCorunners bounds how many co-runner streams one run may
	// attach (each adds a private L1 and a replayed traffic stream).
	MaxCorunners = 4
	// DefaultCorunnerAccesses is the captured traffic-pattern length
	// when Corunner.Accesses is unset.
	DefaultCorunnerAccesses = 1 << 16
	// DefaultCorunnerIntensity re-exports the replay rate used when
	// Corunner.Intensity is unset (accesses per 1024 cycles).
	DefaultCorunnerIntensity = mem.DefaultCorunnerIntensity

	// maxCorunnerIntensity is four accesses per cycle.
	maxCorunnerIntensity = 4096
	// maxCorunnerAccesses bounds the captured pattern a run holds in
	// memory per co-runner.
	maxCorunnerAccesses = 1 << 20
)

// Corunner describes one co-running workload stream contending with
// the primary core for the shared cache levels and DRAM (the SMT-style
// multi-program scenario subsystem). The co-runner's memory traffic is
// captured functionally from its scenario program once, then replayed
// cyclically through a private L1 into the shared hierarchy at the
// configured intensity — deterministic, hashable, and cheap (no second
// pipeline). Its address space is offset so it never aliases the
// primary workload's working set.
type Corunner struct {
	// Scenario names the workload family generating the stream
	// (required; Scenarios lists the families).
	Scenario string
	// Knobs overrides the family defaults (nil = defaults).
	Knobs *workload.Knobs
	// Seed varies the family's data layouts.
	Seed int64
	// Intensity is the replay rate in accesses per 1024 cycles
	// (0 = DefaultCorunnerIntensity; 1024 = one access per cycle; at
	// most 4096).
	Intensity int
	// Accesses is the captured pattern length (0 =
	// DefaultCorunnerAccesses; at most 1<<20).
	Accesses int
}

// RunSpec describes one simulation.
type RunSpec struct {
	// Workload names a kernel from the registry (Workloads lists them),
	// or use Program to supply one directly.
	Workload string
	// Program, when non-nil, overrides Workload.
	Program *prog.Program
	// Scenario names a parameterized scenario family (Scenarios lists
	// them); the program is generated from Knobs, Seed and Scale. It is
	// used when Program is nil and Workload is empty.
	Scenario string
	// Knobs overrides the scenario family's default parameters (nil =
	// family defaults; zero fields fall back individually).
	Knobs *workload.Knobs
	// Seed selects the scenario's data layouts and constants. Equal
	// (Scenario, Knobs, Scale, Seed) always simulate identically;
	// campaign replication varies Seed.
	Seed int64
	// Scale shrinks workload working sets for quick runs (default 1.0).
	Scale float64

	// ReplayFrom, when non-nil, feeds the pipeline from a recorded
	// binary trace (see internal/trace) instead of building and
	// emulating a program; Workload/Program/Scenario are ignored. A
	// replayed run with the same budgets as its recording run
	// reproduces that run's statistics bit-identically.
	ReplayFrom io.Reader
	// RecordTo, when non-nil, captures the run's full µop stream
	// (warm-up, measured region and pipeline fetch-ahead) as a binary
	// trace while the run executes, without perturbing its statistics.
	RecordTo io.Writer

	// WarmInsts executes this many instructions as warm-up before the
	// detailed, measured region (the paper warms for 250 M; scale to your
	// budget). WarmMode selects how the warm-up runs.
	WarmInsts uint64
	// WarmMode selects the warm-up execution path (default WarmFast).
	WarmMode WarmMode
	// MaxInsts bounds detailed simulation (committed instructions).
	MaxInsts uint64
	// MaxCycles is a safety cap (0 = none).
	MaxCycles uint64

	// Pipeline configures the core; zero value = Table 1 baseline.
	Pipeline *pipeline.Config

	// BranchPred selects the branch predictor from the internal/bpred
	// registry ("gshare", "tage"; "" = whatever Pipeline says, gshare
	// by default). A non-empty value overrides Pipeline.BranchPred —
	// it is the sweepable spelling of the same axis.
	BranchPred string
	// Prefetcher selects the L2 prefetch engine from the internal/mem
	// registry ("none", "nextline", "stride", "stream"; "" = whatever
	// the Pipeline's hierarchy says). A non-empty value overrides
	// Pipeline.Hier.Prefetcher.
	Prefetcher string
	// Corunners attaches co-running workload streams contending for
	// the shared cache levels and DRAM (at most MaxCorunners). Empty
	// means a solo run. Cycle and sampled backends only: the model has
	// no MSHR or DRAM timing for their traffic.
	Corunners []Corunner

	// UseLTP attaches the parking unit.
	UseLTP bool
	// LTP configures it; zero value = the paper's realistic design
	// (NU-only, 128 entries, 4 ports, 256-entry UIT).
	LTP *core.Config
	// Oracle enables the limit study's perfect classification (builds a
	// trace pre-pass covering warm-up + detailed budget). Cycle
	// backend only.
	Oracle bool

	// Backend selects the execution backend: BackendCycle (the
	// default) for the cycle-accurate pipeline, BackendModel for the
	// fast interval-style analytical estimate, BackendSampled for
	// checkpointed interval sampling. The backend is part of the run's
	// identity — results of different fidelities hash (and therefore
	// cache) separately.
	Backend string
	// Intervals is the sampled backend's interval count K (default
	// DefaultSampledIntervals, capped at MaxSampledIntervals). Other
	// backends ignore it, and it is zeroed out of their canonical
	// forms, so varying K never perturbs a cycle or model cell's hash.
	Intervals int
}

// Canonical returns the spec in normal form: every defaulted field
// made explicit (Scale, MaxInsts, Pipeline, LTP) and every ignored
// field zeroed (Scenario/Knobs/Seed under a Workload; LTP/Oracle
// without UseLTP; WarmMode without WarmInsts), with scenario knobs
// resolved against the family defaults. Two specs that simulate
// identically canonicalize identically, which is what makes Hash a
// usable content address for the result cache.
//
// Canonical errors when the spec has no normal form: a caller-supplied
// Program, a ReplayFrom/RecordTo stream, or a prebuilt LTP.Oracle
// (their identity lives outside the spec). Such runs still execute
// through RunContext; they just cannot be cached. It also errors on a
// configuration no tier can build: a pipeline, cache, DRAM, UIT or
// criticality-table geometry the constructors refuse.
func (s RunSpec) Canonical() (RunSpec, error) {
	switch {
	case s.Program != nil:
		return RunSpec{}, fmt.Errorf("ltp: spec with an explicit Program has no canonical form")
	case s.ReplayFrom != nil || s.RecordTo != nil:
		return RunSpec{}, fmt.Errorf("ltp: spec with trace streams has no canonical form")
	}
	return s.canonical(false)
}

// canonical normalizes a spec whose trace streams and prebuilt oracle
// are already set aside. With sourced set, the µop source is supplied
// beside the spec (an explicit Program or a trace replay), so the
// workload and scenario fields are ignored and zeroed.
func (s RunSpec) canonical(sourced bool) (RunSpec, error) {
	backend, err := sim.Lookup(s.Backend)
	if err != nil {
		return RunSpec{}, err
	}
	// The default backend is made explicit so two spellings of the same
	// run hash identically, and so the hash can never alias across
	// fidelities.
	s.Backend = backend.Name()

	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if !(s.Scale > 0 && s.Scale <= 1) { // NaN fails both
		return RunSpec{}, fmt.Errorf("ltp: scale %g out of range (0, 1]", s.Scale)
	}
	if s.MaxInsts == 0 {
		s.MaxInsts = 1_000_000
	}
	switch {
	case sourced:
		s.Workload, s.Scenario, s.Knobs, s.Seed = "", "", nil, 0
	case s.Workload != "":
		if _, err := workload.ByName(s.Workload); err != nil {
			return RunSpec{}, err
		}
		// Run ignores the scenario fields when a kernel is named.
		s.Scenario, s.Knobs, s.Seed = "", nil, 0
	case s.Scenario != "":
		fam, err := workload.FamilyByName(s.Scenario)
		if err != nil {
			return RunSpec{}, err
		}
		knobs := fam.Resolve(s.Knobs)
		// Resolved entropy 0 must be spelled with the negative
		// sentinel: a literal 0 would re-merge to the family default
		// on the next resolution, so the canonical form would not be
		// a fixed point (running or re-hashing it would silently
		// select a different program).
		if knobs.BranchEntropy == 0 {
			knobs.BranchEntropy = -1
		}
		s.Knobs = &knobs
	default:
		return RunSpec{}, fmt.Errorf("ltp: RunSpec names no workload or scenario")
	}
	if s.WarmInsts == 0 {
		s.WarmMode = WarmFast // no warm region: the mode cannot matter
	}
	if backend.Fidelity() != sim.FidelityCycle {
		// An analytical backend has exactly one (functional) warm-up
		// path, so the mode cannot perturb the result — or the hash.
		s.WarmMode = WarmFast
	}
	if backend.Name() == BackendSampled {
		s.Intervals = sampledIntervals(s.Intervals, s.MaxInsts)
	} else {
		// Only the sampled backend reads K; zeroing it here is what
		// keeps a cycle cell's hash invariant under Intervals noise.
		s.Intervals = 0
	}

	pcfg := pipeline.DefaultConfig()
	if s.Pipeline != nil {
		pcfg = *s.Pipeline
	}
	// The predictor and prefetcher axes fold into the pipeline
	// configuration and are spelled there explicitly — one canonical
	// representation, whichever way the caller selected them.
	if s.BranchPred != "" {
		pcfg.BranchPred = s.BranchPred
	}
	bpName, err := bpred.Lookup(pcfg.BranchPred)
	if err != nil {
		return RunSpec{}, err
	}
	pcfg.BranchPred = bpName
	s.BranchPred = ""
	if s.Prefetcher != "" {
		pcfg.Hier.Prefetcher = s.Prefetcher
	}
	pname := pcfg.Hier.PrefetcherName()
	if err := mem.CheckPrefetcher(pname, pcfg.Hier.PrefetchTable); err != nil {
		return RunSpec{}, err
	}
	pcfg.Hier.Prefetcher = pname
	if pname == "none" {
		// A disabled prefetcher has no degree or table.
		pcfg.Hier.PrefetchDegree, pcfg.Hier.PrefetchTable = 0, 0
	} else {
		if pcfg.Hier.PrefetchDegree <= 0 {
			pcfg.Hier.PrefetchDegree = 4
		}
		if pcfg.Hier.PrefetchTable == 0 {
			pcfg.Hier.PrefetchTable = 256
		}
	}
	s.Prefetcher = ""
	// The design space of the paper's sweeps: sizes up to the limit
	// study's "unlimited", never below a few entries.
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"IQ", pcfg.IQSize, 4}, {"ROB", pcfg.ROBSize, 16},
		{"LQ", pcfg.LQSize, 4}, {"SQ", pcfg.SQSize, 4},
		{"integer register", pcfg.IntRegs, 8}, {"FP register", pcfg.FPRegs, 8},
	} {
		if f.v < f.min || f.v > pipeline.Inf {
			return RunSpec{}, fmt.Errorf("ltp: %s size %d out of range [%d, %d]", f.name, f.v, f.min, pipeline.Inf)
		}
	}
	// Geometry a constructor would refuse is an error here, before any
	// tier builds the machine.
	if err := pcfg.Validate(); err != nil {
		return RunSpec{}, err
	}
	s.Pipeline = &pcfg

	cors, err := canonicalCorunners(s.Corunners)
	if err != nil {
		return RunSpec{}, err
	}
	s.Corunners = cors

	if s.UseLTP {
		lcfg := core.DefaultConfig()
		if s.LTP != nil {
			lcfg = *s.LTP
		}
		if lcfg.Oracle != nil {
			return RunSpec{}, fmt.Errorf("ltp: spec with a prebuilt oracle has no canonical form (set RunSpec.Oracle instead)")
		}
		if lcfg.Ident.String() == "" {
			return RunSpec{}, fmt.Errorf("ltp: unknown LTP identification policy %d", lcfg.Ident)
		}
		if err := lcfg.Validate(); err != nil {
			return RunSpec{}, err
		}
		// Non-Urgent instructions that leave the LTP need a free IQ
		// slot; without a reserved one the IQ can fill with urgent
		// instructions waiting on parked producers, and the core wedges.
		if lcfg.Mode.ParksNU() && pcfg.ParkReserveIQ < 1 {
			return RunSpec{}, fmt.Errorf("ltp: Non-Urgent parking (mode %s) needs ParkReserveIQ >= 1, or the IQ can wedge with parked producers", lcfg.Mode)
		}
		s.LTP = &lcfg
	} else {
		// Run never reads these without UseLTP.
		s.LTP, s.Oracle = nil, false
	}
	if s.Oracle && backend.Fidelity() != sim.FidelityCycle {
		return RunSpec{}, fmt.Errorf("ltp: oracle classification requires the cycle backend, not %q", s.Backend)
	}
	// The model has no MSHR or DRAM timing for co-runner traffic, so its
	// estimate under contention would be far off and say nothing of it.
	if len(s.Corunners) > 0 && backend.Fidelity() == sim.FidelityEstimate {
		return RunSpec{}, fmt.Errorf("ltp: co-runner contention requires the cycle or sampled backend, not %q", s.Backend)
	}
	return s, nil
}

// runSpecHashVersion is bumped whenever the canonical serialization
// changes meaning, so stale cache keys can never alias new ones
// ("rs2": the execution backend joined the canonical form; "rs3": the
// branch predictor, prefetcher and co-runner axes joined it, and the
// predictor/prefetcher selections canonicalize to explicit names).
const runSpecHashVersion = "rs3"

// Hash returns a stable content address for the run: the SHA-256 of
// the canonical spec's deterministic serialization, prefixed with a
// format version ("rs1:<hex>"). Equal hashes mean the runs simulate
// identically (same workload bytes, budgets, configuration and seed),
// so a cached RunResult can be shared; field order, nil-versus-default
// pointers, and zero-versus-explicit defaults do not perturb it. Specs
// without a canonical form return Canonical's error.
func (s RunSpec) Hash() (string, error) {
	a := admit(s)
	return a.hash, a.err
}

// admission is one run as it travels from admission to the result
// cache: its canonical spec and content address, or the error that
// refused it (spec and hash then zero).
type admission struct {
	spec RunSpec
	hash string
	err  error
}

// admit canonicalizes and hashes spec, the one pass a run gets:
// SweepSpec.Canonical and the engine's public entry points admit, and
// every later layer reads the admission.
func admit(spec RunSpec) admission {
	canon, err := spec.Canonical()
	var h string
	if err == nil {
		h, err = hashJSON(runSpecHashVersion, canon)
	}
	if err != nil {
		return admission{err: err}
	}
	return admission{spec: canon, hash: h}
}

// hashJSON content-addresses v via deterministic JSON (struct fields
// marshal in declaration order; map keys sort).
func hashJSON(version string, v interface{}) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", fmt.Errorf("ltp: hashing spec: %w", err)
	}
	return version + ":" + hex.EncodeToString(h.Sum(nil)), nil
}

// LTPStats summarizes the parking unit's behaviour for one run (Fig. 7).
// It is the backend-layer type (internal/sim), re-exported so existing
// callers keep compiling.
type LTPStats = sim.LTPStats

// SamplingStats describes the estimate quality of an interval-sampled
// run: K, the instructions actually cycle-simulated, and the
// per-interval CPI summary whose CI95 bounds the whole-run estimate.
// It is the backend-layer type (internal/sim), re-exported.
type SamplingStats = sim.SamplingStats

// RunResult bundles the pipeline metrics, LTP statistics and modelled
// energy for one run.
type RunResult struct {
	pipeline.Result
	// LTP holds the parking unit's statistics (nil without UseLTP).
	LTP *LTPStats
	// Energy is the modelled IQ/RF/LTP energy for the run.
	Energy energy.Breakdown

	// Design echoes the sized structures for relative-energy math.
	Design energy.Design

	// Sampling holds the interval-sampling quality metrics (nil unless
	// BackendSampled produced the result).
	Sampling *SamplingStats
}

// canonicalCorunners validates and normalizes the co-runner list:
// scenario families must exist, knobs resolve against the family
// defaults (with the entropy-zero sentinel, as the primary scenario's
// canonicalization does), and the intensity and pattern-length
// defaults are made explicit. An empty list normalizes to nil.
func canonicalCorunners(cors []Corunner) ([]Corunner, error) {
	if len(cors) == 0 {
		return nil, nil
	}
	if len(cors) > MaxCorunners {
		return nil, fmt.Errorf("ltp: %d co-runners exceeds the limit of %d", len(cors), MaxCorunners)
	}
	out := make([]Corunner, len(cors))
	for i, c := range cors {
		if c.Scenario == "" {
			return nil, fmt.Errorf("ltp: co-runner %d names no scenario family", i)
		}
		fam, err := workload.FamilyByName(c.Scenario)
		if err != nil {
			return nil, fmt.Errorf("ltp: co-runner %d: %w", i, err)
		}
		if c.Intensity < 0 || c.Intensity > maxCorunnerIntensity {
			return nil, fmt.Errorf("ltp: co-runner %d intensity %d out of range [0, %d]", i, c.Intensity, maxCorunnerIntensity)
		}
		if c.Accesses < 0 || c.Accesses > maxCorunnerAccesses {
			return nil, fmt.Errorf("ltp: co-runner %d accesses %d out of range [0, %d]", i, c.Accesses, maxCorunnerAccesses)
		}
		knobs := fam.Resolve(c.Knobs)
		if knobs.BranchEntropy == 0 {
			knobs.BranchEntropy = -1 // see RunSpec.Canonical's sentinel note
		}
		c.Knobs = &knobs
		if c.Intensity == 0 {
			c.Intensity = DefaultCorunnerIntensity
		}
		if c.Accesses == 0 {
			c.Accesses = DefaultCorunnerAccesses
		}
		out[i] = c
	}
	return out, nil
}

// captureTraffic runs the program functionally and captures its first
// `accesses` memory accesses as an immutable traffic pattern, with
// every address offset into the co-runner's private region. instCap
// bounds the emulated instructions so a memory-free program cannot
// spin forever.
func captureTraffic(p *prog.Program, accesses int, offset uint64) (*mem.TrafficPattern, error) {
	e := prog.NewEmulator(p)
	t := &mem.TrafficPattern{
		PC:    make([]uint64, 0, accesses),
		Addr:  make([]uint64, 0, accesses),
		Store: make([]bool, 0, accesses),
	}
	instCap := uint64(accesses) * 128
	var u isa.Uop
	for insts := uint64(0); len(t.Addr) < accesses && insts < instCap; insts++ {
		if !e.Next(&u) {
			break
		}
		if u.IsMem() {
			t.PC = append(t.PC, u.PC)
			t.Addr = append(t.Addr, u.Addr+offset)
			t.Store = append(t.Store, u.Op == isa.Store)
		}
	}
	if len(t.Addr) == 0 {
		return nil, fmt.Errorf("ltp: co-runner program %q performs no memory accesses", p.Name)
	}
	return t, nil
}

// buildCorunners resolves the co-runner specs into attachable traffic
// streams: each family program is generated at the run's scale and
// captured functionally, its addresses offset by a per-co-runner
// constant so streams alias neither the primary workload nor each
// other.
func buildCorunners(cors []Corunner, scale float64) ([]mem.CorunnerConfig, error) {
	norm, err := canonicalCorunners(cors)
	if err != nil || len(norm) == 0 {
		return nil, err
	}
	out := make([]mem.CorunnerConfig, len(norm))
	for i, c := range norm {
		fam, err := workload.FamilyByName(c.Scenario)
		if err != nil {
			return nil, fmt.Errorf("ltp: co-runner %d: %w", i, err)
		}
		program := fam.Build(c.Knobs, scale, c.Seed)
		pattern, err := captureTraffic(program, c.Accesses, (uint64(i)+1)<<40)
		if err != nil {
			return nil, err
		}
		out[i] = mem.CorunnerConfig{Pattern: pattern, Intensity: c.Intensity}
	}
	return out, nil
}

// buildProgram builds the program the spec's workload or scenario
// names.
func buildProgram(spec RunSpec) (*prog.Program, error) {
	switch {
	case spec.Workload != "":
		wl, err := workload.ByName(spec.Workload)
		if err != nil {
			return nil, err
		}
		return wl.Build(spec.Scale), nil
	case spec.Scenario != "":
		fam, err := workload.FamilyByName(spec.Scenario)
		if err != nil {
			return nil, err
		}
		return fam.Build(spec.Knobs, spec.Scale, spec.Seed), nil
	}
	return nil, fmt.Errorf("ltp: RunSpec names no workload, scenario, program or trace")
}

// Workloads returns the kernel registry.
func Workloads() []workload.Spec { return workload.All() }

// BranchPredictors returns the registered branch predictor names
// (RunSpec.BranchPred values), sorted.
func BranchPredictors() []string { return bpred.Names() }

// Prefetchers returns the registered prefetcher names
// (RunSpec.Prefetcher values; "none" disables prefetching), sorted.
func Prefetchers() []string { return mem.PrefetcherNames() }

// WorkloadByName fetches one kernel spec.
func WorkloadByName(name string) (workload.Spec, error) { return workload.ByName(name) }

// Scenarios returns the scenario-family registry.
func Scenarios() []workload.Family { return workload.Families() }

// ScenarioByName fetches one scenario family.
func ScenarioByName(name string) (workload.Family, error) { return workload.FamilyByName(name) }

// cancelErr normalizes a cancellation observed mid-run into the
// context's own error (the cancellation cause when one was supplied).
func cancelErr(ctx context.Context) error { return sim.CancelErr(ctx) }

// goExecutor is RunContext's executor: the calling goroutine and up to
// n-1 more drain the batch in order, so a sampled run's K intervals use
// the machine's cores.
type goExecutor int

func (x goExecutor) Parallelism() int { return int(x) }

func (x goExecutor) RunBatch(ctx context.Context, fns []func(context.Context)) {
	var next atomic.Int64
	drain := func() {
		for i := next.Add(1) - 1; i < int64(len(fns)); i = next.Add(1) - 1 {
			fns[i](ctx)
		}
	}
	var wg sync.WaitGroup
	for range min(int(x), len(fns)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// RunContext executes one simulation under ctx on the spec's execution
// backend (BackendCycle unless the spec says otherwise). Cancellation
// is honoured at every phase boundary and — cheaply, every couple of
// thousand cycles — inside the detailed simulation loop and the fast
// warm-up, so a multi-minute run aborts within about a millisecond of
// cancel. A cancelled run returns ctx's error (its cause, when one was
// set) and no result.
//
// A run is a batch of one: it resolves and executes exactly as one
// lane of an engine sweep does, so the two are byte-identical by
// construction. A sampled run's intervals run on up to GOMAXPROCS
// goroutines; results do not depend on how many.
func RunContext(ctx context.Context, spec RunSpec) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, cancelErr(ctx)
	}
	in, canon, err := runInputs(spec)
	if err != nil {
		return RunResult{}, err
	}
	results, errs := runLanes(ctx, goExecutor(runtime.GOMAXPROCS(0)), in, []RunSpec{canon})
	return results[0], errs[0]
}

// runInputs sets aside what a canonical spec cannot express — an
// explicit Program, a trace to replay or record, a prebuilt oracle —
// and returns the lane inputs carrying them along with the rest of the
// spec in canonical form.
func runInputs(spec RunSpec) (*laneInputs, RunSpec, error) {
	program, replay, record := spec.Program, spec.ReplayFrom, spec.RecordTo
	spec.Program, spec.ReplayFrom, spec.RecordTo = nil, nil, nil
	var oracle *core.Oracle
	if spec.UseLTP && spec.LTP != nil && spec.LTP.Oracle != nil {
		c := *spec.LTP
		oracle, c.Oracle = c.Oracle, nil
		spec.LTP, spec.Oracle = &c, false
	}
	sourced := program != nil || replay != nil
	canon, err := spec.canonical(sourced)
	if err != nil {
		return nil, RunSpec{}, err
	}
	// Oracle classification and trace capture are cycle-pipeline
	// concepts; an analytical backend would silently substitute its
	// own urgency heuristic for a prebuilt oracle.
	if !specCycleFidelity(canon) {
		switch {
		case oracle != nil:
			return nil, RunSpec{}, fmt.Errorf("ltp: oracle classification requires the cycle backend, not %q", canon.Backend)
		case record != nil:
			return nil, RunSpec{}, fmt.Errorf("ltp: trace capture requires the cycle backend, not %q", canon.Backend)
		}
	}

	in := newLaneInputs()
	in.oracle = oracle
	var name string
	switch {
	case replay != nil:
		r, err := trace.NewReader(replay)
		if err != nil {
			return nil, RunSpec{}, err
		}
		in.stream, in.reader, name = r, r, r.Name()
	default:
		if program == nil {
			if program, err = buildProgram(canon); err != nil {
				return nil, RunSpec{}, err
			}
		}
		in.program = program
	}
	if record != nil {
		if name == "" {
			name = in.program.Name
		}
		in.recorder = trace.NewRecorder(in.source(), record, name)
		in.stream = in.recorder
	}
	return in, canon, nil
}

// finishResult folds backend stats into the public RunResult shape and
// attaches the modelled energy.
func finishResult(st sim.Stats, pcfg pipeline.Config, lcfg *core.Config) RunResult {
	res := RunResult{Result: st.Result, LTP: st.LTP, Sampling: st.Sampling}
	res.Design = energy.Design{
		IQEntries:  pcfg.IQSize,
		IssueWidth: pcfg.IssueWidth,
		IntRegs:    pcfg.IntRegs,
		FPRegs:     pcfg.FPRegs,
	}

	act := energy.Activity{
		Cycles:   res.Cycles,
		Issues:   res.Issues,
		RFReads:  res.RFReads,
		RFWrites: res.RFWrites,
	}
	if lcfg != nil && res.LTP != nil {
		res.Design.LTPEntries = lcfg.Entries
		res.Design.LTPPorts = lcfg.Ports
		if res.Design.LTPEntries <= 0 {
			res.Design.LTPEntries = pcfg.ROBSize // "unlimited" is ROB-bounded
		}
		act.LTPEnqueues = res.LTP.Enqueues
		act.LTPDequeues = res.LTP.Dequeues
		act.LTPEnabledCyc = uint64(res.LTP.EnabledFrac * float64(res.Cycles))
	}
	res.Energy = energy.Compute(energy.DefaultParams(), res.Design, act)
	return res
}
