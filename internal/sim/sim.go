package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"ltp/internal/core"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/stats"
	"ltp/internal/trace"
)

// Fidelity grades how faithful a backend's timing is to the reference
// cycle-accurate pipeline.
type Fidelity uint8

const (
	// FidelityEstimate marks an analytical model: CPI and the derived
	// metrics are first-order estimates, orders of magnitude cheaper
	// than detailed simulation and intended for ranking and triage,
	// not for absolute numbers.
	FidelityEstimate Fidelity = iota
	// FidelitySampled marks interval sampling: short cycle-accurate
	// measurement windows stitched into a whole-run estimate with a
	// confidence interval. Cheaper than FidelityCycle by roughly the
	// coverage fraction, statistically faithful rather than exact.
	FidelitySampled
	// FidelityCycle marks the reference cycle-accurate pipeline.
	FidelityCycle
)

var fidelityNames = map[Fidelity]string{
	FidelityEstimate: "estimate",
	FidelitySampled:  "sampled",
	FidelityCycle:    "cycle-accurate",
}

// String returns the fidelity name ("estimate", "sampled",
// "cycle-accurate").
func (f Fidelity) String() string { return fidelityNames[f] }

// Spec is one fully resolved simulation: a µop source plus the
// complete machine configuration and budgets. The public ltp package
// builds it from an ltp.RunSpec (workload/scenario resolution, trace
// plumbing, configuration defaulting all happen there); backends only
// execute it.
type Spec struct {
	// Stream is the resolved µop source (emulator, trace reader, or a
	// recorder wrapping either).
	Stream prog.Stream
	// Reader is the underlying trace reader when Stream replays a
	// recorded trace (nil otherwise); backends must surface its
	// mid-run errors and refuse silently truncated runs.
	Reader *trace.Reader
	// Recorder is the trace capture wrapper when the run is being
	// recorded (nil otherwise); backends must Close it and surface
	// capture errors.
	Recorder *trace.Recorder

	// Pipeline is the resolved core configuration.
	Pipeline pipeline.Config
	// LTP, when non-nil, attaches the parking unit with this resolved
	// configuration (a prebuilt Oracle included when the run wants
	// one).
	LTP *core.Config

	// WarmInsts is the warm-up budget in instructions.
	WarmInsts uint64
	// WarmDetailed selects the full-pipeline warm-up path instead of
	// the fast functional one.
	WarmDetailed bool
	// MaxInsts bounds the measured region (committed instructions).
	MaxInsts uint64
	// MaxCycles is a safety cap relative to the measured region's
	// start (0 = none).
	MaxCycles uint64

	// Corunners are co-runner traffic streams contending for the
	// shared cache levels and DRAM (internal/mem corunner engine).
	// Empty means a solo run.
	Corunners []mem.CorunnerConfig

	// Intervals is the sampling interval count K for the sampled
	// backend (ignored by the others). K=1 degenerates to a single
	// full-region measurement identical to the cycle backend.
	Intervals int
	// Exec, when non-nil, runs fan-out subtasks — a batch's lanes and
	// the sampled backend's K measured intervals — so they can share the
	// process-wide scheduler pool. Nil means sequential in-goroutine
	// execution; either way results are deterministic.
	Exec Executor
}

// Executor runs a batch of independent subtasks to completion,
// possibly concurrently. costs[i] is fns[i]'s relative cost estimate
// for LPT ordering. Implementations must guarantee every fn runs
// exactly once and must tolerate being called from a goroutine that is
// itself a pool worker (the scheduler pool implements this with work
// helping).
type Executor interface {
	RunBatch(ctx context.Context, costs []float64, fns []func(context.Context))
}

// LTPStats summarizes the parking unit's behaviour for one run
// (re-exported as ltp.LTPStats).
type LTPStats struct {
	AvgInsts  float64 // instructions parked, time average
	AvgRegs   float64 // register allocations deferred, time average
	AvgLoads  float64 // LQ allocations deferred, time average
	AvgStores float64 // SQ allocations deferred, time average

	EnabledFrac float64 // DRAM-timer monitor duty cycle

	ParkedTotal   uint64 // instructions ever parked
	WokenTotal    uint64 // instructions woken by the normal policies
	ForcedParks   uint64 // parks forced by resource pressure at rename
	PressureWakes uint64 // wakes forced by reserve-threshold pressure
	Enqueues      uint64 // LTP queue insertions (energy model input)
	Dequeues      uint64 // LTP queue removals (energy model input)

	ClassUrgent   uint64 // instructions classified urgent
	ClassNonReady uint64 // instructions classified non-ready

	UITLen      int     // Urgent Instruction Table population at end
	LLPredAcc   float64 // long-latency predictor accuracy in [0, 1]
	TicketsFull uint64  // NR parks skipped because tickets ran out
}

// SamplingStats describes the estimate quality of an interval-sampled
// run (re-exported as ltp.SamplingStats; nil for exact backends).
type SamplingStats struct {
	// Intervals is K, the number of measured intervals stitched.
	Intervals int
	// SampledInsts is the number of instructions that were actually
	// cycle-simulated (the rest of the run was functionally warmed).
	SampledInsts uint64
	// CPI summarizes the per-interval CPI distribution; CPI.Mean is
	// the whole-run CPI estimate and CPI.CI95 its 95% confidence
	// half-width under the Student-t distribution.
	CPI stats.Summary
}

// Stats is one backend run's outcome: the pipeline metrics snapshot
// plus, when the parking unit was attached, its statistics. Estimate-
// fidelity backends fill the same shape with modelled values.
type Stats struct {
	pipeline.Result
	// LTP holds the parking unit's statistics (nil when no LTP was
	// attached).
	LTP *LTPStats
	// Sampling holds the interval-sampling quality metrics (nil unless
	// the sampled backend produced this result).
	Sampling *SamplingStats
}

// Backend executes resolved simulations at a declared fidelity.
// Implementations must be safe for concurrent use and deterministic:
// equal Specs (same µop stream bytes, configuration and budgets)
// produce equal Stats.
type Backend interface {
	// Name is the backend's registry key ("cycle", "model").
	Name() string
	// Fidelity grades the backend's timing faithfulness.
	Fidelity() Fidelity
	// Run executes one simulation under ctx. Cancellation must be
	// honoured within about a millisecond; a cancelled run returns
	// ctx's error and no result.
	Run(ctx context.Context, spec Spec) (Stats, error)
}

// BatchResult is one lane's outcome from a batched evaluation.
type BatchResult struct {
	// Stats is the lane's measured-region result; zero when Err is set.
	Stats Stats
	// Err is the lane's individual failure; other lanes are unaffected.
	Err error
}

// BatchBackend is a backend that can evaluate many Specs sharing one
// functional µop stream in a single pass, amortizing stream generation
// and warm-up across all of them. Every registered backend is one, and
// every one is the shared driver RunBatch with its own lane function:
// it warms once per warm group and runs each lane's measured region
// from its own clone of that warm state, one subtask per lane fanned
// out through Spec.Exec, and its Run is a batch of one.
//
// Contract: every spec in the batch must share the µop stream —
// specs[0].Stream is the one driven; the Stream fields of the rest are
// ignored and may be nil — and must agree on WarmInsts (and, for the
// model backend, MaxInsts); everything else may vary per lane.
// Backends re-verify what they rely on and fail lanes that violate it.
// Results are positionally matched to specs and must be bit-identical
// to what Run would have produced for each spec alone: batching is an
// execution strategy, never an approximation.
type BatchBackend interface {
	Backend
	// RunBatch evaluates all specs in one shared pass. The returned
	// slice always has len(specs) entries; per-lane failures land in
	// their entry's Err rather than failing the batch. A ctx
	// cancellation fails every unfinished lane with the context error.
	RunBatch(ctx context.Context, specs []Spec) []BatchResult
}

var (
	registryMu sync.RWMutex
	registry   = map[string]BatchBackend{}
)

// Register adds a backend under its Name. It panics on duplicates —
// backends register from package init, so a collision is a programming
// error.
func Register(b BatchBackend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[b.Name()]; dup {
		panic(fmt.Sprintf("sim: backend %q registered twice", b.Name()))
	}
	registry[b.Name()] = b
}

// Lookup returns the named backend; the empty name selects the
// cycle-accurate reference.
func Lookup(name string) (BatchBackend, error) {
	if name == "" {
		name = "cycle"
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ltp: unknown simulation backend %q (want one of %v)", name, names())
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return names()
}

func names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
