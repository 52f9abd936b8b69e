package ltp

import (
	"context"
	"fmt"

	"ltp/internal/core"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sim"
	"ltp/internal/trace"
)

// batchKeyVersion prefixes batch-group keys.
const batchKeyVersion = "bk1"

// batchKey names the batch group a canonical cell belongs to: cells
// with equal keys run on the same backend over one functional µop
// stream with equal warm/measured budgets, which is exactly the
// sim.BatchBackend admission contract. Timing configuration (pipeline
// sizes, LTP mode, predictors, prefetcher, co-runners, MaxCycles,
// Intervals, Oracle) deliberately stays out — those vary across the
// lanes of one group, and the backend partitions lanes by what their
// warm-up reads. Cycle and sampled cells with no warm region to share
// or a detailed warm-up are refused: they run as batches of one.
func batchKey(c RunSpec) (string, bool) {
	switch c.Backend {
	case BackendModel:
	case BackendCycle, BackendSampled:
		if c.WarmInsts == 0 || c.WarmMode == WarmDetailed {
			return "", false
		}
	default:
		return "", false
	}
	key, err := hashJSON(batchKeyVersion, struct {
		Backend   string
		Workload  string
		Scenario  string
		Knobs     interface{}
		Seed      int64
		Scale     float64
		WarmInsts uint64
		MaxInsts  uint64
	}{c.Backend, c.Workload, c.Scenario, c.Knobs, c.Seed, c.Scale, c.WarmInsts, c.MaxInsts})
	if err != nil {
		return "", false
	}
	return key, true
}

// laneInputs holds what a batch's lanes share: the µop source — the
// stream every lane reads, the program behind it (nil for a trace
// replay), the trace reader or recorder when there is one — and
// read-only inputs built the first time a lane needs them: co-runner
// traffic captures (sweep lanes usually share a co-runner set, and
// capturing one is a functional emulation pass worth paying once; the
// shared pattern also lets the lanes share one warm checkpoint) and
// oracle pre-passes (one per distinct budget, hierarchy configuration
// and ROB size — a limit study's lanes usually differ only in structure
// sizes the pre-pass never reads).
type laneInputs struct {
	program  *prog.Program
	stream   prog.Stream
	reader   *trace.Reader
	recorder *trace.Recorder
	// oracle, when set, is a prebuilt pre-pass every LTP lane uses.
	oracle *core.Oracle

	corunners map[string][]mem.CorunnerConfig
	oracles   map[oracleKey]*core.Oracle
}

func newLaneInputs() *laneInputs {
	return &laneInputs{
		corunners: make(map[string][]mem.CorunnerConfig),
		oracles:   make(map[oracleKey]*core.Oracle),
	}
}

// source returns the stream every lane reads: for a program, an
// emulator over it, built on first use. One program serves the stream
// and every oracle pre-pass (both only read it).
func (in *laneInputs) source() prog.Stream {
	if in.stream == nil {
		in.stream = prog.NewEmulator(in.program)
	}
	return in.stream
}

// oracleKey holds core.BuildOracle's inputs besides the program.
type oracleKey struct {
	budget, window int
	hier           mem.Config
}

// oracleFor returns the lane's limit-study pre-pass, building it on
// first use.
func (in *laneInputs) oracleFor(spec RunSpec, pcfg pipeline.Config) (*core.Oracle, error) {
	if in.program == nil {
		return nil, fmt.Errorf("ltp: oracle classification needs a program, not a replayed trace")
	}
	key := oracleKey{int(spec.WarmInsts + spec.MaxInsts + 65_536), pcfg.ROBSize, pcfg.Hier}
	o := in.oracles[key]
	if o == nil {
		o = core.BuildOracle(in.program, key.budget, key.hier, key.window)
		in.oracles[key] = o
	}
	return o, nil
}

// resolveLane turns one canonical spec into its resolved sim.Spec over
// the shared inputs — the one RunSpec-to-sim.Spec resolution every
// entry point uses. runLanes sets the Stream once every lane has
// resolved.
func resolveLane(spec RunSpec, in *laneInputs) (sim.Spec, error) {
	pcfg := *spec.Pipeline
	var cors []mem.CorunnerConfig
	if len(spec.Corunners) > 0 {
		memoKey, err := hashJSON("cor", struct {
			Cors  []Corunner
			Scale float64
		}{spec.Corunners, spec.Scale})
		if err == nil {
			cors = in.corunners[memoKey]
		}
		if cors == nil {
			cors, err = buildCorunners(spec.Corunners, spec.Scale)
			if err != nil {
				return sim.Spec{}, err
			}
			if memoKey != "" {
				in.corunners[memoKey] = cors
			}
		}
	}
	var lcfg *core.Config
	if spec.UseLTP {
		c := *spec.LTP
		switch {
		case in.oracle != nil:
			c.Oracle = in.oracle
		case spec.Oracle:
			o, err := in.oracleFor(spec, pcfg)
			if err != nil {
				return sim.Spec{}, err
			}
			c.Oracle = o
		}
		lcfg = &c
	}
	return sim.Spec{
		Reader:       in.reader,
		Recorder:     in.recorder,
		Pipeline:     pcfg,
		LTP:          lcfg,
		WarmInsts:    spec.WarmInsts,
		WarmDetailed: spec.WarmMode == WarmDetailed,
		MaxInsts:     spec.MaxInsts,
		MaxCycles:    spec.MaxCycles,
		Corunners:    cors,
		Intervals:    spec.Intervals,
	}, nil
}

// runBatch evaluates a group of canonical specs (equal batchKey) in one
// shared pass: the functional stream is built once and driven once,
// and the lanes' measured regions — and a sampled lane's intervals —
// fan out through ex. Results and errors are positional; each cell's
// result is bit-identical to what RunContext produces for it alone,
// because RunContext is runLanes over a batch of one.
func runBatch(ctx context.Context, ex sim.Executor, specs []RunSpec) ([]RunResult, []error) {
	program, err := buildProgram(specs[0])
	if err != nil {
		return make([]RunResult, len(specs)), failLanes(len(specs), err)
	}
	in := newLaneInputs()
	in.program = program
	return runLanes(ctx, ex, in, specs)
}

// runLanes resolves canonical specs over their shared inputs and
// evaluates them in one call to their backend's RunBatch, fanning out
// through ex.
func runLanes(ctx context.Context, ex sim.Executor, in *laneInputs, specs []RunSpec) ([]RunResult, []error) {
	results := make([]RunResult, len(specs))
	backend, err := sim.Lookup(specs[0].Backend)
	if err != nil {
		return results, failLanes(len(specs), err)
	}
	errs := make([]error, len(specs))
	simSpecs := make([]sim.Spec, 0, len(specs))
	lanes := make([]int, 0, len(specs)) // simSpecs index -> specs index
	for i, s := range specs {
		ss, err := resolveLane(s, in)
		if err != nil {
			errs[i] = err
			continue
		}
		ss.Exec = ex
		simSpecs = append(simSpecs, ss)
		lanes = append(lanes, i)
	}
	if len(simSpecs) == 0 {
		return results, errs
	}
	// The emulator is built only once every lane has resolved, so its
	// memory image is never live beside an oracle pre-pass's own.
	stream := in.source()
	for j := range simSpecs {
		simSpecs[j].Stream = stream
	}

	for j, br := range backend.RunBatch(ctx, simSpecs) {
		i := lanes[j]
		if br.Err != nil {
			errs[i] = br.Err
			continue
		}
		results[i] = finishResult(br.Stats, simSpecs[j].Pipeline, simSpecs[j].LTP)
	}
	return results, errs
}

// failLanes returns n copies of err.
func failLanes(n int, err error) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}
