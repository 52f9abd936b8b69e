package ltp

import (
	"context"

	"ltp/internal/core"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sim"
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
// or a detailed warm-up run alone.
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

// laneMemo holds what a batch's lanes share read-only, each built the
// first time a lane needs it: co-runner traffic captures (sweep lanes
// usually share a co-runner set, and capturing one is a functional
// emulation pass worth paying once; the shared pattern also lets the
// lanes share one warm checkpoint) and oracle pre-passes (one per
// distinct budget, hierarchy configuration and ROB size — a limit
// study's lanes usually differ only in structure sizes the pre-pass
// never reads).
type laneMemo struct {
	program   func() *prog.Program
	corunners map[string][]mem.CorunnerConfig
	oracles   map[oracleKey]*core.Oracle
}

// oracleKey holds core.BuildOracle's inputs besides the program.
type oracleKey struct {
	budget, window int
	hier           mem.Config
}

// oracle returns the lane's limit-study pre-pass, building it on first
// use — exactly what RunContext builds for the same spec alone.
func (m *laneMemo) oracle(spec RunSpec, pcfg pipeline.Config) *core.Oracle {
	key := oracleKey{int(spec.WarmInsts + spec.MaxInsts + 65_536), pcfg.ROBSize, pcfg.Hier}
	o := m.oracles[key]
	if o == nil {
		o = core.BuildOracle(m.program(), key.budget, key.hier, key.window)
		m.oracles[key] = o
	}
	return o
}

// resolveLane turns one canonical spec into its resolved sim.Spec
// (stream left to the caller — batch lanes share one), drawing shared
// inputs from memo.
func resolveLane(spec RunSpec, memo *laneMemo) (sim.Spec, pipeline.Config, *core.Config, error) {
	pcfg := pipeline.DefaultConfig()
	if spec.Pipeline != nil {
		pcfg = *spec.Pipeline
	}
	var cors []mem.CorunnerConfig
	if len(spec.Corunners) > 0 {
		memoKey, err := hashJSON("cor", struct {
			Cors  []Corunner
			Scale float64
		}{spec.Corunners, spec.Scale})
		if err == nil {
			cors = memo.corunners[memoKey]
		}
		if cors == nil {
			cors, err = buildCorunners(spec.Corunners, spec.Scale)
			if err != nil {
				return sim.Spec{}, pipeline.Config{}, nil, err
			}
			if memoKey != "" {
				memo.corunners[memoKey] = cors
			}
		}
	}
	var lcfg *core.Config
	if spec.UseLTP {
		c := core.DefaultConfig()
		if spec.LTP != nil {
			c = *spec.LTP
		}
		if spec.Oracle {
			c.Oracle = memo.oracle(spec, pcfg)
		}
		lcfg = &c
	}
	var warmKey string
	if spec.Backend == BackendModel {
		if key, err := modelWarmKey(spec); err == nil {
			warmKey = key
		}
	}
	return sim.Spec{
		Pipeline:     pcfg,
		LTP:          lcfg,
		WarmInsts:    spec.WarmInsts,
		WarmDetailed: spec.WarmMode == WarmDetailed,
		MaxInsts:     spec.MaxInsts,
		MaxCycles:    spec.MaxCycles,
		Corunners:    cors,
		WarmKey:      warmKey,
		Intervals:    spec.Intervals,
	}, pcfg, lcfg, nil
}

// runBatch evaluates a group of canonical specs (equal batchKey) in one
// shared pass through their backend's RunBatch: the functional stream
// is built lazily once and driven once, and each lane's measured region
// fans out through the context's executor when it has one. Results and
// errors are positional; each cell's result is bit-identical to what
// RunContext would have produced for it alone.
func runBatch(ctx context.Context, specs []RunSpec) ([]RunResult, []error) {
	results := make([]RunResult, len(specs))
	errs := make([]error, len(specs))
	if len(specs) == 0 {
		return results, errs
	}
	backend, err := sim.Lookup(specs[0].Backend)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	bb, ok := backend.(sim.BatchBackend)
	if !ok {
		// Registry holds a non-batching backend (tests can do this);
		// fall back to sequential single-cell runs.
		for i, s := range specs {
			results[i], errs[i] = RunContext(ctx, s)
		}
		return results, errs
	}

	build, _, err := programBuilder(specs[0])
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	// One program serves the stream and every oracle pre-pass (both
	// only read it).
	var program *prog.Program
	memo := &laneMemo{
		program: func() *prog.Program {
			if program == nil {
				program = build()
			}
			return program
		},
		corunners: make(map[string][]mem.CorunnerConfig),
		oracles:   make(map[oracleKey]*core.Oracle),
	}
	stream := newLazyStream(func() prog.Stream { return prog.NewEmulator(memo.program()) })

	ex, _ := ctx.Value(execContextKey{}).(sim.Executor)
	simSpecs := make([]sim.Spec, 0, len(specs))
	lanes := make([]int, 0, len(specs)) // simSpecs index -> specs index
	pcfgs := make([]pipeline.Config, len(specs))
	lcfgs := make([]*core.Config, len(specs))
	for i, s := range specs {
		ss, pcfg, lcfg, err := resolveLane(s, memo)
		if err != nil {
			errs[i] = err
			continue
		}
		ss.Stream = stream
		ss.Exec = ex
		pcfgs[i], lcfgs[i] = pcfg, lcfg
		simSpecs = append(simSpecs, ss)
		lanes = append(lanes, i)
	}
	if len(simSpecs) == 0 {
		return results, errs
	}

	for j, br := range bb.RunBatch(ctx, simSpecs) {
		i := lanes[j]
		if br.Err != nil {
			errs[i] = br.Err
			continue
		}
		results[i] = finishResult(br.Stats, pcfgs[i], lcfgs[i])
	}
	return results, errs
}
