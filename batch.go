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
// Intervals) deliberately stays out — those vary across the lanes of
// one group, and the backend partitions lanes by what their warm-up
// reads. Cycle and sampled cells with no warm region to share, a
// detailed warm-up, or an oracle pre-pass run alone.
func batchKey(c RunSpec) (string, bool) {
	switch c.Backend {
	case BackendModel:
	case BackendCycle, BackendSampled:
		if c.WarmInsts == 0 || c.WarmMode == WarmDetailed || c.Oracle {
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

// resolveLane turns one canonical spec into its resolved sim.Spec
// (stream left to the caller — batch lanes share one). corMemo
// deduplicates co-runner traffic capture across lanes: sweep lanes
// usually share a co-runner set, and capturing it is a functional
// emulation pass worth paying once (the shared pattern also lets the
// lanes share one warm checkpoint).
func resolveLane(spec RunSpec, corMemo map[string][]mem.CorunnerConfig) (sim.Spec, pipeline.Config, *core.Config, error) {
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
			cors = corMemo[memoKey]
		}
		if cors == nil {
			cors, err = buildCorunners(spec.Corunners, spec.Scale)
			if err != nil {
				return sim.Spec{}, pipeline.Config{}, nil, err
			}
			if memoKey != "" {
				corMemo[memoKey] = cors
			}
		}
	}
	var lcfg *core.Config
	if spec.UseLTP {
		c := core.DefaultConfig()
		if spec.LTP != nil {
			c = *spec.LTP
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
	stream := newLazyStream(func() prog.Stream { return prog.NewEmulator(build()) })

	ex, _ := ctx.Value(execContextKey{}).(sim.Executor)
	corMemo := make(map[string][]mem.CorunnerConfig)
	simSpecs := make([]sim.Spec, 0, len(specs))
	lanes := make([]int, 0, len(specs)) // simSpecs index -> specs index
	pcfgs := make([]pipeline.Config, len(specs))
	lcfgs := make([]*core.Config, len(specs))
	for i, s := range specs {
		ss, pcfg, lcfg, err := resolveLane(s, corMemo)
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
