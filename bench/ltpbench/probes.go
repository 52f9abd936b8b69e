package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ltp"
	"ltp/bench/internal/benchstat"
	"ltp/internal/bpred"
	"ltp/internal/cache"
	"ltp/internal/core"
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sched"
	"ltp/internal/server"
	"ltp/internal/sim"
	"ltp/internal/store"
	"ltp/internal/trace"
	"ltp/internal/workload"
)

// probeInputs is a workload's own inputs as the per-layer probes see
// them: the programs behind its µop, load-address and branch streams,
// representative cycle cells, and a model-tier sweep over its cells
// (whose runs double as the probes' specs, requests and payloads).
type probeInputs struct {
	builds []func() *prog.Program
	cells  []ltp.RunSpec
	sweep  ltp.SweepSpec
}

// Probe budgets: enough operations that one probe takes tens to
// hundreds of milliseconds on the workload's inputs.
const (
	probeReps  = 3   // timed repetitions; the median is reported
	sampledK   = 16  // interval count of the sampled probe cell
	callProbes = 200 // individually timed calls (cache, sched, server)
)

// Per-program budgets: µops captured (and emulated) across all
// programs with a per-program floor, and instructions committed per
// pipeline parker likewise.
const (
	captureUops, captureFloor    = 200_000, 20_000
	pipelineInsts, pipelineFloor = 25_000, 5_000
)

// captured is one µop of a workload's stream, with the hierarchy level
// a warming pass assigned to its memory access.
type captured struct {
	u     isa.Uop
	level mem.Level
}

// prober runs the probes of one workload.
type prober struct {
	ctx      context.Context
	in       *probeInputs
	size     float64
	work     string
	tr       *tracer
	metrics  map[string]float64
	programs []*prog.Program
	streams  [][]captured // per program
	hcfg     mem.Config
	// payloads are the results of the probe sweep's cells, keyed by
	// content address, for the cache and store probes.
	keys     []string
	payloads [][]byte
}

// runProbes times each layer's exported functions on the workload's
// inputs.
func runProbes(ctx context.Context, in *probeInputs, size float64, work string, tr *tracer) (map[string]float64, error) {
	p := &prober{ctx: ctx, in: in, size: size, work: work, tr: tr, metrics: map[string]float64{}, hcfg: pipeline.DefaultConfig().Hier}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"workload", p.probeBuild},
		{"capture", p.capture},
		{"prog", p.probeProg},
		{"mem", p.probeMem},
		{"bpred", p.probeBpred},
		{"core", p.probeCore},
		{"pipeline", p.probePipeline},
		{"sim", p.probeSim},
		{"model", p.probeModel},
		{"trace", p.probeTrace},
		{"ltp", p.probeHash},
		{"engine", p.probeEngine},
		{"cache", p.probeCache},
		{"store", p.probeStore},
		{"sched", p.probeSched},
		{"server", p.probeServer},
	} {
		_, end := tr.start("probe."+step.name, 0, "")
		err := step.run()
		end()
		if err != nil {
			return p.metrics, fmt.Errorf("probe %s: %w", step.name, err)
		}
	}
	return p.metrics, nil
}

// perOp times run probeReps times and returns the median of elapsed
// time over the operation count run reports, in the given unit.
// prepare, when non-nil, runs untimed before each repetition to build
// the state run consumes.
func perOp(unit time.Duration, prepare func(), run func() int) float64 {
	vals := make([]float64, probeReps)
	for i := range vals {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		n := run()
		vals[i] = float64(time.Since(start)) / float64(unit) / float64(max(n, 1))
	}
	return benchstat.Median(vals)
}

// eachCall times fn n times individually and returns the median call
// time in the given unit.
func eachCall(n int, unit time.Duration, fn func(i int) error) (float64, error) {
	vals := make([]float64, n)
	for i := range vals {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		vals[i] = float64(time.Since(start)) / float64(unit)
	}
	return benchstat.Median(vals), nil
}

// probeBuild times program generation through the emulator's start:
// a generator's data layout is laid down by the program's init hook,
// which runs when an emulator is created.
func (p *prober) probeBuild() error {
	p.programs = make([]*prog.Program, len(p.in.builds))
	p.metrics["workload.build_ms"] = perOp(time.Millisecond, nil, func() int {
		for i, b := range p.in.builds {
			p.programs[i] = b()
			prog.NewEmulator(p.programs[i])
		}
		return len(p.in.builds)
	})
	return nil
}

// perProgram is how many µops each program contributes to a probe:
// its share of total, at least floor, both scaled by the probe size.
func (p *prober) perProgram(total, floor int) int {
	return max(int(float64(total)*p.size)/len(p.programs), int(float64(floor)*p.size), 1)
}

// capture records each program's leading µops, tagging memory accesses
// with the level a warming hierarchy serves them from.
func (p *prober) capture() error {
	n := p.perProgram(captureUops, captureFloor)
	p.streams = make([][]captured, len(p.programs))
	for i, pr := range p.programs {
		e := prog.NewEmulator(pr)
		h := mem.NewHierarchy(p.hcfg)
		s := make([]captured, 0, n)
		var c captured
		for len(s) < n && e.Next(&c.u) {
			c.level = mem.LvlL1
			if c.u.IsMem() {
				c.level = h.Warm(c.u.PC, c.u.Addr, c.u.Op == isa.Store)
			}
			s = append(s, c)
		}
		if len(s) == 0 {
			return fmt.Errorf("program %s produced no µops", pr.Name)
		}
		p.streams[i] = s
	}
	return nil
}

// emulators starts a fresh emulator per program.
func (p *prober) emulators() []*prog.Emulator {
	out := make([]*prog.Emulator, len(p.programs))
	for i, pr := range p.programs {
		out[i] = prog.NewEmulator(pr)
	}
	return out
}

// hierarchies returns a fresh hierarchy per captured stream.
func (p *prober) hierarchies() []*mem.Hierarchy {
	out := make([]*mem.Hierarchy, len(p.streams))
	for i := range out {
		out[i] = mem.NewHierarchy(p.hcfg)
	}
	return out
}

func (p *prober) probeProg() error {
	n := p.perProgram(captureUops, captureFloor)
	var ems []*prog.Emulator
	prepare := func() { ems = p.emulators() }
	var u isa.Uop
	p.metrics["prog.step_ns"] = perOp(time.Nanosecond, prepare, func() int {
		ops := 0
		for _, e := range ems {
			for i := 0; i < n && e.Next(&u); i++ {
				ops++
			}
		}
		return ops
	})
	p.metrics["prog.ffwd_ns"] = perOp(time.Nanosecond, prepare, func() int {
		ops := 0
		for _, e := range ems {
			ops += int(e.FastForward(uint64(n), nil))
		}
		return ops
	})
	return nil
}

func (p *prober) probeMem() error {
	var hs []*mem.Hierarchy
	prepare := func() { hs = p.hierarchies() }
	p.metrics["mem.load_ns"] = perOp(time.Nanosecond, prepare, func() int {
		calls := 0
		for i, s := range p.streams {
			h := hs[i]
			var now uint64
			for _, c := range s {
				if c.u.Op != isa.Load {
					continue
				}
				now += 4
				calls++
				if _, ok := h.Load(c.u.PC, c.u.Addr, now); !ok {
					// MSHRs full: let the fills drain, then replay, as
					// the pipeline does.
					now += p.hcfg.DRAMLatency
					h.Load(c.u.PC, c.u.Addr, now)
					calls++
				}
				if calls%256 == 0 {
					h.OutstandingDemand(now)
				}
			}
		}
		return calls
	})
	p.metrics["mem.warm_ns"] = perOp(time.Nanosecond, prepare, func() int {
		calls := 0
		for i, s := range p.streams {
			for _, c := range s {
				if c.u.IsMem() {
					hs[i].Warm(c.u.PC, c.u.Addr, c.u.Op == isa.Store)
					calls++
				}
			}
		}
		return calls
	})
	// hs now holds the hierarchies the last repetition warmed.
	p.metrics["mem.clone_us"] = perOp(time.Microsecond, nil, func() int {
		for _, h := range hs {
			h.Clone()
		}
		return len(hs)
	})
	return nil
}

func (p *prober) probeBpred() error {
	for _, name := range []string{"gshare", "tage"} {
		if _, err := bpred.New(name); err != nil {
			return err
		}
		var bps []bpred.Predictor
		prepare := func() {
			bps = make([]bpred.Predictor, len(p.streams))
			for i := range bps {
				bps[i], _ = bpred.New(name) // the name resolved above
			}
		}
		p.metrics["bpred."+name+"_ns"] = perOp(time.Nanosecond, prepare, func() int {
			calls := 0
			for i, s := range p.streams {
				for _, c := range s {
					if c.u.IsBranch() {
						bps[i].Lookup(c.u.PC, c.u.Taken, c.u.Target)
						calls++
					}
				}
			}
			return calls
		})
	}
	return nil
}

func (p *prober) probeCore() error {
	var units []*core.LTP
	prepare := func() {
		units = make([]*core.LTP, len(p.streams))
		for i := range units {
			units[i] = core.New(core.DefaultConfig(), p.hcfg.DRAMLatency, p.hcfg.TagEarlyLead)
		}
	}
	p.metrics["core.warm_observe_ns"] = perOp(time.Nanosecond, prepare, func() int {
		calls := 0
		for i, s := range p.streams {
			for j := range s {
				units[i].WarmObserve(&s[j].u, s[j].level)
			}
			calls += len(s)
		}
		return calls
	})
	// The oracle pre-pass covers a cell's whole budget, as the limit
	// study builds it.
	c, err := p.in.cells[0].Canonical()
	if err != nil {
		return err
	}
	budget := int(c.WarmInsts + c.MaxInsts + 65_536)
	rob := pipeline.DefaultConfig().ROBSize
	p.metrics["core.oracle_ms"] = perOp(time.Millisecond, nil, func() int {
		for _, pr := range p.programs {
			core.BuildOracle(pr, budget, p.hcfg, rob)
		}
		return len(p.programs)
	})
	return nil
}

func (p *prober) probePipeline() error {
	n := uint64(p.perProgram(pipelineInsts, pipelineFloor))
	cfg := pipeline.DefaultConfig()
	run := func(parker func() pipeline.Parker) (nsPerInst, nsPerCycle float64) {
		var perInst, perCycle []float64
		for r := 0; r < probeReps; r++ {
			var elapsed time.Duration
			var insts, cycles uint64
			for _, pr := range p.programs {
				pl := pipeline.New(cfg, prog.NewEmulator(pr), parker())
				start := time.Now()
				pl.Run(n, 0)
				elapsed += time.Since(start)
				insts += pl.Committed()
				cycles += pl.Now()
			}
			perInst = append(perInst, float64(elapsed)/float64(max(insts, 1)))
			perCycle = append(perCycle, float64(elapsed)/float64(max(cycles, 1)))
		}
		return benchstat.Median(perInst), benchstat.Median(perCycle)
	}
	p.metrics["pipeline.ns_per_inst"], p.metrics["pipeline.ns_per_cycle"] =
		run(func() pipeline.Parker { return pipeline.NullParker{} })
	p.metrics["pipeline.ltp_ns_per_inst"], _ = run(func() pipeline.Parker {
		return core.New(core.DefaultConfig(), cfg.Hier.DRAMLatency, cfg.Hier.TagEarlyLead)
	})
	return nil
}

// programFor builds the program a canonical spec names.
func programFor(c ltp.RunSpec) (*prog.Program, error) {
	if c.Workload != "" {
		wl, err := workload.ByName(c.Workload)
		if err != nil {
			return nil, err
		}
		return wl.Build(c.Scale), nil
	}
	fam, err := workload.FamilyByName(c.Scenario)
	if err != nil {
		return nil, err
	}
	return fam.Build(c.Knobs, c.Scale, c.Seed), nil
}

// simSpec resolves a canonical spec into a backend spec over a fresh
// emulator. WarmKey stays empty: the model backend runs cold.
func simSpec(c ltp.RunSpec, pr *prog.Program, intervals int) sim.Spec {
	return sim.Spec{
		Stream:    prog.NewEmulator(pr),
		Pipeline:  *c.Pipeline,
		LTP:       c.LTP,
		WarmInsts: c.WarmInsts,
		MaxInsts:  c.MaxInsts,
		Intervals: intervals,
	}
}

// probeCell is one representative cell resolved for the backends.
type probeCell struct {
	canon ltp.RunSpec
	prog  *prog.Program
}

// resolve canonicalizes specs and builds their programs.
func resolve(specs []ltp.RunSpec) ([]probeCell, error) {
	out := make([]probeCell, len(specs))
	for i, s := range specs {
		c, err := s.Canonical()
		if err != nil {
			return nil, err
		}
		pr, err := programFor(c)
		if err != nil {
			return nil, err
		}
		out[i] = probeCell{canon: c, prog: pr}
	}
	return out, nil
}

// modelCells are the probe sweep's first run of each program: the
// model tier's own cells, whose budgets may differ from the cycle
// cells' (the service's model requests run longer than its cycle ones).
func (p *prober) modelCells() ([]probeCell, error) {
	runs, err := p.in.sweep.Runs()
	if err != nil {
		return nil, err
	}
	var specs []ltp.RunSpec
	seen := map[string]bool{}
	for _, r := range runs {
		key := fmt.Sprintf("%s/%s/%d", r.Spec.Workload, r.Spec.Scenario, r.Spec.Seed)
		if !seen[key] {
			seen[key] = true
			specs = append(specs, r.Spec)
		}
	}
	return resolve(specs)
}

func (p *prober) probeSim() error {
	cells, err := resolve(p.in.cells)
	if err != nil {
		return err
	}
	cycle, err := sim.Lookup(ltp.BackendCycle)
	if err != nil {
		return err
	}
	sampled, err := sim.Lookup(ltp.BackendSampled)
	if err != nil {
		return err
	}
	var cycleT, sampledT time.Duration
	var cpi, mlp float64
	var dram, committed, mispred, branches uint64
	for _, c := range cells {
		start := time.Now()
		st, err := cycle.Run(p.ctx, simSpec(c.canon, c.prog, 0))
		cycleT += time.Since(start)
		if err != nil {
			return err
		}
		cpi += st.CPI
		mlp += st.MLP
		dram += st.DemandDRAM
		committed += st.Committed
		mispred += st.Mispredicts
		branches += st.Branches
		start = time.Now()
		if _, err := sampled.Run(p.ctx, simSpec(c.canon, c.prog, sampledK)); err != nil {
			return err
		}
		sampledT += time.Since(start)
	}
	n := float64(len(cells))
	p.metrics["sim.cycle_cell_ms"] = float64(cycleT) / float64(time.Millisecond) / n
	p.metrics["sim.sampled_cell_ms"] = float64(sampledT) / float64(time.Millisecond) / n
	p.metrics["sim.sampled_speedup"] = float64(cycleT) / float64(sampledT)
	p.metrics["sim.cpi"] = cpi / n
	p.metrics["sim.mlp"] = mlp / n
	p.metrics["sim.dram_mpki"] = 1000 * float64(dram) / float64(max(committed, 1))
	p.metrics["sim.mispredict_pct"] = 100 * float64(mispred) / float64(max(branches, 1))
	return nil
}

func (p *prober) probeModel() error {
	cells, err := p.modelCells()
	if err != nil {
		return err
	}
	b, err := sim.Lookup(ltp.BackendModel)
	if err != nil {
		return err
	}
	bb, ok := b.(sim.BatchBackend)
	if !ok {
		return errors.New("the model backend does not batch")
	}
	var single, batch time.Duration
	lanes := 0
	for _, c := range cells {
		start := time.Now()
		if _, err := b.Run(p.ctx, simSpec(c.canon, c.prog, 0)); err != nil {
			return err
		}
		single += time.Since(start)

		// One shared stream fans into IQ × LTP timing lanes.
		var specs []sim.Spec
		for _, iq := range []int{16, 32, 48, 64} {
			for _, withLTP := range []bool{false, true} {
				s := simSpec(c.canon, c.prog, 0)
				s.Pipeline.IQSize = iq
				if withLTP {
					lcfg := core.DefaultConfig()
					s.LTP = &lcfg
				}
				if len(specs) > 0 {
					s.Stream = nil
				}
				specs = append(specs, s)
			}
		}
		start = time.Now()
		for _, r := range bb.RunBatch(p.ctx, specs) {
			if r.Err != nil {
				return r.Err
			}
		}
		batch += time.Since(start)
		lanes += len(specs)
	}
	cellMS := float64(single) / float64(time.Millisecond) / float64(len(cells))
	laneMS := float64(batch) / float64(time.Millisecond) / float64(lanes)
	p.metrics["model.cell_ms"] = cellMS
	p.metrics["model.batch_lane_ms"] = laneMS
	p.metrics["model.batch_speedup"] = cellMS / laneMS
	return nil
}

func (p *prober) probeTrace() error {
	bufs := make([]*bytes.Buffer, len(p.streams))
	var werr error
	p.metrics["trace.write_ns"] = perOp(time.Nanosecond, nil, func() int {
		n := 0
		for i, s := range p.streams {
			bufs[i] = new(bytes.Buffer)
			w := trace.NewWriter(bufs[i], p.programs[i].Name)
			for j := range s {
				if err := w.Append(&s[j].u); err != nil {
					werr = err
				}
			}
			if err := w.Close(); err != nil {
				werr = err
			}
			n += len(s)
		}
		return n
	})
	if werr != nil {
		return werr
	}
	var rerr error
	p.metrics["trace.read_ns"] = perOp(time.Nanosecond, nil, func() int {
		n := 0
		var u isa.Uop
		for _, b := range bufs {
			r, err := trace.NewReader(bytes.NewReader(b.Bytes()))
			if err != nil {
				rerr = err
				return 1
			}
			for r.Next(&u) {
				n++
			}
			if r.Err() != nil {
				rerr = r.Err()
			}
		}
		return n
	})
	return rerr
}

func (p *prober) probeHash() error {
	runs, err := p.in.sweep.Runs()
	if err != nil {
		return err
	}
	var herr error
	p.metrics["ltp.hash_us"] = perOp(time.Microsecond, nil, func() int {
		for _, r := range runs {
			if _, err := r.Spec.Hash(); err != nil {
				herr = err
			}
		}
		return len(runs)
	})
	p.metrics["ltp.sweep_canonical_ms"] = perOp(time.Millisecond, nil, func() int {
		if _, err := p.in.sweep.Canonical(); err != nil {
			herr = err
		}
		return 1
	})
	return herr
}

// storedRecord mirrors the engine's store payload shape (key, canonical
// spec, result), so the store probes move records of the real size.
type storedRecord struct {
	Key    string        `json:"key"`
	Spec   ltp.RunSpec   `json:"spec"`
	Result ltp.RunResult `json:"result"`
}

// The engine probe repeats the workload's sweep on fresh engines until
// it has engineArrivals cell arrivals (at most engineReps sweeps), so
// its tail percentile has samples beyond it.
const (
	engineArrivals = 64
	engineReps     = 4
)

func (p *prober) probeEngine() error {
	runs, err := p.in.sweep.Runs()
	if err != nil {
		return err
	}
	reps := min(max((engineArrivals+len(runs)-1)/len(runs), 1), engineReps)
	var arrivals, firsts []float64
	for rep := 0; rep < reps; rep++ {
		eng, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: parallelism})
		if err != nil {
			return err
		}
		got, err := p.engineSweep(eng, runs, rep == 0)
		if err == nil && rep == reps-1 {
			err = p.meanRuns(eng)
		}
		eng.Close()
		if err != nil {
			return err
		}
		arrivals = append(arrivals, got...)
		firsts = append(firsts, benchstat.Min(got))
	}
	p.metrics["engine.first_cell_ms"] = benchstat.Median(firsts)
	p.metrics["engine.cell_p50_ms"] = benchstat.Median(arrivals)
	p.metrics["engine.cell_p99_ms"] = benchstat.Tail(arrivals)
	return nil
}

// meanRuns adds one simulated cycle and sampled cell to an engine that
// has run the model sweep, and reads its per-backend mean run times.
func (p *prober) meanRuns(eng *ltp.Engine) error {
	cycle := p.in.cells[0]
	cycle.Backend = ltp.BackendCycle
	sampled := cycle
	sampled.Backend, sampled.Intervals = ltp.BackendSampled, sampledK
	for _, s := range []ltp.RunSpec{cycle, sampled} {
		if _, _, _, err := eng.RunCached(p.ctx, s); err != nil {
			return err
		}
	}
	for backend, secs := range eng.MeanRunSecondsByBackend() {
		p.metrics["engine.mean_run_ms."+backend] = secs * 1000
	}
	return nil
}

// engineSweep submits the workload's sweep and returns each cell's
// arrival on Job.Cells in milliseconds since Submit. With keep, the
// cells' results become the cache and store probes' payloads.
func (p *prober) engineSweep(eng *ltp.Engine, runs []ltp.SweepRun, keep bool) ([]float64, error) {
	start := time.Now()
	job, err := eng.Submit(p.ctx, p.in.sweep)
	if err != nil {
		return nil, err
	}
	var arrivals []float64
	for c := range job.Cells() {
		arrivals = append(arrivals, float64(time.Since(start))/float64(time.Millisecond))
		if c.Err != nil || !keep || err != nil {
			continue
		}
		canon, cerr := runs[c.Index].Spec.Canonical()
		if cerr != nil {
			err = cerr
			continue
		}
		b, merr := json.Marshal(storedRecord{Key: c.Hash, Spec: canon, Result: c.Result})
		if merr != nil {
			err = merr
			continue
		}
		p.keys = append(p.keys, c.Hash)
		p.payloads = append(p.payloads, b)
	}
	if _, werr := job.Wait(); werr != nil {
		return nil, werr
	}
	return arrivals, err
}

func (p *prober) probeCache() error {
	if len(p.keys) == 0 {
		return errors.New("no payloads")
	}
	c := cache.New(0)
	fill := func(i int) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return p.payloads[i], nil }
	}
	for i, k := range p.keys {
		if _, _, err := c.Do(p.ctx, k, fill(i)); err != nil {
			return err
		}
	}
	refuse := func(context.Context) (any, error) { return nil, errors.New("present key recomputed") }
	var err error
	p.metrics["cache.hit_ns"] = perOp(time.Nanosecond, nil, func() int {
		calls := 0
		for r := 0; r < callProbes; r++ {
			for _, k := range p.keys {
				if _, _, e := c.Do(p.ctx, k, refuse); e != nil {
					err = e
				}
				calls++
			}
		}
		return calls
	})
	p.metrics["cache.batch_hit_ns"] = perOp(time.Nanosecond, nil, func() int {
		for r := 0; r < callProbes; r++ {
			_, _, errs := c.DoBatch(p.ctx, p.keys, func(context.Context, []int) ([]any, []error) {
				return nil, nil
			})
			for _, e := range errs {
				if e != nil {
					err = e
				}
			}
		}
		return callProbes * len(p.keys)
	})
	var fresh []*cache.Cache
	prepare := func() {
		fresh = make([]*cache.Cache, callProbes)
		for r := range fresh {
			fresh[r] = cache.New(0)
		}
	}
	p.metrics["cache.miss_overhead_ns"] = perOp(time.Nanosecond, prepare, func() int {
		calls := 0
		for _, c := range fresh {
			for i, k := range p.keys {
				if _, _, e := c.Do(p.ctx, k, fill(i)); e != nil {
					err = e
				}
				calls++
			}
		}
		return calls
	})
	return err
}

func (p *prober) probeStore() error {
	path := filepath.Join(p.work, fmt.Sprintf("probe-%d.store", os.Getpid()))
	defer os.Remove(path)
	st, err := store.Open(path)
	if err != nil {
		return err
	}
	put, err := eachCall(len(p.keys), time.Microsecond, func(i int) error { return st.Put(p.keys[i], p.payloads[i]) })
	if err != nil {
		st.Close()
		return err
	}
	get, err := eachCall(len(p.keys), time.Microsecond, func(i int) error {
		if _, ok := st.Get(p.keys[i]); !ok {
			return fmt.Errorf("stored key %s not found", p.keys[i])
		}
		return nil
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var oerr error
	p.metrics["store.open_ms"] = perOp(time.Millisecond, nil, func() int {
		s, err := store.Open(path)
		if err != nil {
			oerr = err
			return 1
		}
		if s.Len() != len(p.keys) {
			oerr = fmt.Errorf("reopened store holds %d records, want %d", s.Len(), len(p.keys))
		}
		s.Close()
		return 1
	})
	p.metrics["store.put_us"], p.metrics["store.get_us"] = put, get
	return oerr
}

func (p *prober) probeSched() error {
	pool := sched.NewPool(parallelism)
	defer pool.Close()
	started := make(chan struct{}, 1)
	lag, err := eachCall(callProbes, time.Microsecond, func(int) error {
		pool.SubmitCtx(p.ctx, sched.TierInteractive, 1, func(context.Context) { started <- struct{}{} })
		<-started
		return nil
	})
	if err != nil {
		return err
	}
	p.metrics["sched.start_lag_us"] = lag
	noop := make([]func(context.Context), 16)
	for i := range noop {
		noop[i] = func(context.Context) {}
	}
	p.metrics["sched.batch_overhead_us"], err = eachCall(callProbes, time.Microsecond, func(int) error {
		pool.RunBatch(p.ctx, sched.TierCampaign, nil, noop)
		return nil
	})
	return err
}

// runRequestOf is the /v1/run body asking for spec, covering the fields
// the benchmark's sweeps set.
func runRequestOf(s ltp.RunSpec) server.RunRequest {
	r := server.RunRequest{
		Workload: s.Workload, Scenario: s.Scenario, Seed: s.Seed, Scale: s.Scale,
		WarmInsts: s.WarmInsts, MaxInsts: s.MaxInsts, UseLTP: s.UseLTP,
		Backend: s.Backend, Intervals: s.Intervals, BranchPred: s.BranchPred,
	}
	if s.Pipeline != nil {
		r.Config = &server.ConfigRequest{IQSize: s.Pipeline.IQSize, ROBSize: s.Pipeline.ROBSize}
	}
	return r
}

// sweepRequestOf is a /v1/sweep body crossing base with IQ sizes and
// LTP off/on.
func sweepRequestOf(base server.RunRequest, iqs []int) server.SweepRequest {
	base.Config, base.UseLTP = nil, false
	iq := server.SweepAxisRequest{Name: "iq"}
	for _, v := range iqs {
		v := v
		iq.Points = append(iq.Points, server.SweepPointRequest{Name: fmt.Sprintf("iq%d", v), Patch: server.PatchRequest{IQSize: &v}})
	}
	off, on := false, true
	lt := server.SweepAxisRequest{Name: "ltp", Points: []server.SweepPointRequest{
		{Name: "noltp", Patch: server.PatchRequest{UseLTP: &off}},
		{Name: "ltp", Patch: server.PatchRequest{UseLTP: &on}},
	}}
	return server.SweepRequest{Base: base, Axes: []server.SweepAxisRequest{iq, lt}}
}

// serve posts body to the handler in-process and returns the reply.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// wantOutcome checks a /v1/run reply's status and cache outcome.
func wantOutcome(code int, body []byte, outcome string) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	var resp server.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if outcome != "" && resp.Cache != outcome {
		return fmt.Errorf("served as %q, want %q", resp.Cache, outcome)
	}
	return nil
}

func (p *prober) probeServer() error {
	runs, err := p.in.sweep.Runs()
	if err != nil {
		return err
	}
	bodies := make([][]byte, min(len(runs), 16))
	for i := range bodies {
		if bodies[i], err = json.Marshal(runRequestOf(runs[i].Spec)); err != nil {
			return err
		}
	}
	lim := server.DefaultLimits()
	pending := make([]*http.Request, callProbes)
	for i := range pending {
		pending[i] = httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[i%len(bodies)]))
	}
	p.metrics["server.decode_us"], err = eachCall(callProbes, time.Microsecond, func(i int) error {
		var rr server.RunRequest
		if err := server.DecodeJSON(pending[i], &rr); err != nil {
			return err
		}
		_, err := rr.Spec(lim)
		return err
	})
	if err != nil {
		return err
	}

	// The first server simulates every request into a fresh store; the
	// second reopens that store and serves them as store hits.
	path := filepath.Join(p.work, fmt.Sprintf("probe-server-%d.store", os.Getpid()))
	defer os.Remove(path)
	if err := p.probeServerHits(path, bodies); err != nil {
		return err
	}
	srv, err := server.New(server.Config{Parallelism: parallelism, StorePath: path})
	if err != nil {
		return err
	}
	defer srv.Close()
	p.metrics["server.store_hit_p50_ms"], err = eachCall(len(bodies), time.Millisecond, func(i int) error {
		rec := serve(srv, "/v1/run", bodies[i])
		return wantOutcome(rec.Code, rec.Body.Bytes(), "store")
	})
	return err
}

// probeServerHits times the cached /v1/run path in-process and over
// loopback, and a cached /v1/sweep, on a store-backed server.
func (p *prober) probeServerHits(path string, bodies [][]byte) error {
	srv, err := server.New(server.Config{Parallelism: parallelism, StorePath: path})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, b := range bodies {
		if rec := serve(srv, "/v1/run", b); rec.Code != http.StatusOK {
			return wantOutcome(rec.Code, rec.Body.Bytes(), "")
		}
	}
	pending := make([]*http.Request, callProbes)
	for i := range pending {
		pending[i] = httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[0]))
	}
	p.metrics["server.handler_hit_us"], err = eachCall(callProbes, time.Microsecond, func(i int) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, pending[i])
		return wantOutcome(rec.Code, rec.Body.Bytes(), "hit")
	})
	if err != nil {
		return err
	}

	var rr server.RunRequest
	if err := json.Unmarshal(bodies[0], &rr); err != nil {
		return err
	}
	sweep, err := json.Marshal(sweepRequestOf(rr, []int{16, 32, 48, 64}))
	if err != nil {
		return err
	}
	sweepOnce := func(int) error {
		rec := serve(srv, "/v1/sweep?wait=1", sweep)
		var resp server.SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("sweep: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if resp.Job.Status != server.JobDone {
			return fmt.Errorf("sweep ended %s: %s", resp.Job.Status, resp.Job.Error)
		}
		return nil
	}
	if err := sweepOnce(0); err != nil {
		return err
	}
	if p.metrics["server.sweep_p50_ms"], err = eachCall(20, time.Millisecond, sweepOnce); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	url := "http://" + ln.Addr().String() + "/v1/run"
	p.metrics["server.rtt_hit_us"], err = eachCall(callProbes, time.Microsecond, func(int) error {
		r := call(p.ctx, client, url, bodies[0])
		if r.err != nil {
			return r.err
		}
		return wantOutcome(r.status, r.body, "hit")
	})
	client.CloseIdleConnections()
	if serr := hs.Shutdown(p.ctx); err == nil {
		err = serr
	}
	if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}
