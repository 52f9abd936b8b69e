package model

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ltp/internal/core"
	"ltp/internal/isa"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/sim"
	"ltp/internal/trace"
	"ltp/internal/workload"
)

var bg = context.Background()

// testStream builds a fresh hashjoin emulator stream; every call
// replays the identical deterministic µop sequence.
func testStream(t testing.TB) prog.Stream {
	t.Helper()
	fam, err := workload.FamilyByName("hashjoin")
	if err != nil {
		t.Fatal(err)
	}
	return prog.NewEmulator(fam.Build(nil, 0.05, 1))
}

// laneSpec is one timing-lane configuration: IQ size plus whether the
// parking unit is attached.
func laneSpec(iq int, useLTP bool, warm, insts uint64) sim.Spec {
	cfg := pipeline.DefaultConfig()
	cfg.IQSize = iq
	var lcfg *core.Config
	if useLTP {
		c := core.DefaultConfig()
		lcfg = &c
	}
	return sim.Spec{
		Pipeline:  cfg,
		LTP:       lcfg,
		WarmInsts: warm,
		MaxInsts:  insts,
	}
}

// TestRunBatchMatchesRun is the batch path's differential fence at the
// backend level: every lane of a RunBatch must be bit-identical to a
// single Run of the same spec on a fresh stream.
func TestRunBatchMatchesRun(t *testing.T) {
	specs := []sim.Spec{
		laneSpec(64, false, 5_000, 10_000),
		laneSpec(32, false, 5_000, 10_000),
		laneSpec(32, true, 5_000, 10_000),
		laneSpec(24, true, 5_000, 10_000),
	}
	b := Backend{}

	singles := make([]sim.Stats, len(specs))
	for i := range specs {
		s := specs[i]
		s.Stream = testStream(t)
		st, err := b.Run(bg, s)
		if err != nil {
			t.Fatalf("single run %d: %v", i, err)
		}
		singles[i] = st
	}

	batch := make([]sim.Spec, len(specs))
	copy(batch, specs)
	batch[0].Stream = testStream(t)
	for i, br := range b.RunBatch(bg, batch) {
		if br.Err != nil {
			t.Fatalf("batch lane %d: %v", i, br.Err)
		}
		if !reflect.DeepEqual(br.Stats, singles[i]) {
			t.Fatalf("batch lane %d diverged from single run:\nbatch:  %+v\nsingle: %+v", i, br.Stats, singles[i])
		}
	}
}

// TestRunBatchHonorsMaxCycles checks a capped lane stops scoring at
// its own budget without disturbing uncapped siblings.
func TestRunBatchHonorsMaxCycles(t *testing.T) {
	free := laneSpec(64, false, 2_000, 20_000)
	capped := free
	capped.MaxCycles = 500

	b := Backend{}
	sc := capped
	sc.Stream = testStream(t)
	cSingle, err := b.Run(bg, sc)
	if err != nil {
		t.Fatal(err)
	}
	sf := free
	sf.Stream = testStream(t)
	fSingle, err := b.Run(bg, sf)
	if err != nil {
		t.Fatal(err)
	}

	batch := []sim.Spec{free, capped}
	batch[0].Stream = testStream(t)
	out := b.RunBatch(bg, batch)
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("lane %d: %v", i, br.Err)
		}
	}
	if !reflect.DeepEqual(out[1].Stats, cSingle) {
		t.Fatalf("capped lane diverged:\nbatch:  %+v\nsingle: %+v", out[1].Stats, cSingle)
	}
	if !reflect.DeepEqual(out[0].Stats, fSingle) {
		t.Fatalf("uncapped lane diverged:\nbatch:  %+v\nsingle: %+v", out[0].Stats, fSingle)
	}
	if cSingle.Committed >= fSingle.Committed {
		t.Fatalf("cap did not bite: capped %d insts vs free %d", cSingle.Committed, fSingle.Committed)
	}
}

// TestRunBatchBudgetMismatch checks admission: lanes that disagree on
// the warm/measured budgets fail individually, the rest proceed.
func TestRunBatchBudgetMismatch(t *testing.T) {
	a := laneSpec(64, false, 2_000, 4_000)
	bad := laneSpec(32, false, 2_000, 8_000) // different measured budget
	c := laneSpec(32, false, 2_000, 4_000)
	batch := []sim.Spec{a, bad, c}
	batch[0].Stream = testStream(t)
	out := Backend{}.RunBatch(bg, batch)
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "budgets") {
		t.Fatalf("mismatched lane err = %v; want budget admission error", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("lane %d: %v", i, out[i].Err)
		}
		if out[i].Stats.Committed == 0 {
			t.Fatalf("lane %d produced no result", i)
		}
	}
}

// TestRunBadPredictorErrors is the mustPredictor regression test: an
// unknown branch predictor must surface as the shared driver's error
// through Run and RunBatch, never as a panic.
func TestRunBadPredictorErrors(t *testing.T) {
	spec := laneSpec(64, false, 1_000, 2_000)
	spec.Pipeline.BranchPred = "no-such-predictor"
	spec.Stream = testStream(t)
	b := Backend{}
	if _, err := b.Run(bg, spec); err == nil || !strings.Contains(err.Error(), "unknown branch predictor") {
		t.Fatalf("Run err = %v; want the unknown-predictor error", err)
	}
	out := b.RunBatch(bg, []sim.Spec{spec})
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "unknown branch predictor") {
		t.Fatalf("RunBatch err = %v; want the unknown-predictor error", out[0].Err)
	}
}

// steadyMachines builds n lanes warmed by the shared checkpoint, as
// RunBatch builds them, drives each to steady state over a runway of
// measured-region µops, and returns the machines with that runway to
// replay through them.
func steadyMachines(t testing.TB, n int, warm, runway uint64) ([]*machine, []isa.Uop) {
	t.Helper()
	specs := make([]sim.Spec, n)
	for i := range specs {
		specs[i] = laneSpec(24+8*i, i%2 == 1, warm, runway)
	}
	specs[0].Stream = testStream(t)
	ms := make([]*machine, n)
	var uops []isa.Uop
	// Runway µops: drive every lane to steady state (structures full,
	// FU epochs initialized, hierarchy past compulsory churn), keeping
	// the tail as the replay body for the fence. Lanes run in order on
	// this goroutine (no Exec), and each reads the same µops from its
	// own clone of the stream.
	lane := func(_ context.Context, spec sim.Spec, w *sim.Warmed) (sim.Stats, error) {
		m := newMachine(spec, w)
		uops = make([]isa.Uop, 0, runway)
		var u isa.Uop
		for uint64(len(uops)) < runway && w.Stream.Next(&u) {
			uops = append(uops, u)
		}
		for k := range uops {
			m.score(&uops[k])
		}
		ms[(spec.Pipeline.IQSize-24)/8] = m
		return sim.Stats{}, nil
	}
	for i, r := range sim.RunBatch(bg, specs, admitModel, lane) {
		if r.Err != nil {
			t.Fatalf("lane %d: %v", i, r.Err)
		}
	}
	return ms, uops
}

// TestScoreAllocsSingle fences the single-lane hot loop at zero
// allocations per µop in steady state.
func TestScoreAllocsSingle(t *testing.T) {
	ms, uops := steadyMachines(t, 1, 5_000, 20_000)
	m := ms[0]
	i := 0
	allocs := testing.AllocsPerRun(5_000, func() {
		m.score(&uops[i%len(uops)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("single-lane score allocates %.1f per µop in steady state; want 0", allocs)
	}
}

// TestScoreAllocsPerLane fences every lane shape of a batch — IQ sizes
// with and without parking, each on its own clone of the checkpoint,
// the parking lanes training their LTP unit on every µop — at zero
// allocations per µop in steady state.
func TestScoreAllocsPerLane(t *testing.T) {
	ms, uops := steadyMachines(t, 4, 5_000, 20_000)
	for lane, m := range ms {
		i := 0
		allocs := testing.AllocsPerRun(5_000, func() {
			m.score(&uops[i%len(uops)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("lane %d (IQ %d, LTP %v) allocates %.1f per µop in steady state; want 0",
				lane, m.cfg.IQSize, m.ltp != nil, allocs)
		}
	}
}

// stubExec records each fan-out and runs its subtasks in reverse order,
// or concurrently on several goroutines.
type stubExec struct {
	concurrent bool
	batches    [][]func(context.Context)
}

func (x *stubExec) RunBatch(ctx context.Context, fns []func(context.Context)) {
	x.batches = append(x.batches, fns)
	if !x.concurrent {
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i](ctx)
		}
		return
	}
	next := make(chan func(context.Context))
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range next {
				fn(ctx)
			}
		}()
	}
	for _, fn := range fns {
		next <- fn
	}
	close(next)
	wg.Wait()
}

func (x *stubExec) Parallelism() int {
	if x.concurrent {
		return 3
	}
	return 1
}

// TestRunBatchLanesIndependent checks that lanes share nothing mutable:
// every admitted lane is its own subtask, and whatever order or
// concurrency the executor picks, each lane's result equals its own Run.
// Lanes that scored on the trainer core itself instead of a clone would
// see each other's training and diverge.
func TestRunBatchLanesIndependent(t *testing.T) {
	tage := laneSpec(32, true, 5_000, 10_000)
	tage.Pipeline.BranchPred = "tage" // a second warm group
	specs := []sim.Spec{
		laneSpec(64, false, 5_000, 10_000),
		laneSpec(32, true, 5_000, 10_000),
		laneSpec(32, false, 5_000, 20_000), // refused: another measured budget
		tage,
		laneSpec(24, true, 5_000, 10_000),
	}
	admitted := []int{0, 1, 3, 4}
	b := Backend{}
	singles := make([]sim.Stats, len(specs))
	for _, i := range admitted {
		s := specs[i]
		s.Stream = testStream(t)
		st, err := b.Run(bg, s)
		if err != nil {
			t.Fatalf("single run %d: %v", i, err)
		}
		singles[i] = st
	}

	for _, concurrent := range []bool{false, true} {
		ex := &stubExec{concurrent: concurrent}
		batch := make([]sim.Spec, len(specs))
		copy(batch, specs)
		for i := range batch {
			batch[i].Exec = ex
		}
		batch[0].Stream = testStream(t)
		out := b.RunBatch(bg, batch)
		if len(ex.batches) != 1 || len(ex.batches[0]) != len(admitted) {
			t.Fatalf("concurrent=%v: executor saw %d fan-outs; want one of %d subtasks", concurrent, len(ex.batches), len(admitted))
		}
		if out[2].Err == nil || !strings.Contains(out[2].Err.Error(), "budgets") {
			t.Fatalf("concurrent=%v: refused lane err = %v; want a budget error", concurrent, out[2].Err)
		}
		for _, i := range admitted {
			if out[i].Err != nil {
				t.Fatalf("concurrent=%v: lane %d: %v", concurrent, i, out[i].Err)
			}
			if !reflect.DeepEqual(out[i].Stats, singles[i]) {
				t.Fatalf("concurrent=%v: lane %d diverged from its own run:\nbatch:  %+v\nsingle: %+v",
					concurrent, i, out[i].Stats, singles[i])
			}
		}
	}
}

// TestRunBatchTraceReplay: a trace reader cannot be cloned, so it
// serves a batch of one — which must equal a single Run over the same
// trace — and a wider batch fails every lane with the shared driver's
// error, as cycle and sampled batches do.
func TestRunBatchTraceReplay(t *testing.T) {
	const warm, insts = 2_000, 6_000
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, "hashjoin", testStream(t), warm+insts); err != nil {
		t.Fatal(err)
	}
	replay := func(spec sim.Spec) sim.Spec {
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		spec.Stream, spec.Reader = r, r
		return spec
	}
	b := Backend{}
	single, err := b.Run(bg, replay(laneSpec(32, true, warm, insts)))
	if err != nil {
		t.Fatal(err)
	}

	out := b.RunBatch(bg, []sim.Spec{replay(laneSpec(32, true, warm, insts))})
	if out[0].Err != nil {
		t.Fatalf("lane 0: %v", out[0].Err)
	}
	if !reflect.DeepEqual(out[0].Stats, single) {
		t.Fatalf("replayed lane diverged from its single run:\nbatch:  %+v\nsingle: %+v", out[0].Stats, single)
	}

	batch := []sim.Spec{replay(laneSpec(32, true, warm, insts)), laneSpec(64, false, warm, insts)}
	batch[1].Reader = batch[0].Reader
	for i, r := range b.RunBatch(bg, batch) {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "clonable") {
			t.Fatalf("lane %d err = %v; want the shared driver's clonable-stream error", i, r.Err)
		}
	}
}

// countingStream counts the µops drawn from one stream instance, by
// Next or FastForward, and the clones taken of it. Its clones are the
// inner stream's own, so lanes reading their clones leave the µop count
// alone.
type countingStream struct {
	inner  prog.Stream
	drawn  uint64
	clones int
}

func (c *countingStream) Next(u *isa.Uop) bool {
	ok := c.inner.Next(u)
	if ok {
		c.drawn++
	}
	return ok
}

func (c *countingStream) FastForward(n uint64, touch func(*isa.Uop)) uint64 {
	did := c.inner.(prog.FastForwarder).FastForward(n, touch)
	c.drawn += did
	return did
}

func (c *countingStream) CloneStream() prog.Stream {
	c.clones++
	return c.inner.(prog.StreamCloner).CloneStream()
}

// TestOneWarmPassPerBatch: every tier warms a batch in one pass over
// the lead stream — IQ {32, 64} × LTP {off, on} plus a TAGE lane as a
// second warm group. Cycle and model lanes draw exactly WarmInsts µops
// from it and measure from their own clones. The sampled tier goes on
// with one measured-region pass for all lanes: the warm region plus at
// most the measured region and the last span's fetch-ahead slack
// (4 ROBs), with no lane cloning the stream.
func TestOneWarmPassPerBatch(t *testing.T) {
	const warm, insts = 5_000, 4_000
	var specs []sim.Spec
	for _, iq := range []int{32, 64} {
		for _, useLTP := range []bool{false, true} {
			specs = append(specs, laneSpec(iq, useLTP, warm, insts))
		}
	}
	tage := laneSpec(48, true, warm, insts)
	tage.Pipeline.BranchPred = "tage"
	specs = append(specs, tage)

	for _, name := range []string{"cycle", "sampled", "model"} {
		backend, err := sim.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		lead := &countingStream{inner: testStream(t)}
		batch := append([]sim.Spec(nil), specs...)
		batch[0].Stream = lead
		for i, r := range backend.RunBatch(bg, batch) {
			if r.Err != nil {
				t.Fatalf("%s lane %d: %v", name, i, r.Err)
			}
			if r.Stats.Committed == 0 {
				t.Fatalf("%s lane %d measured nothing", name, i)
			}
		}
		if name == "sampled" {
			rob := 0
			for _, s := range specs {
				rob = max(rob, s.Pipeline.ROBSize)
			}
			if most := uint64(warm + insts + 4*rob); lead.drawn <= warm || lead.drawn > most {
				t.Fatalf("sampled: the lead stream yielded %d µops; want the %d-µop warm region and one measured pass, at most %d", lead.drawn, warm, most)
			}
			if lead.clones != 0 {
				t.Fatalf("sampled: the lead stream was cloned %d times; want every lane served by the one pass", lead.clones)
			}
			continue
		}
		if lead.drawn != warm {
			t.Fatalf("%s: the lead stream yielded %d µops; want exactly the %d-µop warm region, once", name, lead.drawn, warm)
		}
	}
}
