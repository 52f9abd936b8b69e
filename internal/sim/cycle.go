package sim

import (
	"context"
	"fmt"

	"ltp/internal/core"
	"ltp/internal/pipeline"
)

func init() { Register(CycleBackend{}) }

// CycleBackend is the reference execution backend: the cycle-accurate
// out-of-order pipeline (internal/pipeline) with fast or detailed
// warm-up and full trace record/replay support. It is the fidelity
// every other backend is calibrated against.
type CycleBackend struct{}

// Name returns "cycle".
func (CycleBackend) Name() string { return "cycle" }

// Fidelity returns FidelityCycle.
func (CycleBackend) Fidelity() Fidelity { return FidelityCycle }

// About returns the backend's one-line description.
func (CycleBackend) About() string {
	return "cycle-accurate out-of-order pipeline (the reference; supports warm-up modes, traces, oracles)"
}

// CancelErr normalizes a cancellation observed mid-run into the
// context's own error (the cancellation cause when one was supplied).
// It is the single definition every backend and the public package
// share, so cancellation reporting cannot diverge between layers.
func CancelErr(ctx context.Context) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// Run executes one simulation through the detailed pipeline: a batch
// of one. Cancellation is honoured at every phase boundary and —
// cheaply, every couple of thousand cycles — inside the detailed
// simulation loop and the fast warm-up, so a multi-minute run aborts
// within about a millisecond of cancel.
func (b CycleBackend) Run(ctx context.Context, spec Spec) (Stats, error) {
	r := b.RunBatch(ctx, []Spec{spec})[0]
	return r.Stats, r.Err
}

// RunBatch implements BatchBackend: one fast warm pass warms each warm
// group (hierarchy, branch predictor, co-runners) and every lane's
// measured region runs from its own take of the group's snapshot; a
// batch of one takes the snapshot without cloning. A detailed warm-up cannot
// share a warm pass: a lone detailed-warm lane runs the full pipeline
// over its warm region too, and in a larger batch such lanes fail.
func (CycleBackend) RunBatch(ctx context.Context, specs []Spec) []BatchResult {
	if len(specs) == 1 && specs[0].WarmDetailed && specs[0].WarmInsts > 0 {
		st, err := runDetailedWarm(ctx, specs[0])
		return []BatchResult{{Stats: st, Err: err}}
	}
	return RunBatch(ctx, specs, admitCycle, runCycleLane)
}

var _ BatchBackend = CycleBackend{}

func admitCycle(spec, _ Spec) error {
	if spec.WarmDetailed && spec.WarmInsts > 0 {
		return fmt.Errorf("ltp: a detailed warm-up cannot share a warm checkpoint; run it alone")
	}
	return nil
}

// runCycleLane runs one cycle lane's measured region from its warmed
// state.
func runCycleLane(ctx context.Context, spec Spec, w *Warmed) (Stats, error) {
	var parker pipeline.Parker = pipeline.NullParker{}
	unit := w.Unit
	if unit != nil {
		parker = unit
	}
	p := pipeline.NewShared(spec.Pipeline, w.Stream, parker, w.Hier, w.BP)
	defer p.Release()
	if done := ctx.Done(); done != nil {
		p.SetCancel(done)
	}
	if spec.WarmInsts > 0 {
		if unit != nil {
			unit.WarmFinish(p.Now())
		}
		// Warm-up activity must not leak into measured statistics.
		p.BP.ResetStats()
		p.Hier.ResetStats()
	}
	return measureCycle(ctx, spec, p, unit)
}

// runDetailedWarm is the reference warm-up: the warm region runs
// through the full pipeline, then every statistic resets at the
// boundary.
func runDetailedWarm(ctx context.Context, spec Spec) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, CancelErr(ctx)
	}
	pcfg := spec.Pipeline
	var parker pipeline.Parker = pipeline.NullParker{}
	var unit *core.LTP
	if spec.LTP != nil {
		unit = core.New(*spec.LTP, pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
		parker = unit
	}
	p := pipeline.New(pcfg, spec.Stream, parker)
	defer p.Release()
	p.Hier.AttachCorunners(spec.Corunners)
	if done := ctx.Done(); done != nil {
		p.SetCancel(done)
	}
	p.Run(spec.WarmInsts, 0)
	if p.Aborted() {
		return Stats{}, abortErr(ctx, p)
	}
	p.ResetStats()
	return measureCycle(ctx, spec, p, unit)
}

// measureCycle runs the measured region on a warmed pipeline and
// collects its statistics.
func measureCycle(ctx context.Context, spec Spec, p *pipeline.Pipeline, unit *core.LTP) (Stats, error) {
	// Cap cycles relative to the measured region's start so both warm
	// modes interpret MaxCycles identically.
	maxCycles := spec.MaxCycles
	if maxCycles > 0 {
		maxCycles += p.Now()
	}
	startCommitted := p.Committed()
	p.Run(startCommitted+spec.MaxInsts, maxCycles)
	if p.Aborted() {
		return Stats{}, abortErr(ctx, p)
	}

	// A trace source that went corrupt mid-run, a capture that hit an IO
	// error, or a trace too short for the requested budgets must fail
	// the run rather than return silent partials.
	if spec.Recorder != nil {
		if err := spec.Recorder.Close(); err != nil {
			return Stats{}, fmt.Errorf("ltp: trace capture: %w", err)
		}
	}
	if spec.Reader != nil {
		if spec.Reader.Err() != nil {
			return Stats{}, fmt.Errorf("ltp: trace replay: %w", spec.Reader.Err())
		}
		if done := p.Committed() - startCommitted; done < spec.MaxInsts && (maxCycles == 0 || p.Now() < maxCycles) {
			return Stats{}, fmt.Errorf(
				"ltp: trace ended after %d of %d measured instructions (warm-up %d): replay with the recording run's budgets",
				done, spec.MaxInsts, spec.WarmInsts)
		}
	}

	st := Stats{Result: p.Snapshot()}
	if unit != nil {
		s := snapshotLTP(unit)
		st.LTP = &s
	}
	return st, nil
}

// snapshotLTP collects the parking unit's statistics.
func snapshotLTP(u *core.LTP) LTPStats {
	return LTPStats{
		AvgInsts:      u.OccInsts.Mean(),
		AvgRegs:       u.OccRegs.Mean(),
		AvgLoads:      u.OccLoads.Mean(),
		AvgStores:     u.OccStores.Mean(),
		EnabledFrac:   u.Monitor().EnabledFraction(),
		ParkedTotal:   u.ParkedTotal,
		WokenTotal:    u.WokenTotal,
		ForcedParks:   u.ForcedParks,
		PressureWakes: u.PressureWakes,
		Enqueues:      u.Enqueues,
		Dequeues:      u.Dequeues,
		ClassUrgent:   u.ClassUrgent,
		ClassNonReady: u.ClassNonReady,
		UITLen:        u.UITTable().Len(),
		LLPredAcc:     u.Predictor().Accuracy(),
		TicketsFull:   u.TicketsExhausted,
	}
}
