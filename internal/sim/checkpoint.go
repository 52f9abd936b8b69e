package sim

import (
	"context"
	"fmt"
	"strings"

	"ltp/internal/bpred"
	"ltp/internal/core"
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

// The warm checkpoint: one fast functional pass over the warm region
// trains the caches, the branch predictor and the LTP classification
// tables, and every lane of a batch starts its measured region from
// that state. The cycle and sampled backends share it — it is the only
// fast-warm implementation in this package — so a sizing sweep's cells
// (IQ × ROB × LTP on/off, which the warm pass never reads) pay for the
// program build and the warm region once per warm group instead of once
// per cell.

// warmCancelChunk bounds how many instructions a fast functional
// warm-up executes between context checks (~a few hundred microseconds
// of emulation).
const warmCancelChunk = 1 << 16

// warmer is the fast-warm touch hook: I-line fetch warming, D-side
// cache warming, branch-predictor training and LTP table observation
// for every attached unit. It carries the I-line dedup state, so one
// warmer warms one contiguous region; a checkpoint hands that state on
// so the sampled tier's continued warming is seamless.
type warmer struct {
	hier      *mem.Hierarchy
	bp        bpred.Predictor
	units     []*core.LTP
	lastILine uint64
}

func (w *warmer) touch(u *isa.Uop) {
	if line := u.PC >> 6; line != w.lastILine {
		w.hier.WarmFetch(u.PC)
		w.lastILine = line
	}
	var level mem.Level
	switch {
	case u.IsMem():
		level = w.hier.Warm(u.PC, u.Addr, u.Op == isa.Store)
	case u.IsBranch():
		w.bp.Lookup(u.PC, u.Taken, u.Target)
	}
	for _, unit := range w.units {
		unit.WarmObserve(u, level)
	}
	w.hier.WarmTick() // co-runner credits accrue per warmed µop
}

// warmed is one lane's private start state: its own hierarchy,
// predictor and (when the lane parks) LTP unit, and its own µop stream
// positioned where the warm region ended.
type warmed struct {
	warmer // units holds the lane's LTP unit, if any
	stream prog.Stream
	insts  uint64 // µops the warm region actually consumed
}

// unit returns the lane's LTP unit (nil without one).
func (w *warmed) unit() *core.LTP {
	if len(w.units) == 0 {
		return nil
	}
	return w.units[0]
}

// checkpoint is one warm group's state at the warm/measured boundary:
// lanes whose hierarchy, branch predictor and co-runners agree see the
// identical warm pass, so they share one hierarchy and predictor. The
// LTP tables depend on the unit's own configuration, so the group warms
// one observer per distinct LTP configuration among its lanes; an
// LTP-off lane simply ignores them.
type checkpoint struct {
	warmer
	observers map[core.Config]*core.LTP
	states    map[core.Config]*core.WarmState // observer snapshots, for cloning lanes
}

// warmSignature keys the warm-group partition with everything the warm
// pass reads besides the LTP configuration. Co-runner traffic patterns
// are compared by identity: lanes resolved together share one captured
// pattern, and distinct captures merely warm separately.
func warmSignature(s Spec) string {
	var b strings.Builder
	h := s.Pipeline.Hier
	if h.DRAM != nil {
		fmt.Fprintf(&b, "dram%+v|", *h.DRAM) // by value: %+v prints a nested pointer's address
		h.DRAM = nil
	}
	fmt.Fprintf(&b, "%+v|%s", h, s.Pipeline.BranchPred)
	for _, c := range s.Corunners {
		fmt.Fprintf(&b, "|%p/%d", c.Pattern, c.Intensity)
	}
	return b.String()
}

// warmCheckpoints partitions specs[lanes] into warm groups, builds one
// checkpoint per group, and drives the shared stream once through the
// warm region for all of them. It returns each lane's checkpoint
// (parallel to lanes) and the µops the warm region consumed (fewer than
// warmInsts only when the stream ended early).
func warmCheckpoints(ctx context.Context, stream prog.Stream, warmInsts uint64, specs []Spec, lanes []int) ([]*checkpoint, uint64, error) {
	var groups []*checkpoint
	owners := make([]*checkpoint, len(lanes))
	index := make(map[string]*checkpoint)
	for j, i := range lanes {
		s := specs[i]
		sig := warmSignature(s)
		g := index[sig]
		if g == nil {
			bp, err := bpred.New(s.Pipeline.BranchPred)
			if err != nil {
				return nil, 0, err
			}
			h := mem.NewHierarchy(s.Pipeline.Hier)
			h.AttachCorunners(s.Corunners)
			g = &checkpoint{
				warmer:    warmer{hier: h, bp: bp, lastILine: ^uint64(0)},
				observers: make(map[core.Config]*core.LTP),
			}
			index[sig] = g
			groups = append(groups, g)
		}
		owners[j] = g
		if s.LTP != nil && g.observers[*s.LTP] == nil {
			u := core.New(*s.LTP, s.Pipeline.Hier.DRAMLatency, s.Pipeline.Hier.TagEarlyLead)
			g.observers[*s.LTP] = u
			g.units = append(g.units, u)
		}
	}
	if warmInsts == 0 {
		return owners, 0, nil
	}

	ff, ok := stream.(prog.FastForwarder)
	if !ok {
		return nil, 0, fmt.Errorf("ltp: fast warm-up needs a fast-forwardable stream; use WarmDetailed")
	}
	touch := groups[0].touch
	if len(groups) > 1 {
		touch = func(u *isa.Uop) {
			for _, g := range groups {
				g.touch(u)
			}
		}
	}
	// Chunk the fast-forward so a cancelled context aborts the warm-up
	// within ~warmCancelChunk emulated instructions.
	var insts uint64
	for insts < warmInsts {
		n := warmInsts - insts
		if ctx.Done() != nil && n > warmCancelChunk {
			n = warmCancelChunk
		}
		did := ff.FastForward(n, touch)
		insts += did
		if ctx.Err() != nil {
			return nil, 0, CancelErr(ctx)
		}
		if did < n {
			break // stream exhausted; warm what there was
		}
	}
	return owners, insts, nil
}

// adopt hands the checkpoint's own state to the batch's only lane: a
// single run pays nothing for the checkpoint.
func (ck *checkpoint) adopt(stream prog.Stream, insts uint64) *warmed {
	return &warmed{warmer: ck.warmer, stream: stream, insts: insts}
}

// seal snapshots every observer so lanes can restore from it. After
// seal the checkpoint is read-only: clone may run on many goroutines.
func (ck *checkpoint) seal() {
	ck.states = make(map[core.Config]*core.WarmState, len(ck.observers))
	for cfg, u := range ck.observers {
		ck.states[cfg] = u.WarmSnapshot()
	}
}

// clone gives one lane deep copies of the sealed checkpoint: its own
// hierarchy, predictor, stream and — when it parks — a fresh LTP unit
// restored from its configuration's observer.
func (ck *checkpoint) clone(spec Spec, stream prog.StreamCloner, insts uint64) *warmed {
	w := &warmed{
		warmer: warmer{hier: ck.hier.Clone(), bp: ck.bp.Clone(), lastILine: ck.lastILine},
		stream: stream.CloneStream(),
		insts:  insts,
	}
	if spec.LTP != nil {
		u := core.New(*spec.LTP, spec.Pipeline.Hier.DRAMLatency, spec.Pipeline.Hier.TagEarlyLead)
		u.WarmRestore(ck.states[*spec.LTP])
		w.units = []*core.LTP{u}
	}
	return w
}

// laneFunc runs one lane's measured region from its private warm state.
type laneFunc func(ctx context.Context, spec Spec, w *warmed) (Stats, error)

// runBatch is the cycle and sampled backends' shared batch driver.
// admit vets each lane against the lead stream; admitted lanes must
// share the stream and the warm budget. One functional pass warms a
// checkpoint per warm group, then every lane runs from its own clone,
// fanned out through the lead spec's Exec. A batch of one adopts its
// checkpoint instead, which makes Run a batch of one at no extra cost.
// Checkpoints are garbage once the last lane has cloned its state.
func runBatch(ctx context.Context, specs []Spec, admit func(Spec, prog.Stream) error, run laneFunc) []BatchResult {
	out := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return out
	}
	if ctx.Err() != nil {
		for i := range out {
			out[i].Err = CancelErr(ctx)
		}
		return out
	}
	lead := specs[0]
	admitted := make([]int, 0, len(specs))
	for i, s := range specs {
		switch err := admit(s, lead.Stream); {
		case err != nil:
			out[i].Err = err
		case s.WarmInsts != lead.WarmInsts:
			out[i].Err = fmt.Errorf("ltp: batched lanes must share the warm-up budget")
		case s.Reader != lead.Reader:
			out[i].Err = fmt.Errorf("ltp: batched lanes must share one µop stream")
		case s.Recorder != nil && len(specs) > 1:
			out[i].Err = fmt.Errorf("ltp: trace capture cannot be batched; record a single run")
		default:
			admitted = append(admitted, i)
		}
	}
	if len(admitted) == 0 {
		return out
	}
	failAll := func(err error) []BatchResult {
		for _, i := range admitted {
			out[i].Err = err
		}
		return out
	}

	stream := lead.Stream
	cloner, ok := stream.(prog.StreamCloner)
	if len(admitted) > 1 && !ok {
		return failAll(fmt.Errorf("ltp: batched lanes need a clonable µop stream"))
	}
	owners, insts, err := warmCheckpoints(ctx, stream, lead.WarmInsts, specs, admitted)
	if err != nil {
		return failAll(err)
	}
	if len(admitted) == 1 {
		i := admitted[0]
		out[i].Stats, out[i].Err = run(ctx, specs[i], owners[0].adopt(stream, insts))
		return out
	}

	// Lanes clone their state when they start, so at most one private
	// copy per running lane is alive at a time.
	fns := make([]func(context.Context) error, len(admitted))
	for slot, i := range admitted {
		g := owners[slot]
		if g.states == nil {
			g.seal()
		}
		fns[slot] = func(lctx context.Context) error {
			var err error
			out[i].Stats, err = run(lctx, specs[i], g.clone(specs[i], cloner, insts))
			return err
		}
	}
	for slot, err := range FanOut(ctx, lead.Exec, nil, fns) {
		if err != nil {
			out[admitted[slot]] = BatchResult{Err: err}
		}
	}
	return out
}

// FanOut runs fns through ex (sequentially in this goroutine when ex is
// nil or there is only one) and returns their errors positionally. A
// panicking fn becomes that fn's error: on a pool worker an unrecovered
// panic would kill the process and strand the batch, so each subtask is
// contained here and always completes. Every backend's lanes and the
// sampled tier's intervals fan out through it; nil costs leave the
// subtasks unweighted, so queued single runs go ahead of them.
func FanOut(ctx context.Context, ex Executor, costs []float64, fns []func(context.Context) error) []error {
	errs := make([]error, len(fns))
	call := func(fctx context.Context, i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("ltp: simulation panicked: %v", p)
			}
		}()
		errs[i] = fns[i](fctx)
	}
	if ex == nil || len(fns) == 1 {
		for i := range fns {
			call(ctx, i)
		}
		return errs
	}
	wrapped := make([]func(context.Context), len(fns))
	for i := range fns {
		wrapped[i] = func(fctx context.Context) { call(fctx, i) }
	}
	ex.RunBatch(ctx, costs, wrapped)
	return errs
}

// abortErr is the error for a pipeline whose Run returned early: its
// own failure (the commit watchdog) when it has one, else the context's
// cancellation.
func abortErr(ctx context.Context, p *pipeline.Pipeline) error {
	if err := p.Err(); err != nil {
		return fmt.Errorf("ltp: %w", err)
	}
	return CancelErr(ctx)
}
