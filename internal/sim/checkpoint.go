package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"ltp/internal/bpred"
	"ltp/internal/core"
	"ltp/internal/isa"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
)

// The warm checkpoint: one fast functional pass over the warm region
// (startBatch) trains each warm group's caches, branch predictor and LTP
// classification tables, and every lane of a batch — or, on the sampled
// tier, every interval — takes its start state from a snapshot of that
// group. All three tiers share the pass and the snapshot, and no backend
// warms any other way, so a sizing sweep's cells (IQ × ROB × LTP on/off,
// which the warm pass never reads) pay for the program build and the
// warm region once per warm group instead of once per cell.

// warmCancelChunk bounds how many instructions a fast functional
// warm-up executes between context checks (~a few hundred microseconds
// of emulation).
const warmCancelChunk = 1 << 16

// warmer is the fast-warm touch hook: I-line fetch warming, D-side
// cache warming, branch-predictor training and LTP table observation
// for every attached unit. It carries the I-line dedup state, so one
// warmer warms one contiguous region: the sampled tier's measured-region
// pass goes on with the warm pass's own warmers.
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

// Warmed is one lane's private start state: its own hierarchy,
// predictor and (when the lane parks) LTP unit, and its own µop stream
// positioned where the warm region ended.
type Warmed struct {
	Hier   *mem.Hierarchy  // the lane's warmed memory hierarchy
	BP     bpred.Predictor // the lane's warmed branch predictor
	Unit   *core.LTP       // the lane's warmed LTP unit (nil without one)
	Stream prog.Stream     // the lane's µop stream, at the measured region
}

// warmGroup is one warm group's live state: lanes whose hierarchy,
// branch predictor and co-runners agree see the identical warm pass, so
// they share one hierarchy and predictor. The LTP tables depend on the
// unit's own configuration, so the group warms one observer per
// distinct LTP configuration among its lanes; an LTP-off lane simply
// ignores them.
type warmGroup struct {
	warmer
	observers map[core.Config]*core.LTP
}

// snapshot is one warm group's state at one stream position — the warm
// boundary for a batch's lanes, an interval start for the sampled
// pass's intervals — shared by the takers that start there: a
// hierarchy, a predictor, and the WarmState of each LTP configuration
// its takers run.
type snapshot struct {
	hier   *mem.Hierarchy
	bp     bpred.Predictor
	ltp    map[core.Config]*core.WarmState
	serves int // takers that start from the snapshot

	mu    sync.Mutex
	taken int // of those, how many have taken their state
}

// snapshots returns each taker's snapshot: one per distinct warm group
// among owners (taker i starts from owners[i] and, when ltps[i] is set,
// parks with that configuration). At the warm boundary a snapshot holds
// its group's live hierarchy and predictor; the sampled pass, which
// goes on warming them, snapshots clones.
func snapshots(owners []*warmGroup, ltps []*core.Config, clone bool) []*snapshot {
	byGroup := make(map[*warmGroup]*snapshot)
	out := make([]*snapshot, len(owners))
	for i, g := range owners {
		s := byGroup[g]
		if s == nil {
			s = &snapshot{hier: g.hier, bp: g.bp, ltp: make(map[core.Config]*core.WarmState)}
			if clone {
				s.hier, s.bp = g.hier.Clone(), g.bp.Clone()
			}
			byGroup[g] = s
		}
		if c := ltps[i]; c != nil && s.ltp[*c] == nil {
			s.ltp[*c] = g.observers[*c].WarmSnapshot()
		}
		s.serves++
		out[i] = s
	}
	return out
}

// take gives one taker its private warm state: a copy-on-write clone of
// the snapshot's hierarchy and predictor (the snapshot's own, when the
// taker is its only one) and, when the spec parks, a fresh LTP unit
// restored from its configuration's WarmState. The last taker releases
// the snapshot. take may run on many goroutines.
func (s *snapshot) take(spec Spec) (*mem.Hierarchy, bpred.Predictor, *core.LTP) {
	var unit *core.LTP
	if spec.LTP != nil {
		unit = core.New(*spec.LTP, spec.Pipeline.Hier.DRAMLatency, spec.Pipeline.Hier.TagEarlyLead)
		unit.WarmRestore(s.ltp[*spec.LTP])
	}
	h, bp := s.hier, s.bp
	if s.serves > 1 {
		h, bp = h.Clone(), bp.Clone()
	}
	s.mu.Lock()
	s.taken++
	last := s.taken == s.serves
	s.mu.Unlock()
	if last {
		if s.serves > 1 {
			s.hier.Release()
			bpred.Release(s.bp)
		}
		s.hier, s.bp, s.ltp = nil, nil, nil
	}
	return h, bp, unit
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

// warmBatch is a batch after admission and the shared warm pass: the
// admitted lanes, their warm groups, and how far the pass got. The lead
// spec's stream is positioned where the warm region ended.
type warmBatch struct {
	out    []BatchResult // per spec; refused lanes already hold their error
	lanes  []int         // admitted lanes, indices into the specs
	owners []*warmGroup  // each admitted lane's warm group, parallel to lanes
	groups []*warmGroup  // the distinct warm groups, in first-lane order
	insts  uint64        // µops the warm region consumed
}

// fail fails every admitted lane with err.
func (b *warmBatch) fail(err error) {
	for _, i := range b.lanes {
		b.out[i].Err = err
	}
}

// touch is the touch hook that warms every group in one pass.
func (b *warmBatch) touch() func(*isa.Uop) {
	if len(b.groups) == 1 {
		return b.groups[0].touch
	}
	return func(u *isa.Uop) {
		for _, g := range b.groups {
			g.touch(u)
		}
	}
}

// startBatch admits specs against the lead spec (specs[0]) — admitted
// lanes must also share the stream and the warm budget — partitions the
// admitted lanes into warm groups, and
// drives the lead stream once through the warm region for all of them.
// It returns every lane's outcome so far, and a nil batch when no lane
// is left to run.
func startBatch(ctx context.Context, specs []Spec, admit func(spec, lead Spec) error) ([]BatchResult, *warmBatch) {
	out := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return out, nil
	}
	if ctx.Err() != nil {
		for i := range out {
			out[i].Err = CancelErr(ctx)
		}
		return out, nil
	}
	lead := specs[0]
	b := &warmBatch{out: out}
	for i, s := range specs {
		switch err := admit(s, lead); {
		case err != nil:
			out[i].Err = err
		case s.WarmInsts != lead.WarmInsts:
			out[i].Err = fmt.Errorf("ltp: batched lanes must share the warm-up budget")
		case s.Reader != lead.Reader:
			out[i].Err = fmt.Errorf("ltp: batched lanes must share one µop stream")
		case s.Recorder != nil && len(specs) > 1:
			out[i].Err = fmt.Errorf("ltp: trace capture cannot be batched; record a single run")
		default:
			b.lanes = append(b.lanes, i)
		}
	}
	if len(b.lanes) == 0 {
		return out, nil
	}

	index := make(map[string]*warmGroup)
	b.owners = make([]*warmGroup, len(b.lanes))
	for j, i := range b.lanes {
		s := specs[i]
		sig := warmSignature(s)
		g := index[sig]
		if g == nil {
			bp, err := bpred.New(s.Pipeline.BranchPred)
			if err != nil {
				b.fail(err)
				return out, nil
			}
			h := mem.NewHierarchy(s.Pipeline.Hier)
			h.AttachCorunners(s.Corunners)
			g = &warmGroup{
				warmer:    warmer{hier: h, bp: bp, lastILine: ^uint64(0)},
				observers: make(map[core.Config]*core.LTP),
			}
			index[sig] = g
			b.groups = append(b.groups, g)
		}
		b.owners[j] = g
		if s.LTP != nil && g.observers[*s.LTP] == nil {
			u := core.New(*s.LTP, s.Pipeline.Hier.DRAMLatency, s.Pipeline.Hier.TagEarlyLead)
			g.observers[*s.LTP] = u
			g.units = append(g.units, u)
		}
	}
	if lead.WarmInsts == 0 {
		return out, b
	}

	ff, ok := lead.Stream.(prog.FastForwarder)
	if !ok {
		b.fail(fmt.Errorf("ltp: fast warm-up needs a fast-forwardable stream; use WarmDetailed"))
		return out, nil
	}
	touch := b.touch()
	// Chunk the fast-forward so a cancelled context aborts the warm-up
	// within ~warmCancelChunk emulated instructions.
	for b.insts < lead.WarmInsts {
		n := lead.WarmInsts - b.insts
		if ctx.Done() != nil && n > warmCancelChunk {
			n = warmCancelChunk
		}
		did := ff.FastForward(n, touch)
		b.insts += did
		if ctx.Err() != nil {
			b.fail(CancelErr(ctx))
			return out, nil
		}
		if did < n {
			break // stream exhausted; warm what there was
		}
	}
	return out, b
}

// LaneFunc runs one lane's measured region from its private warm state.
type LaneFunc func(ctx context.Context, spec Spec, w *Warmed) (Stats, error)

// RunBatch is the cycle and model backends' batch driver (the sampled
// backend shares its admission and warm pass, startBatch, and goes on
// with one measured-region pass of its own). admit vets each lane
// against the lead spec (specs[0]). One functional pass warms each warm
// group, which is snapshotted at the warm boundary; every lane takes its
// state from its group's snapshot as it starts — so at most one private
// copy per running lane is alive at a time — and the lanes fan out
// through the lead spec's Exec. A batch of one takes the snapshot's own
// state, which makes Run a batch of one at no extra cost.
func RunBatch(ctx context.Context, specs []Spec, admit func(spec, lead Spec) error, run LaneFunc) []BatchResult {
	out, b := startBatch(ctx, specs, admit)
	if b == nil {
		return out
	}
	stream := specs[0].Stream
	cloner, ok := stream.(prog.StreamCloner)
	if !ok && len(b.lanes) > 1 {
		b.fail(fmt.Errorf("ltp: batched lanes need a clonable µop stream"))
		return out
	}
	ltps := make([]*core.Config, len(b.lanes))
	for slot, i := range b.lanes {
		ltps[slot] = specs[i].LTP
	}
	snaps := snapshots(b.owners, ltps, false)
	fns := make([]func(context.Context) error, len(b.lanes))
	for slot, i := range b.lanes {
		fns[slot] = func(lctx context.Context) error {
			w := &Warmed{Stream: stream}
			if len(b.lanes) > 1 {
				w.Stream = cloner.CloneStream()
			}
			w.Hier, w.BP, w.Unit = snaps[slot].take(specs[i])
			var err error
			out[i].Stats, err = run(lctx, specs[i], w)
			return err
		}
	}
	for slot, err := range FanOut(ctx, specs[0].Exec, fns) {
		if err != nil {
			out[b.lanes[slot]] = BatchResult{Err: err}
		}
	}
	return out
}

// FanOut runs fns through ex (sequentially in this goroutine when ex is
// nil or there is only one) and returns their errors positionally. A
// panicking fn becomes that fn's error: on a pool worker an unrecovered
// panic would kill the process and strand the batch, so each subtask is
// contained here and always completes. Every backend's lanes and the
// sampled tier's intervals fan out through it.
func FanOut(ctx context.Context, ex Executor, fns []func(context.Context) error) []error {
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
	ex.RunBatch(ctx, wrapped)
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
