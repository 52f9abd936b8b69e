package model

import (
	"context"
	"fmt"

	"ltp/internal/isa"
	"ltp/internal/prog"
	"ltp/internal/sim"
)

// Backend implements sim.BatchBackend.
var _ sim.BatchBackend = Backend{}

// warmGroup is one warm-equivalence class inside a batch: lanes whose
// warm-affecting configuration (hierarchy, branch predictor, UIT
// geometry, co-runners) is identical share a single trained core.
type warmGroup struct {
	wc    *warmCore
	lanes []int
}

// warmSig keys the warm-equivalence partition. A caller-provided
// WarmKey is authoritative (equal keys guarantee equal warmed state);
// otherwise the signature is built structurally from every field the
// warm pass reads.
func warmSig(s sim.Spec) string {
	if s.WarmKey != "" {
		return "k:" + s.WarmKey
	}
	uitE, uitW := 0, 0
	if s.LTP != nil {
		uitE, uitW = s.LTP.UITEntries, s.LTP.UITWays
	} else {
		uitE, uitW = -1, -1 // core defaults; distinct from explicit zeroes
	}
	return fmt.Sprintf("s:%+v|%s|%d/%d|%+v", s.Pipeline.Hier, s.Pipeline.BranchPred, uitE, uitW, s.Corunners)
}

// RunBatch evaluates every spec as its own lane. The warm region is
// shared: lanes whose warm-affecting configuration agrees share one
// trained core, and one drive of the stream trains every group the warm
// cache does not already hold. Then each lane runs its measured region
// alone, as one subtask fanned out through the lead spec's Exec, from
// private clones of its group's core and of the stream. Live scoring
// state is thus bounded by the executor's workers, not by the batch's
// width, and every lane is bit-identical to a single Run: it scores the
// same µops from the same warmed state and touches nothing it shares.
func (b Backend) RunBatch(ctx context.Context, specs []sim.Spec) []sim.BatchResult {
	out := make([]sim.BatchResult, len(specs))
	if len(specs) == 0 {
		return out
	}
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i].Err = sim.CancelErr(ctx)
		}
		return out
	}

	// Admission: lanes must share the stream and the region budgets
	// (MaxCycles may differ — a capped lane just stops scoring early).
	lead := specs[0]
	admitted := make([]int, 0, len(specs))
	for i, s := range specs {
		switch {
		case s.Recorder != nil:
			out[i].Err = fmt.Errorf("ltp: trace capture requires the cycle backend")
		case s.WarmInsts != lead.WarmInsts || s.MaxInsts != lead.MaxInsts:
			out[i].Err = fmt.Errorf("ltp: batched model lanes must share warm-up and measured budgets")
		case s.Reader != lead.Reader:
			out[i].Err = fmt.Errorf("ltp: batched model lanes must share one µop stream")
		default:
			admitted = append(admitted, i)
		}
	}
	if len(admitted) == 0 {
		return out
	}
	failAll := func(err error) []sim.BatchResult {
		for _, i := range admitted {
			out[i].Err = err
		}
		return out
	}

	// Partition into warm-equivalence groups and resolve each against
	// the warm cache.
	var groups []*warmGroup
	gindex := make(map[string]*warmGroup)
	for _, i := range admitted {
		sig := warmSig(specs[i])
		g := gindex[sig]
		if g == nil {
			g = &warmGroup{}
			gindex[sig] = g
			groups = append(groups, g)
		}
		g.lanes = append(g.lanes, i)
	}
	var train []*warmGroup
	var stream prog.Stream // the measured region's start
	for _, g := range groups {
		if e := b.warm.lookup(specs[g.lanes[0]].WarmKey); e != nil {
			g.wc, stream = e.wc, e.stream
			continue
		}
		wc, err := newWarmCore(specs[g.lanes[0]])
		if err != nil {
			return failAll(err)
		}
		g.wc = wc
		train = append(train, g)
	}

	// One warm pass trains every uncached group; when the whole batch
	// is warm-cache resident the stream (possibly lazily built by the
	// caller) is never touched and the lanes clone a cached snapshot
	// instead. A trained core is read-only from here on: lanes and the
	// warm cache only ever clone it.
	if len(train) > 0 {
		stream = lead.Stream
		if lead.WarmInsts > 0 {
			warm := train[0].wc.warmObserve
			if len(train) > 1 {
				warm = func(u *isa.Uop) {
					for _, g := range train {
						g.wc.warmObserve(u)
					}
				}
			}
			if err := drive(ctx, stream, lead.WarmInsts, warm); err != nil {
				return failAll(err)
			}
			// Warm-up activity must not leak into measured statistics.
			for _, g := range train {
				g.wc.bp.ResetStats()
				g.wc.hier.ResetStats()
			}
		}
		for _, g := range train {
			b.warm.store(specs[g.lanes[0]], g.wc, stream)
		}
	}

	// One subtask per lane, unweighted like cycle lanes. A stream that
	// cannot be cloned (a trace replay) serves exactly one lane.
	cloner, clonable := stream.(prog.StreamCloner)
	lanes := make([]int, 0, len(admitted))
	fns := make([]func(context.Context) error, 0, len(admitted))
	for _, g := range groups {
		for _, i := range g.lanes {
			if !clonable && len(fns) > 0 {
				out[i].Err = fmt.Errorf("ltp: a µop stream that cannot be cloned (a trace replay) serves one model lane; run each spec alone")
				continue
			}
			lanes = append(lanes, i)
			fns = append(fns, func(lctx context.Context) error {
				s := stream
				if clonable {
					s = cloner.CloneStream()
				}
				var err error
				out[i].Stats, err = b.measure(lctx, specs[i], g.wc.clone(), s)
				return err
			})
		}
	}
	for slot, err := range sim.FanOut(ctx, lead.Exec, nil, fns) {
		if err != nil {
			out[lanes[slot]] = sim.BatchResult{Err: err}
		}
	}
	return out
}

// measure scores one lane's measured region from its private warmed
// core and stream. A MaxCycles safety cap halts the estimate once the
// modeled clock passes it, mirroring the cycle backend's
// measured-region-relative cap.
func (b Backend) measure(ctx context.Context, spec sim.Spec, wc *warmCore, stream prog.Stream) (sim.Stats, error) {
	m := newMachine(b.Cal, spec, wc)
	defer m.release()
	maxCycles := float64(spec.MaxCycles)
	capped := false
	check := ctx.Done() != nil
	var u isa.Uop
	var done uint64
	for done < spec.MaxInsts && stream.Next(&u) {
		m.score(&u)
		done++
		if maxCycles > 0 && m.lastRetire >= maxCycles {
			capped = true
			break
		}
		if check && done&(cancelChunk-1) == 0 && ctx.Err() != nil {
			return sim.Stats{}, sim.CancelErr(ctx)
		}
	}
	if reader := spec.Reader; reader != nil {
		if reader.Err() != nil {
			return sim.Stats{}, fmt.Errorf("ltp: trace replay: %w", reader.Err())
		}
		if done < spec.MaxInsts && !capped {
			return sim.Stats{}, fmt.Errorf(
				"ltp: trace ended after %d of %d measured instructions (warm-up %d): replay with the recording run's budgets",
				done, spec.MaxInsts, spec.WarmInsts)
		}
	}
	return m.snapshot(), nil
}
