package model

import (
	"context"
	"fmt"

	"ltp/internal/isa"
	"ltp/internal/sim"
)

// Backend implements sim.BatchBackend.
var _ sim.BatchBackend = Backend{}

// RunBatch evaluates every spec as its own lane through the shared
// batch driver, sim.RunBatch: one functional pass warms each warm group,
// exactly as for the cycle and sampled tiers, and each lane scores its
// measured region from its own take of the group's snapshot, one
// subtask per lane fanned out through the lead spec's Exec. Every lane
// is bit-identical to a single Run: it scores the same µops from the
// same warmed state and touches nothing it shares.
func (b Backend) RunBatch(ctx context.Context, specs []sim.Spec) []sim.BatchResult {
	return sim.RunBatch(ctx, specs, admitModel, b.measure)
}

// admitModel refuses trace capture and co-runners (the model has no
// MSHR or DRAM timing for their traffic) and requires the lead's
// budgets: model lanes share the measured budget as well as the warm
// one.
func admitModel(spec, lead sim.Spec) error {
	switch {
	case spec.Recorder != nil:
		return fmt.Errorf("ltp: trace capture requires the cycle backend")
	case len(spec.Corunners) > 0:
		return fmt.Errorf("ltp: co-runner contention requires the cycle or sampled backend")
	case spec.WarmInsts != lead.WarmInsts || spec.MaxInsts != lead.MaxInsts:
		return fmt.Errorf("ltp: batched model lanes must share warm-up and measured budgets")
	}
	return nil
}

// measure scores one lane's measured region from its warmed state. A
// MaxCycles safety cap halts the estimate once the modeled clock passes
// it, mirroring the cycle backend's measured-region-relative cap.
func (b Backend) measure(ctx context.Context, spec sim.Spec, w *sim.Warmed) (sim.Stats, error) {
	if spec.WarmInsts > 0 {
		// Warm-up activity must not leak into measured statistics.
		w.BP.ResetStats()
		w.Hier.ResetStats()
	}
	m := newMachine(spec, w)
	defer m.release()
	stream := w.Stream
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
