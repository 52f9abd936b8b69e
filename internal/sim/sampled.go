package sim

import (
	"bytes"
	"context"
	"fmt"

	"ltp/internal/bpred"
	"ltp/internal/core"
	"ltp/internal/mem"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/stats"
	"ltp/internal/trace"
)

func init() { Register(SampledBackend{}) }

// SampledBackend is the interval-sampling fidelity tier between the
// analytical model and the cycle-accurate reference (SMARTS-style).
// One functional pass streams the whole run through the fast-warm
// touch hooks, recording each interval's replayed span as a seekable
// µop trace; at each of K interval boundaries it checkpoints the warm
// state (caches, branch predictor, LTP tables) and the trace position.
// A 1/K slice of each interval — preceded by a short detailed-but-
// unmeasured ramp that keeps the pipeline-fill transient out of the
// sample — is then simulated cycle-accurately from its checkpoint.
// The intervals are independent, so they run concurrently on the
// scheduler pool when Spec.Exec is set, and the per-interval CPIs are
// stitched into a whole-run estimate with a Student-t sampling CI.
//
// Total detailed work is MaxInsts/K instructions plus the ramps, so
// wall-clock approaches the functional-pass floor as K grows. K=1
// measures the entire region from the single warm checkpoint and
// reproduces the cycle backend's result bit-for-bit.
type SampledBackend struct{}

// Name returns "sampled".
func (SampledBackend) Name() string { return "sampled" }

// Fidelity returns FidelitySampled.
func (SampledBackend) Fidelity() Fidelity { return FidelitySampled }

// About returns the backend's one-line description.
func (SampledBackend) About() string {
	return "interval-sampled pipeline: K checkpointed measurement windows under continuous functional warming, CPI reported with a sampling CI"
}

// sampleCheckpoint is one interval boundary's warm-state checkpoint:
// the trace position to reopen at plus deep copies of everything the
// fast warm-up trains.
type sampleCheckpoint struct {
	pos  trace.Pos
	hier *mem.Hierarchy
	bp   bpred.Predictor
	ltp  *core.WarmState

	start  uint64 // interval start within the measured region
	length uint64 // interval length
	sample uint64 // measured sample length
	ramp   uint64 // detailed-but-unmeasured µops run before the sample
}

// Run executes one interval-sampled simulation (a batch of one).
func (b SampledBackend) Run(ctx context.Context, spec Spec) (Stats, error) {
	r := b.RunBatch(ctx, []Spec{spec})[0]
	return r.Stats, r.Err
}

// RunBatch implements BatchBackend: the warm region is warmed once per
// warm group into a shared checkpoint, and each lane's phase A
// continues from its own clone of it.
func (SampledBackend) RunBatch(ctx context.Context, specs []Spec) []BatchResult {
	return RunBatch(ctx, specs, admitSampled, runSampledLane)
}

var _ BatchBackend = SampledBackend{}

func admitSampled(spec, lead Spec) error {
	switch {
	case spec.Recorder != nil:
		return fmt.Errorf("ltp: the sampled backend cannot capture traces; record with the cycle backend")
	case spec.WarmDetailed:
		return fmt.Errorf("ltp: the sampled backend warms functionally; detailed warm-up needs the cycle backend")
	case spec.LTP != nil && spec.LTP.Oracle != nil:
		return fmt.Errorf("ltp: the sampled backend does not support oracle urgency")
	case spec.MaxInsts == 0:
		return fmt.Errorf("ltp: the sampled backend needs MaxInsts > 0")
	}
	if _, ok := lead.Stream.(prog.FastForwarder); !ok {
		return fmt.Errorf("ltp: the sampled backend needs a fast-forwardable stream")
	}
	return nil
}

// runSampledLane runs one sampled lane from its warmed state: phase A
// keeps warming through the measured region and checkpoints every
// interval, phase B simulates the intervals.
func runSampledLane(ctx context.Context, spec Spec, w *Warmed) (Stats, error) {
	k := spec.Intervals
	if k < 1 {
		k = 1
	}
	if uint64(k) > spec.MaxInsts {
		k = int(spec.MaxInsts)
	}
	pcfg := spec.Pipeline

	// Phase A: one continuous functional pass — warm the touch hooks
	// over the measured region, recording only the spans the intervals
	// replay (each interval's ramp + sample plus fetch-ahead slack) as
	// a seekable trace, and checkpointing at each interval start. The
	// gaps between spans fast-forward without the encoder: they exist
	// only to keep the warm state continuous, and skipping their
	// serialization is what keeps phase A far cheaper than the cycle
	// backend as K grows.
	ff, ok := w.stream.(prog.FastForwarder)
	if !ok {
		return Stats{}, fmt.Errorf("ltp: the sampled backend needs a fast-forwardable stream")
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(w.stream, &buf, "sampled")
	unit := w.Unit()
	touch := w.touch

	// The pipeline reads at most about a ROB's worth of µops beyond the
	// sample's last committed instruction (the replay buffer bounds
	// fetch-ahead), so a few ROBs of slack per span is generous.
	slack := 4 * uint64(pcfg.ROBSize)

	pos := w.insts      // µops pulled from the source so far
	var recUntil uint64 // absolute position recording must reach
	// advance pulls µops through touch up to absolute position to,
	// recording them while inside a replayed span (pos < recUntil) and
	// skipping the encoder otherwise, chunked so cancellation is
	// honoured mid-warm. A short read is left for the callers' position
	// checks.
	advance := func(to uint64) error {
		for pos < to {
			step := to - pos
			src := ff
			if pos < recUntil {
				if m := recUntil - pos; m < step {
					step = m
				}
				src = rec
			}
			if ctx.Done() != nil && step > warmCancelChunk {
				step = warmCancelChunk
			}
			got := src.FastForward(step, touch)
			pos += got
			if err := ctx.Err(); err != nil {
				return CancelErr(ctx)
			}
			if got < step {
				return nil
			}
		}
		return nil
	}

	cks := make([]sampleCheckpoint, k)
	for i := 0; i < k; i++ {
		start := uint64(i) * spec.MaxInsts / uint64(k)
		end := uint64(i+1) * spec.MaxInsts / uint64(k)
		sample := (end - start) / uint64(k)
		if sample == 0 {
			sample = 1
		}
		// A fresh pipeline spends its first couple of ROBs of
		// instructions filling up; running that transient detailed but
		// unmeasured keeps it out of the sample. K=1 has no slack
		// (sample == interval) and stays bit-for-bit cycle-equal.
		ramp := 2 * uint64(pcfg.ROBSize)
		if ramp > end-start-sample {
			ramp = end - start - sample
		}
		abs := spec.WarmInsts + start
		if err := advance(abs); err != nil {
			return Stats{}, err
		}
		if pos < abs {
			return Stats{}, fmt.Errorf(
				"ltp: stream ended after %d µops; the sampled run needs %d (warm-up %d + measured %d)",
				pos, spec.WarmInsts+spec.MaxInsts, spec.WarmInsts, spec.MaxInsts)
		}
		cks[i] = sampleCheckpoint{
			pos:    rec.Pos(),
			hier:   w.hier.Clone(),
			bp:     w.bp.Clone(),
			start:  start,
			length: end - start,
			sample: sample,
			ramp:   ramp,
		}
		if unit != nil {
			cks[i].ltp = unit.WarmSnapshot()
		}
		if seg := abs + ramp + sample + slack; seg > recUntil {
			recUntil = seg
		}
	}
	// Record the last interval's remaining span; a source too short for
	// a sample is caught by the per-interval replay check below.
	if err := advance(recUntil); err != nil {
		return Stats{}, err
	}
	if err := rec.Close(); err != nil {
		return Stats{}, fmt.Errorf("ltp: sampled trace capture: %w", err)
	}

	// Phase B: simulate each interval's sample from its checkpoint.
	// bytes.Reader.ReadAt is stateless, so all intervals share one.
	br := bytes.NewReader(buf.Bytes())
	results := make([]Stats, k)
	fns := make([]func(context.Context) error, k)
	costs := make([]float64, k)
	for i := range fns {
		costs[i] = float64(cks[i].sample)
		fns[i] = func(ictx context.Context) (err error) {
			results[i], err = runSampledInterval(ictx, spec, &cks[i], br, i)
			return err
		}
	}
	errs := FanOut(ctx, spec.Exec, costs, fns)
	if err := ctx.Err(); err != nil {
		return Stats{}, CancelErr(ctx)
	}
	for _, err := range errs {
		if err != nil {
			return Stats{}, err
		}
	}

	var sampledInsts uint64
	for i := range results {
		sampledInsts += results[i].Committed
	}
	if k == 1 {
		// The single interval is the whole measured region: pass its
		// stats through untouched (bit-for-bit the cycle backend's
		// result) and attach the sampling annotation.
		st := results[0]
		st.Sampling = &SamplingStats{
			Intervals:    1,
			SampledInsts: sampledInsts,
			CPI:          stats.Summarize([]float64{st.CPI}),
		}
		return st, nil
	}
	return stitchSampled(cks, results, sampledInsts), nil
}

// runSampledInterval replays one interval's measured sample on a fresh
// pipeline seeded with the checkpoint's warm state. The replayed µops
// keep their recording-run sequence numbers, so squash bookkeeping and
// commit-order checks behave exactly as in an unsampled run.
func runSampledInterval(ctx context.Context, spec Spec, ck *sampleCheckpoint, src *bytes.Reader, idx int) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, CancelErr(ctx)
	}
	pcfg := spec.Pipeline
	rd := trace.NewReaderAt(src, ck.pos)
	var parker pipeline.Parker = pipeline.NullParker{}
	var unit *core.LTP
	if spec.LTP != nil {
		unit = core.New(*spec.LTP, pcfg.Hier.DRAMLatency, pcfg.Hier.TagEarlyLead)
		unit.WarmRestore(ck.ltp)
		parker = unit
	}
	p := pipeline.NewShared(pcfg, rd, parker, ck.hier, ck.bp)
	defer p.Release()
	if done := ctx.Done(); done != nil {
		p.SetCancel(done)
	}
	// Mirror the cycle backend's warm/measured boundary: WarmFinish
	// and statistic resets happen whenever any warming preceded this
	// point — the spec's warm region, or earlier intervals functionally
	// warmed during phase A.
	if spec.WarmInsts > 0 || idx > 0 {
		if unit != nil {
			unit.WarmFinish(p.Now())
		}
		p.BP.ResetStats()
		p.Hier.ResetStats()
	}
	maxCycles := uint64(0)
	if spec.MaxCycles > 0 {
		// The interval's proportional share of the whole-run cap
		// (exact for K=1, where sample == MaxInsts).
		maxCycles = (spec.MaxCycles*(ck.ramp+ck.sample) + spec.MaxInsts - 1) / spec.MaxInsts
		maxCycles += p.Now()
	}
	if ck.ramp > 0 {
		// Detailed-but-unmeasured ramp: run the pipeline-fill transient
		// out before the sample, then reset every statistic at the
		// boundary (exactly the cycle backend's detailed-warm reset).
		p.Run(ck.ramp, maxCycles)
		if p.Aborted() {
			return Stats{}, abortErr(ctx, p)
		}
		p.ResetStats()
	}
	ramped := p.Committed()
	p.Run(ramped+ck.sample, maxCycles)
	if p.Aborted() {
		return Stats{}, abortErr(ctx, p)
	}
	if rd.Err() != nil {
		return Stats{}, fmt.Errorf("ltp: sampled interval %d replay: %w", idx, rd.Err())
	}
	if done := p.Committed() - ramped; done < ck.sample && (maxCycles == 0 || p.Now() < maxCycles) {
		return Stats{}, fmt.Errorf(
			"ltp: sampled interval %d ended after %d of %d instructions", idx, done, ck.sample)
	}
	st := Stats{Result: p.Snapshot()}
	if unit != nil {
		s := snapshotLTP(unit)
		st.LTP = &s
	}
	return st, nil
}

// sampleScale rounds u scaled by w to the nearest integer.
func sampleScale(u uint64, w float64) uint64 {
	return uint64(float64(u)*w + 0.5)
}

// stitchSampled combines per-interval sample measurements into a
// whole-run estimate. The headline CPI is the unweighted mean of the
// per-interval CPIs (each interval represents an equal share of the
// run), with a Student-t 95% CI from their dispersion. Additive
// counters are scaled by each interval's inverse coverage
// (length/measured) and summed; time-averaged occupancies are
// cycle-weighted means; latency and rate metrics are weighted by their
// natural denominators.
func stitchSampled(cks []sampleCheckpoint, sts []Stats, sampledInsts uint64) Stats {
	var out pipeline.Result
	var ltpOut LTPStats
	haveLTP := false

	cpis := make([]float64, 0, len(sts))
	var cycles, committed, loads, memOps float64
	var mlp, avgIQ, avgROB, avgLQ, avgSQ, avgIntRF, avgFPRF, avgWIB float64
	var loadLat, l1dMiss float64
	var ltpInsts, ltpRegs, ltpLoads, ltpStores, ltpEnabled, ltpAcc float64

	for i := range sts {
		r := &sts[i].Result
		if r.Committed == 0 {
			continue
		}
		w := float64(cks[i].length) / float64(r.Committed)
		cpis = append(cpis, r.CPI)

		c := float64(r.Cycles)
		n := float64(r.Committed)
		cycles += c
		committed += n
		loads += float64(r.Loads)
		memOps += float64(r.Loads + r.Stores)

		out.Committed += sampleScale(r.Committed, w)
		out.Fetched += sampleScale(r.Fetched, w)
		out.Squashes += sampleScale(r.Squashes, w)
		out.Loads += sampleScale(r.Loads, w)
		out.Stores += sampleScale(r.Stores, w)
		for lv := range r.LoadLevel {
			out.LoadLevel[lv] += sampleScale(r.LoadLevel[lv], w)
		}
		out.DemandDRAM += sampleScale(r.DemandDRAM, w)
		out.PrefIssued += sampleScale(r.PrefIssued, w)
		out.Branches += sampleScale(r.Branches, w)
		out.Mispredicts += sampleScale(r.Mispredicts, w)
		out.Issues += sampleScale(r.Issues, w)
		out.RFReads += sampleScale(r.RFReads, w)
		out.RFWrites += sampleScale(r.RFWrites, w)
		out.WIBDrains += sampleScale(r.WIBDrains, w)
		out.WIBReinserts += sampleScale(r.WIBReinserts, w)
		out.StallROB += sampleScale(r.StallROB, w)
		out.StallIQ += sampleScale(r.StallIQ, w)
		out.StallRegs += sampleScale(r.StallRegs, w)
		out.StallLQ += sampleScale(r.StallLQ, w)
		out.StallSQ += sampleScale(r.StallSQ, w)
		out.StallLTP += sampleScale(r.StallLTP, w)
		out.CorunnerAccesses += sampleScale(r.CorunnerAccesses, w)
		out.CorunnerDRAM += sampleScale(r.CorunnerDRAM, w)
		out.CorunnerStalls += sampleScale(r.CorunnerStalls, w)

		mlp += r.MLP * c
		avgIQ += r.AvgIQ * c
		avgROB += r.AvgROB * c
		avgLQ += r.AvgLQ * c
		avgSQ += r.AvgSQ * c
		avgIntRF += r.AvgIntRF * c
		avgFPRF += r.AvgFPRF * c
		avgWIB += r.AvgWIB * c
		loadLat += r.AvgLoadLatency * float64(r.Loads)
		l1dMiss += r.L1DMissRate * float64(r.Loads+r.Stores)

		if l := sts[i].LTP; l != nil {
			haveLTP = true
			ltpInsts += l.AvgInsts * c
			ltpRegs += l.AvgRegs * c
			ltpLoads += l.AvgLoads * c
			ltpStores += l.AvgStores * c
			ltpEnabled += l.EnabledFrac * c
			ltpAcc += l.LLPredAcc * n
			ltpOut.ParkedTotal += sampleScale(l.ParkedTotal, w)
			ltpOut.WokenTotal += sampleScale(l.WokenTotal, w)
			ltpOut.ForcedParks += sampleScale(l.ForcedParks, w)
			ltpOut.PressureWakes += sampleScale(l.PressureWakes, w)
			ltpOut.Enqueues += sampleScale(l.Enqueues, w)
			ltpOut.Dequeues += sampleScale(l.Dequeues, w)
			ltpOut.ClassUrgent += sampleScale(l.ClassUrgent, w)
			ltpOut.ClassNonReady += sampleScale(l.ClassNonReady, w)
			ltpOut.TicketsFull += sampleScale(l.TicketsFull, w)
			ltpOut.UITLen = l.UITLen
		}
	}

	sum := stats.Summarize(cpis)
	out.CPI = sum.Mean
	if sum.Mean > 0 {
		out.IPC = 1 / sum.Mean
	}
	out.Cycles = sampleScale(out.Committed, sum.Mean)
	if cycles > 0 {
		out.MLP = mlp / cycles
		out.AvgIQ = avgIQ / cycles
		out.AvgROB = avgROB / cycles
		out.AvgLQ = avgLQ / cycles
		out.AvgSQ = avgSQ / cycles
		out.AvgIntRF = avgIntRF / cycles
		out.AvgFPRF = avgFPRF / cycles
		out.AvgWIB = avgWIB / cycles
	}
	if loads > 0 {
		out.AvgLoadLatency = loadLat / loads
	}
	if memOps > 0 {
		out.L1DMissRate = l1dMiss / memOps
	}

	st := Stats{Result: out}
	if haveLTP {
		if cycles > 0 {
			ltpOut.AvgInsts = ltpInsts / cycles
			ltpOut.AvgRegs = ltpRegs / cycles
			ltpOut.AvgLoads = ltpLoads / cycles
			ltpOut.AvgStores = ltpStores / cycles
			ltpOut.EnabledFrac = ltpEnabled / cycles
		}
		if committed > 0 {
			ltpOut.LLPredAcc = ltpAcc / committed
		}
		st.LTP = &ltpOut
	}
	st.Sampling = &SamplingStats{
		Intervals:    len(cks),
		SampledInsts: sampledInsts,
		CPI:          sum,
	}
	return st
}
