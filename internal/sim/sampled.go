package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"

	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/prog"
	"ltp/internal/stats"
	"ltp/internal/trace"
)

func init() { Register(SampledBackend{}) }

// SampledBackend is the interval-sampling fidelity tier between the
// analytical model and the cycle-accurate reference (SMARTS-style).
// Each lane's measured region is split into K intervals, and a 1/K
// slice of each — preceded by a short detailed-but-unmeasured ramp that
// keeps the pipeline-fill transient out of the sample — is simulated
// cycle-accurately from a snapshot of the warm state (caches, branch
// predictor, LTP tables) at the interval's start. The per-interval CPIs
// are stitched into a whole-run estimate with a Student-t sampling CI.
//
// A batch makes one functional pass over the measured region, after
// the warm pass it shares with the other tiers (startBatch): the same
// warm groups keep warming, and the pass records the union of every
// lane's replayed spans as one seekable µop trace. At each interval
// start it snapshots each warm group with a lane starting there, and
// it launches an interval through the lead spec's Exec as soon as the
// interval's span is recorded. A snapshot lives from its position
// until the last interval it serves has taken its state, and launches
// wait once 2× Exec's parallelism are queued, so live snapshots do not
// grow with K or with the lane count.
//
// Total detailed work is MaxInsts/K instructions plus the ramps, so
// wall-clock approaches the functional-pass floor as K grows. K=1
// measures the entire region from the warm boundary's snapshot and
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

// Run executes one interval-sampled simulation (a batch of one).
func (b SampledBackend) Run(ctx context.Context, spec Spec) (Stats, error) {
	r := b.RunBatch(ctx, []Spec{spec})[0]
	return r.Stats, r.Err
}

// RunBatch implements BatchBackend: the warm region is warmed once per
// warm group (startBatch), and one measured-region pass serves every
// lane's intervals (runSampledPass).
func (SampledBackend) RunBatch(ctx context.Context, specs []Spec) []BatchResult {
	out, b := startBatch(ctx, specs, admitSampled)
	if b != nil {
		runSampledPass(ctx, specs, b)
	}
	return out
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

// sampleLane is one lane's interval geometry and outcomes.
type sampleLane struct {
	spec    Spec
	group   *warmGroup // the lane's warm group
	ivs     []sampleInterval
	results []Stats
	errs    []error
	short   error // the stream ended before one of the lane's intervals
}

// sampleInterval is one interval of a lane: where it starts, the slice
// of it that is measured, and the recorded span its replay reads.
type sampleInterval struct {
	lane   *sampleLane
	idx    int
	length uint64 // interval length
	sample uint64 // measured sample length
	ramp   uint64 // detailed-but-unmeasured µops run before the sample
	abs    uint64 // stream position of the interval start
	end    uint64 // stream position the recorded span must reach

	pos  trace.Pos     // the recording's position at abs, set when the pass reaches it
	snap *snapshot     // the warm group's state at abs, likewise
	src  *bytes.Reader // the recording, once it holds the span
}

func newSampleLane(spec Spec, group *warmGroup) *sampleLane {
	k := spec.Intervals
	if k < 1 {
		k = 1
	}
	if uint64(k) > spec.MaxInsts {
		k = int(spec.MaxInsts)
	}
	l := &sampleLane{
		spec:    spec,
		group:   group,
		ivs:     make([]sampleInterval, k),
		results: make([]Stats, k),
		errs:    make([]error, k),
	}
	rob := uint64(spec.Pipeline.ROBSize)
	for i := range l.ivs {
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
		ramp := 2 * rob
		if ramp > end-start-sample {
			ramp = end - start - sample
		}
		abs := spec.WarmInsts + start
		// The pipeline reads at most about a ROB's worth of µops beyond
		// the sample's last committed instruction (the replay buffer
		// bounds fetch-ahead), so a few ROBs of slack per span is
		// generous.
		l.ivs[i] = sampleInterval{
			lane: l, idx: i,
			length: end - start, sample: sample, ramp: ramp,
			abs: abs, end: abs + ramp + sample + 4*rob,
		}
	}
	return l
}

// snapshotAt snapshots the warm groups of the intervals starting at
// the pass's current position, recording position pos: one clone per
// warm group among their lanes, shared by those intervals.
func snapshotAt(ivs []*sampleInterval, pos trace.Pos) {
	owners := make([]*warmGroup, len(ivs))
	ltps := make([]*core.Config, len(ivs))
	for i, iv := range ivs {
		owners[i], ltps[i] = iv.lane.group, iv.lane.spec.LTP
	}
	for i, s := range snapshots(owners, ltps, true) {
		ivs[i].pos, ivs[i].snap = pos, s
	}
}

// runSampledPass runs every admitted lane of b. One continuous
// functional pass over the lead stream keeps the warm groups warming
// through the measured region, recording only the spans the intervals
// replay (ramp + sample plus fetch-ahead slack) as one seekable trace.
// The gaps between spans fast-forward without the encoder: they exist
// only to keep the warm state continuous, and skipping their
// serialization keeps the pass far cheaper than the cycle backend as K
// grows. Each interval is snapshotted at its start and launched once
// its span is recorded.
func runSampledPass(ctx context.Context, specs []Spec, b *warmBatch) {
	lead := specs[0]
	lanes := make([]*sampleLane, len(b.lanes))
	var ivs []*sampleInterval // every interval, by start position
	for j, i := range b.lanes {
		lanes[j] = newSampleLane(specs[i], b.owners[j])
		for k := range lanes[j].ivs {
			ivs = append(ivs, &lanes[j].ivs[k])
		}
	}
	sort.SliceStable(ivs, func(a, c int) bool { return ivs[a].abs < ivs[c].abs })

	launch, wait := startIntervals(ctx, lead.Exec, len(ivs))
	err := func() error {
		defer wait() // also when the pass panics: no interval worker is stranded
		return measurePass(ctx, lead.Stream, b, ivs, launch)
	}()

	for j, l := range lanes {
		o := &b.out[b.lanes[j]]
		switch {
		case err != nil:
			o.Err = err
		case ctx.Err() != nil:
			o.Err = CancelErr(ctx)
		case l.short != nil:
			o.Err = l.short
		default:
			o.Stats, o.Err = l.finish()
		}
	}
}

// measurePass drives the lead stream through the measured region (see
// runSampledPass), handing each interval to launch once its span is
// recorded. An error fails every lane; a stream too short for some
// interval's start fails that interval's lane.
func measurePass(ctx context.Context, stream prog.Stream, b *warmBatch, ivs []*sampleInterval, launch func(*sampleInterval)) error {
	ff := stream.(prog.FastForwarder) // admitSampled checked
	var buf bytes.Buffer
	rec := trace.NewRecorder(stream, &buf, "sampled")
	touch := b.touch()

	pos := b.insts      // µops pulled from the source so far
	var recUntil uint64 // absolute position recording must reach
	// advance pulls µops through touch up to absolute position to,
	// recording them while inside a replayed span (pos < recUntil) and
	// skipping the encoder otherwise, chunked so cancellation is
	// honoured mid-warm. A short read is left for the caller's position
	// check.
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

	var waiting []*sampleInterval // snapshotted, span not yet recorded
	// launchRecorded launches the waiting intervals whose spans end by
	// upTo on a reader over the bytes recorded so far. The recording is
	// only ever appended to, so those bytes stay valid while the pass
	// records on.
	launchRecorded := func(upTo uint64) error {
		var src *bytes.Reader
		kept := waiting[:0]
		for _, iv := range waiting {
			if iv.end > upTo {
				kept = append(kept, iv)
				continue
			}
			if src == nil {
				if err := rec.Flush(); err != nil {
					return fmt.Errorf("ltp: sampled trace capture: %w", err)
				}
				src = bytes.NewReader(buf.Bytes())
			}
			iv.src = src
			launch(iv)
		}
		waiting = kept
		return nil
	}

	next := 0 // first interval not yet snapshotted
	for next < len(ivs) || len(waiting) > 0 {
		to := uint64(math.MaxUint64)
		if next < len(ivs) {
			to = ivs[next].abs
		}
		for _, iv := range waiting {
			to = min(to, iv.end)
		}
		if err := advance(to); err != nil {
			return err
		}
		if pos < to {
			break // the stream ended
		}
		if err := launchRecorded(pos); err != nil {
			return err
		}
		if next < len(ivs) && ivs[next].abs == pos {
			at := next
			for next < len(ivs) && ivs[next].abs == pos {
				recUntil = max(recUntil, ivs[next].end)
				next++
			}
			snapshotAt(ivs[at:next], rec.Pos())
			waiting = append(waiting, ivs[at:next]...)
		}
	}

	// The stream ended, or every span is recorded. Intervals still
	// waiting replay to the end of the recording, where a source too
	// short for a sample is caught by the replay check; an interval the
	// pass never reached fails its lane.
	if err := rec.Close(); err != nil {
		return fmt.Errorf("ltp: sampled trace capture: %w", err)
	}
	if err := launchRecorded(math.MaxUint64); err != nil {
		return err
	}
	for _, iv := range ivs[next:] {
		if s := iv.lane.spec; iv.lane.short == nil {
			iv.lane.short = fmt.Errorf(
				"ltp: stream ended after %d µops; the sampled run needs %d (warm-up %d + measured %d)",
				pos, s.WarmInsts+s.MaxInsts, s.WarmInsts, s.MaxInsts)
		}
	}
	return nil
}

// startIntervals returns the pass's launch function and a wait that
// returns once every launched interval has run. Without an executor an
// interval runs at launch, in the pass's goroutine. With one, a
// goroutine hands Parallelism() interval workers to ex — its RunBatch
// runs one of them itself and idle pool workers take the rest — and
// launch queues the interval for them, waiting while 2× Parallelism()
// are queued.
func startIntervals(ctx context.Context, ex Executor, n int) (launch func(*sampleInterval), wait func()) {
	if ex == nil {
		return func(iv *sampleInterval) { iv.run(ctx) }, func() {}
	}
	par := max(ex.Parallelism(), 1)
	// The buffer bounds the queued intervals, and with them the live
	// snapshots; 2× the workers keeps every worker fed, the bound
	// runUnits puts on batches.
	ready := make(chan *sampleInterval, 2*par)
	workers := make([]func(context.Context) error, min(par, n))
	for w := range workers {
		workers[w] = func(wctx context.Context) error {
			for iv := range ready {
				iv.run(wctx)
			}
			return nil
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		FanOut(ctx, ex, workers)
	}()
	return func(iv *sampleInterval) { ready <- iv }, func() { close(ready); <-done }
}

// run simulates the interval into its lane's outcomes. A panic becomes
// the interval's error, so it fails only its own lane.
func (iv *sampleInterval) run(ctx context.Context) {
	l := iv.lane
	defer func() {
		if p := recover(); p != nil {
			l.errs[iv.idx] = fmt.Errorf("ltp: simulation panicked: %v", p)
		}
	}()
	l.results[iv.idx], l.errs[iv.idx] = runSampledInterval(ctx, l.spec, iv)
}

// finish reports the lane's first failed interval, or stitches its
// intervals into the lane's result.
func (l *sampleLane) finish() (Stats, error) {
	for _, err := range l.errs {
		if err != nil {
			return Stats{}, err
		}
	}
	var sampledInsts uint64
	for i := range l.results {
		sampledInsts += l.results[i].Committed
	}
	if len(l.ivs) == 1 {
		// The single interval is the whole measured region: pass its
		// stats through untouched (bit-for-bit the cycle backend's
		// result) and attach the sampling annotation.
		st := l.results[0]
		st.Sampling = &SamplingStats{
			Intervals:    1,
			SampledInsts: sampledInsts,
			CPI:          stats.Summarize([]float64{st.CPI}),
		}
		return st, nil
	}
	return stitchSampled(l.ivs, l.results, sampledInsts), nil
}

// runSampledInterval replays one interval's measured sample on a fresh
// pipeline seeded with the warm state of its snapshot. Replayed µops
// are numbered by their record index in the pass's recording, which
// skips the unrecorded gaps: numbering stays increasing and contiguous
// within a span, which is all squash bookkeeping and commit-order
// checks rely on.
func runSampledInterval(ctx context.Context, spec Spec, iv *sampleInterval) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, CancelErr(ctx)
	}
	pcfg := spec.Pipeline
	rd := trace.NewReaderAt(iv.src, iv.pos)
	hier, bp, unit := iv.snap.take(spec)
	var parker pipeline.Parker = pipeline.NullParker{}
	if unit != nil {
		parker = unit
	}
	p := pipeline.NewShared(pcfg, rd, parker, hier, bp)
	defer p.Release()
	if done := ctx.Done(); done != nil {
		p.SetCancel(done)
	}
	// Mirror the cycle backend's warm/measured boundary: WarmFinish
	// and statistic resets happen whenever any warming preceded this
	// point — the spec's warm region, or earlier intervals functionally
	// warmed by the pass.
	if spec.WarmInsts > 0 || iv.idx > 0 {
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
		maxCycles = (spec.MaxCycles*(iv.ramp+iv.sample) + spec.MaxInsts - 1) / spec.MaxInsts
		maxCycles += p.Now()
	}
	if iv.ramp > 0 {
		// Detailed-but-unmeasured ramp: run the pipeline-fill transient
		// out before the sample, then reset every statistic at the
		// boundary (exactly the cycle backend's detailed-warm reset).
		p.Run(iv.ramp, maxCycles)
		if p.Aborted() {
			return Stats{}, abortErr(ctx, p)
		}
		p.ResetStats()
	}
	ramped := p.Committed()
	p.Run(ramped+iv.sample, maxCycles)
	if p.Aborted() {
		return Stats{}, abortErr(ctx, p)
	}
	if rd.Err() != nil {
		return Stats{}, fmt.Errorf("ltp: sampled interval %d replay: %w", iv.idx, rd.Err())
	}
	if done := p.Committed() - ramped; done < iv.sample && (maxCycles == 0 || p.Now() < maxCycles) {
		return Stats{}, fmt.Errorf(
			"ltp: sampled interval %d ended after %d of %d instructions", iv.idx, done, iv.sample)
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
func stitchSampled(ivs []sampleInterval, sts []Stats, sampledInsts uint64) Stats {
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
		w := float64(ivs[i].length) / float64(r.Committed)
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
		Intervals:    len(ivs),
		SampledInsts: sampledInsts,
		CPI:          sum,
	}
	return st
}
