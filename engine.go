package ltp

// The campaign engine: the long-lived execution layer behind the
// campaign service (cmd/ltpserved, internal/server). One sched.Pool
// serves interactive single-run requests and batch sweep campaigns
// with tiered LPT ordering under a single parallelism cap, and one
// content-addressed internal/cache deduplicates identical cells across
// overlapping requests: each distinct cell simulates at most once
// process-wide. The v2 surface is context-first: every execution path
// accepts a context, cancellation reaches from the HTTP handler down
// to the pipeline cycle loop, and a submitted Job streams per-cell
// results as they resolve.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ltp/internal/cache"
	"ltp/internal/pipeline"
	"ltp/internal/sched"
	"ltp/internal/store"
)

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// Parallelism is the worker-pool size, the hard cap on concurrent
	// simulations across every request (0 = NumCPU).
	Parallelism int
	// CacheEntries bounds the result cache's LRU
	// (0 = cache.DefaultEntries).
	CacheEntries int
	// StorePath, when non-empty, opens (creating if absent) a
	// persistent content-addressed result store at that path and layers
	// it behind the in-memory cache: a cell found there loads instead
	// of simulating, and every fresh simulation appends. The engine
	// owns the handle (single writer per file) and closes it in Close.
	StorePath string
	// Executor, when non-nil, computes the cells the cache cannot serve
	// (internal/fabric runs them on a fleet of ltpserved workers), and
	// the engine builds no worker pool; nil computes them on a pool of
	// Parallelism workers.
	Executor Executor
}

// Executor computes an Engine's cache misses somewhere other than its
// own worker pool. The engine calls RunBatch once per batch of missed
// lanes, from a goroutine of its own (not a pool worker), and caches
// and stores the results exactly as it would its own.
type Executor interface {
	// RunBatch computes b's lanes and returns their results, outcomes
	// and errors, positional with b.Lanes. An outcome says how the
	// executor's side served the lane (a remote cache hit, say); the
	// engine reports it in place of its own Miss. RunBatch must return
	// promptly once ctx is cancelled.
	RunBatch(ctx context.Context, b Batch) ([]RunResult, []cache.Outcome, []error)
	// Parallelism is how many simulations the executor runs at once
	// (at least 1); it stands in for the pool's width in
	// Engine.Parallelism.
	Parallelism() int
}

// Batch is one unit of work an Engine hands its Executor: canonical
// lanes that share one functional stream (equal batch-group key), or
// a lone lane.
type Batch struct {
	// Lanes are the canonical specs to compute.
	Lanes []RunSpec
	// Key names the batch for placement: the lanes' batch-group key
	// ("bk1:…"), or the lone lane's content address when it has none.
	Key string
	// Weight is the lanes' summed LPT cost estimate, in the units the
	// pool orders its queue by.
	Weight float64
	// Tier is the priority the lanes were requested at.
	Tier sched.Tier
	// clock is when the engine started timing the batch; the pool
	// restarts it as the batch leaves the queue, so the per-run
	// seconds time the simulation rather than the wait.
	clock *time.Time
}

// Engine executes runs and sweep campaigns on one shared tiered-LPT
// worker pool with a content-addressed result cache. It is safe for
// concurrent use; create one per process so the parallelism cap and the
// cell deduplication are global.
type Engine struct {
	pool  *sched.Pool // nil when EngineConfig.Executor was given
	cache *cache.Cache
	exec  Executor // poolBatches over pool unless EngineConfig.Executor
	// store is the persistent result tier (nil without StorePath); it
	// backs the cache via storeBacking and closes with the engine.
	store *store.Store
	// jobs tracks in-flight Submit coordinators so Close can wait for
	// them before closing the pool; mu/closed gate new jobs against a
	// concurrent Close (WaitGroup Add-after-Wait is undefined
	// otherwise).
	mu     sync.Mutex
	closed bool
	jobs   sync.WaitGroup

	// statMu guards the per-backend run accounting below. A single
	// process-wide EWMA would price a queue of near-free model cells at
	// the cycle backend's mean (over-reporting Retry-After up to its
	// clamp), so both the latency means and the outstanding counts are
	// keyed by backend name.
	statMu sync.Mutex
	// runMeans is the exponentially weighted mean wall-clock seconds of
	// an actually simulated cell, per backend.
	runMeans map[string]float64
	// outstanding counts cells handed to the pool but not yet resolved,
	// per backend (cache hits and shared waiters never enter).
	outstanding map[string]int
}

// NewEngine starts an engine; Close releases its workers (and the
// persistent store, if configured). The only error source is opening
// EngineConfig.StorePath — a store-less config cannot fail.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	e := &Engine{cache: cache.New(cfg.CacheEntries), exec: cfg.Executor}
	if cfg.StorePath != "" {
		st, err := store.Open(cfg.StorePath)
		if err != nil {
			return nil, err
		}
		e.store = st
		e.cache.SetBacking(storeBacking{st})
	}
	if e.exec == nil {
		e.pool = sched.NewPool(cfg.Parallelism)
		e.exec = poolBatches{e.pool}
	}
	return e, nil
}

// Close waits for every in-flight job and queued run, then stops the
// pool. Submit after (or racing) Close returns an error; a straggler
// RunCached degrades to inline execution (sched.Pool's closed-Submit
// contract) rather than failing. To bound the wait, cancel the
// outstanding jobs first (Job.Cancel) — their remaining cells then
// abort within about a millisecond each.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.jobs.Wait()
	if e.pool != nil {
		e.pool.Close()
	}
	if e.store != nil {
		// All appends have drained with the jobs and the pool; detach
		// the backing before the handle closes under it.
		e.cache.SetBacking(nil)
		e.store.Close()
	}
}

// Parallelism returns the engine's concurrent-simulation cap: its
// executor's (the pool's width by default).
func (e *Engine) Parallelism() int { return e.exec.Parallelism() }

// QueuedRuns returns the number of submitted simulations not yet
// started (the service's backpressure signal). Over an Executor it is
// the outstanding cells beyond the executor's parallelism.
func (e *Engine) QueuedRuns() int {
	if e.pool == nil {
		return max(e.outstandingRuns()-e.exec.Parallelism(), 0)
	}
	return e.pool.Queued()
}

// RunningRuns returns the number of simulations currently executing.
// Over an Executor it is the outstanding cells up to the executor's
// parallelism.
func (e *Engine) RunningRuns() int {
	if e.pool == nil {
		return min(e.outstandingRuns(), e.exec.Parallelism())
	}
	return e.pool.Running()
}

// CacheStats returns a snapshot of the result-cache counters.
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// MeanRunSecondsByBackend returns a snapshot of every backend's EWMA
// mean simulated-cell seconds (backends with no completed simulation
// are absent).
func (e *Engine) MeanRunSecondsByBackend() map[string]float64 {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	out := make(map[string]float64, len(e.runMeans))
	for b, m := range e.runMeans {
		out[b] = m
	}
	return out
}

// PerRunSeconds returns the mean wall-clock of one outstanding cell,
// weighted by the queue's current backend mix, falling back to the
// cycle backend's EWMA when nothing is outstanding.
func (e *Engine) PerRunSeconds() float64 {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	var secs float64
	var n int
	for b, c := range e.outstanding {
		mean := e.runMeans[b]
		if mean <= 0 {
			mean = 1
		}
		secs += float64(c) * mean
		n += c
	}
	if n == 0 {
		return e.runMeans[BackendCycle]
	}
	return secs / float64(n)
}

// noteRunSeconds folds one simulated cell's wall-clock into its
// backend's EWMA.
func (e *Engine) noteRunSeconds(backend string, s float64) {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	if e.runMeans == nil {
		e.runMeans = make(map[string]float64)
	}
	if mean := e.runMeans[backend]; mean > 0 {
		s = 0.8*mean + 0.2*s
	}
	e.runMeans[backend] = s
}

// outstandingRuns sums the outstanding-cell counts of every backend.
func (e *Engine) outstandingRuns() int {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	n := 0
	for _, c := range e.outstanding {
		n += c
	}
	return n
}

// noteOutstanding adjusts a backend's outstanding-cell count.
func (e *Engine) noteOutstanding(backend string, delta int) {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	if e.outstanding == nil {
		e.outstanding = make(map[string]int)
	}
	if e.outstanding[backend] += delta; e.outstanding[backend] <= 0 {
		delete(e.outstanding, backend)
	}
}

// poolExecutor adapts the engine's scheduler pool to sim.Executor so a
// sampled-backend cell fans its K interval simulations onto the same
// workers. Intervals run at the interactive tier: the cell occupying a
// worker blocks until its batch drains, so letting campaign cells
// queue ahead of its intervals would invert priorities. Work helping
// in RunBatch keeps a fully-busy (even single-worker) pool
// deadlock-free.
type poolExecutor struct{ pool *sched.Pool }

func (x poolExecutor) RunBatch(ctx context.Context, fns []func(context.Context)) {
	x.pool.RunBatch(ctx, sched.TierInteractive, nil, fns)
}

func (x poolExecutor) Parallelism() int { return x.pool.Workers() }

// poolBatches is the default Executor: each batch is ONE pool task at
// the batch's tier and weight driving runBatch — one shared functional
// stream, one warm pass — whose per-config lanes fan back onto the
// same pool (poolExecutor). Every lane it answers is a Miss.
type poolBatches struct{ pool *sched.Pool }

func (x poolBatches) Parallelism() int { return x.pool.Workers() }

func (x poolBatches) RunBatch(ctx context.Context, b Batch) ([]RunResult, []cache.Outcome, []error) {
	n := len(b.Lanes)
	results := make([]RunResult, n)
	errs := make([]error, n)
	done := make(chan struct{})
	x.pool.SubmitCtx(ctx, b.Tier, b.Weight, func(tctx context.Context) {
		defer close(done)
		// A panicking batch must become per-lane errors, not an
		// unrecovered panic on a pool worker.
		defer func() {
			if p := recover(); p != nil {
				errs = failLanes(n, fmt.Errorf("ltp: simulation panicked: %v", p))
			}
		}()
		// Cancelled while queued: never start the batch.
		if err := tctx.Err(); err != nil {
			errs = failLanes(n, err)
			return
		}
		if b.clock != nil {
			*b.clock = time.Now()
		}
		rres, rerrs := runBatch(tctx, poolExecutor{x.pool}, b.Lanes)
		copy(results, rres)
		copy(errs, rerrs)
	})
	<-done
	return results, make([]cache.Outcome, n), errs
}

// runWeight estimates a run's relative wall-clock for LPT ordering:
// LTP machinery and small IQs (higher CPI) dominate. Model-backend
// cells cost a few percent of a detailed cell (no per-cycle loop), so
// they must not claim the longest-processing-time slots a campaign's
// detailed cells need.
func runWeight(spec RunSpec) float64 {
	c := 1.0
	if spec.UseLTP {
		c += 0.3
	}
	iq := pipeline.DefaultConfig().IQSize
	if spec.Pipeline != nil {
		iq = spec.Pipeline.IQSize
	}
	if iq < 8 {
		iq = 8
	}
	w := c + 32.0/float64(iq)
	switch specBackendName(spec) {
	case BackendSampled:
		// A sampled run cycle-simulates a 1/K coverage fraction and
		// functionally warms the rest (roughly a tenth of detailed
		// cost per instruction).
		k := sampledIntervals(spec.Intervals, spec.MaxInsts)
		w *= 0.1 + 1.0/float64(k)
	default:
		if !specCycleFidelity(spec) {
			w *= 0.05
		}
	}
	return w
}

// RunCached executes one simulation through the engine's pool and
// cache at the interactive tier (ahead of queued campaign cells),
// blocking until the result is available or ctx dies, and returns the
// run's content address alongside it. The outcome reports how the
// request was served: Miss (simulated now), Hit (already cached),
// Shared (joined an identical in-flight simulation) or StoreHit (loaded
// from the persistent result store). The spec must be hashable (see
// RunSpec.Canonical). A run is a batch of one: it takes the same path
// as a sweep's cells.
//
// Cancelling ctx abandons only this caller: an identical in-flight
// simulation other callers are waiting on keeps running for them, and
// the cache entry is never poisoned — only when every waiter has
// cancelled is the simulation itself aborted (within about a
// millisecond, mid-pipeline).
func (e *Engine) RunCached(ctx context.Context, spec RunSpec) (RunResult, cache.Outcome, string, error) {
	a := admit(spec)
	res, outs, errs := e.runBatchCached(ctx, sched.TierInteractive, []admission{a})
	return res[0], outs[0], a.hash, errs[0]
}

// RunBatchCached is RunCached for many specs at the given tier: specs
// that share a functional stream (cells differing only in core
// configuration) resolve as one batch — one stream, one warm pass —
// and the rest as batches of their own, all launched concurrently
// within the engine's parallelism (see runUnits). A spec listed twice
// simulates once: the repeat joins the first's cache flight. Results,
// outcomes, content addresses and errors are positional with specs (a
// spec with no canonical form has no address). It is the execution
// path for a fabric coordinator's dispatched batches (internal/server's
// /v1/cells) and for the figure runners of internal/experiment.
func (e *Engine) RunBatchCached(ctx context.Context, tier sched.Tier, specs []RunSpec) ([]RunResult, []cache.Outcome, []string, []error) {
	lanes := make([]admission, len(specs))
	for i, s := range specs {
		lanes[i] = admit(s)
	}
	results := make([]RunResult, len(specs))
	outcomes := make([]cache.Outcome, len(specs))
	keys := make([]string, len(specs))
	errs := make([]error, len(specs))
	e.runUnits(ctx, tier, lanes, func(i int, res RunResult, out cache.Outcome, err error) {
		results[i], outcomes[i], keys[i], errs[i] = res, out, lanes[i].hash, err
	})
	return results, outcomes, keys, errs
}

// ErrJobCanceled is the cause a Job's Wait reports after Cancel (when
// no more specific cause was given).
var ErrJobCanceled = errors.New("ltp: job canceled")

// isCancellation reports whether err stems from a context dying rather
// than a simulation failing.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrJobCanceled)
}

// CellResult is one resolved cell replicate of a sweep job, delivered
// on Job.Cells as it completes (completion order, not enumeration
// order).
type CellResult struct {
	// Index is the run's enumeration index in the sweep's cross-
	// product (row-major, last axis fastest).
	Index int `json:"index"`
	// Coords is the run's point name per axis, in axis order.
	Coords []string `json:"coords"`
	// Cell is the index of the run's cell in the final
	// SweepResult.Cells; Replicate its replicate slot within it.
	Cell int `json:"cell"`
	// Replicate is the run's replicate index within its cell.
	Replicate int `json:"replicate"`
	// Hash is the run's content address ("" when hashing failed).
	Hash string `json:"hash,omitempty"`
	// Backend is the execution backend the run used ("cycle",
	// "model").
	Backend string `json:"backend,omitempty"`
	// Phase distinguishes a triage sweep's phases: "triage" for the
	// model pre-pass, "detail" for the cycle-accurate re-runs of the
	// selected cells. Empty for plain sweeps.
	Phase string `json:"phase,omitempty"`
	// Outcome is how the run was served: "miss" (simulated), "hit"
	// (in-memory cache), "shared" (joined an in-flight identical
	// simulation), "store" (loaded from the persistent result store),
	// or "cached" (skipped entirely — its hash was in the sweep's
	// SinceSnapshot manifest; Result is zero).
	Outcome string `json:"outcome"`
	// Result is the simulation outcome (zero when Err is set).
	Result RunResult `json:"result"`
	// Error is Err's message — the run's failure, marshalled so a
	// streaming consumer can tell a failed cell from a real zero.
	Error string `json:"error,omitempty"`
	// Err is the run's failure, nil on success.
	Err error `json:"-"`
}

// Progress is a point-in-time view of a running job.
type Progress struct {
	// TotalRuns is the job's enumerated simulation count.
	TotalRuns int `json:"total_runs"`
	// DoneRuns counts the runs resolved so far (success or failure).
	DoneRuns int `json:"done_runs"`
	// CanceledRuns counts runs abandoned before resolving — queued
	// cells a cancellation kept from simulating, in-flight cells
	// aborted mid-pipeline, and a triage job's later-phase runs that a
	// cancellation or an earlier-phase failure kept from launching.
	CanceledRuns int `json:"canceled_runs"`
	// CacheHits counts resolved runs reusing a stored result.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts resolved runs that actually simulated.
	CacheMisses int64 `json:"cache_misses"`
	// CacheShared counts resolved runs that joined an in-flight
	// identical simulation (possibly another job's).
	CacheShared int64 `json:"cache_shared"`
	// StoreHits counts resolved runs loaded from the persistent result
	// store (simulated by an earlier process, not this one).
	StoreHits int64 `json:"store_hits"`
	// SnapshotSkipped counts runs never executed because their content
	// address was in the sweep's SinceSnapshot manifest (streamed as
	// outcome "cached"; included in DoneRuns).
	SnapshotSkipped int64 `json:"snapshot_skipped"`
	// Finished reports whether the job has completed (check Wait for
	// the verdict).
	Finished bool `json:"finished"`
}

// Job is the handle for an asynchronously submitted sweep campaign.
// Cells streams per-cell results as they resolve; Progress may be
// polled at any time; Done closes when the aggregated result (or
// error) is ready; Cancel aborts the job's remaining work.
type Job struct {
	spec  SweepSpec // normal form, without the admitted runs
	hash  string
	total int

	done      atomic.Int64
	canceled  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	storeHits atomic.Int64
	skipped   atomic.Int64

	// Cell results accumulate in an append-only log (no up-front
	// O(TotalRuns) buffer); Cells lazily starts one forwarder that
	// replays the log onto the returned channel.
	cellMu     sync.Mutex
	cellLog    []CellResult
	cellNotify chan struct{} // closed and replaced on every append
	cellsDone  bool
	cellsOnce  sync.Once
	cellsCh    chan CellResult

	cancelFn context.CancelCauseFunc

	doneCh chan struct{}
	result *SweepResult
	err    error
}

// Spec returns the sweep the job executes, in normal form. The job keeps
// no admitted runs, so Hash, Runs or Canonical on it admit them again.
func (j *Job) Spec() SweepSpec { return j.spec }

// Hash returns the sweep's content address (SweepSpec.Hash).
func (j *Job) Hash() string { return j.hash }

// TotalRuns returns the job's enumerated simulation count.
func (j *Job) TotalRuns() int { return j.total }

// Done returns a channel closed when the job finishes (result ready,
// failed, or cancellation fully drained).
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Cells returns the job's result stream: one CellResult per resolved
// run, in completion order, closed when no more will arrive. Cells
// abandoned by cancellation are not delivered (Progress counts them).
// The job itself only appends to an internal log, so a slow (or
// absent) consumer never blocks the campaign; repeated calls return
// the same channel, which replays from the first cell. The single
// logical consumer should drain the channel to completion — walking
// away mid-stream strands the forwarder goroutine until process exit.
// A consumer that reads the log by cursor uses CellsFrom instead.
func (j *Job) Cells() <-chan CellResult {
	j.cellsOnce.Do(func() {
		ch := make(chan CellResult, 64)
		j.cellsCh = ch
		go func() {
			next := 0
			for {
				cells, more, done := j.CellsFrom(next)
				for _, c := range cells {
					ch <- c
				}
				next += len(cells)
				if len(cells) > 0 {
					continue
				}
				if done {
					// Every cell has been delivered; drop the log so a
					// long-retained finished Job does not pin thousands
					// of full RunResults.
					j.ReleaseCells()
					close(ch)
					return
				}
				<-more
			}
		}()
	})
	return j.cellsCh
}

// CellsFrom reads the job's cell log by cursor: the cells resolved
// from position from on (completion order), a channel closed at the
// next append, and whether the log is complete (no cell can follow).
// The returned slice is shared and must not be modified.
func (j *Job) CellsFrom(from int) (cells []CellResult, more <-chan struct{}, done bool) {
	j.cellMu.Lock()
	defer j.cellMu.Unlock()
	if from < len(j.cellLog) {
		cells = j.cellLog[from:]
	}
	return cells, j.cellNotify, j.cellsDone
}

// ReleaseCells drops a finished job's cell log once its reader is done
// with it, so a retained Job does not pin every RunResult; later reads
// see an empty, complete log. Progress and Wait are unaffected.
func (j *Job) ReleaseCells() {
	j.cellMu.Lock()
	j.cellLog = nil
	j.cellMu.Unlock()
}

// appendCell records one resolved cell and wakes the forwarder.
func (j *Job) appendCell(c CellResult) {
	j.cellMu.Lock()
	j.cellLog = append(j.cellLog, c)
	close(j.cellNotify)
	j.cellNotify = make(chan struct{})
	j.cellMu.Unlock()
}

// finishCells marks the log complete (no appends can follow) and
// wakes the forwarder so it can close the stream.
func (j *Job) finishCells() {
	j.cellMu.Lock()
	j.cellsDone = true
	close(j.cellNotify)
	j.cellNotify = make(chan struct{})
	j.cellMu.Unlock()
}

// Cancel aborts the job: queued cells never simulate, in-flight cells
// abort mid-pipeline within about a millisecond (unless another job's
// waiter shares them — shared cells complete for the survivors), and
// Wait returns ErrJobCanceled. Cancel after completion is a no-op.
func (j *Job) Cancel() { j.cancelFn(ErrJobCanceled) }

// Canceled reports whether the job ended cancelled.
func (j *Job) Canceled() bool {
	select {
	case <-j.doneCh:
		return isCancellation(j.err)
	default:
		return false
	}
}

// Progress returns a point-in-time snapshot of the job.
func (j *Job) Progress() Progress {
	p := Progress{
		TotalRuns:       j.total,
		DoneRuns:        int(j.done.Load()),
		CanceledRuns:    int(j.canceled.Load()),
		CacheHits:       j.hits.Load(),
		CacheMisses:     j.misses.Load(),
		CacheShared:     j.shared.Load(),
		StoreHits:       j.storeHits.Load(),
		SnapshotSkipped: j.skipped.Load(),
	}
	select {
	case <-j.doneCh:
		p.Finished = true
	default:
	}
	return p
}

// Wait blocks until the job finishes and returns its aggregated
// result, or the first cell failure, or the cancellation cause.
func (j *Job) Wait() (*SweepResult, error) {
	<-j.doneCh
	return j.result, j.err
}

// Submit validates and canonicalizes the sweep, arranges every
// admitted run (SweepSpec.Runs) to execute through the engine's cache
// and pool at the campaign tier, and returns immediately with a job
// handle. Identical cells — within the sweep, across concurrent jobs,
// or already computed by an earlier request — are simulated exactly
// once and shared.
//
// ctx bounds the whole job: cancelling it (or calling Job.Cancel)
// stops remaining cells within one cell boundary — queued cells are
// never simulated, in-flight ones abort mid-pipeline — after which the
// job finishes with the cancellation cause.
func (e *Engine) Submit(ctx context.Context, spec SweepSpec) (*Job, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	runs := canon.runs
	total := len(runs)
	if canon.Triage != nil {
		// A triage job's detailed phase re-runs the TopK cells'
		// replicates on top of the model pre-pass.
		total += canon.Triage.TopK * canon.Replicates()
	}
	// The coordinator owns the runs: a retained finished Job must not
	// pin every enumerated spec.
	kept := canon
	kept.canonical, kept.runs = false, nil
	jctx, cancel := context.WithCancelCause(ctx)
	job := &Job{
		spec:       kept,
		hash:       canon.hash,
		total:      total,
		cellNotify: make(chan struct{}),
		cancelFn:   cancel,
		doneCh:     make(chan struct{}),
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel(nil)
		return nil, fmt.Errorf("ltp: engine is closed")
	}
	e.jobs.Add(1)
	e.mu.Unlock()
	go e.runJob(jctx, job, runs)
	return job, nil
}

// Phase values of CellResult.Phase in a triage sweep.
const (
	// PhaseTriage marks a model-backend pre-pass run.
	PhaseTriage = "triage"
	// PhaseDetail marks a cycle-accurate re-run of a selected cell.
	PhaseDetail = "detail"
)

// runJob is a submitted job's coordinator goroutine.
func (e *Engine) runJob(jctx context.Context, job *Job, runs []SweepRun) {
	defer e.jobs.Done()
	defer close(job.doneCh)
	defer job.cancelFn(nil) // release the job context's resources
	defer job.finishCells() // no phase appends after this point

	if job.spec.Triage != nil {
		e.runTriageJob(jctx, job, runs)
		return
	}
	runs = skipSnapshotRuns(job, runs)
	results, errs := e.runPhase(jctx, job, runs, carried(runs), "")
	if jctx.Err() != nil {
		job.err = cancelErr(jctx)
		return
	}
	if err := firstRunError(runs, errs); err != nil {
		job.err = err
		return
	}
	job.result = aggregateSweep(job.spec, runs, results)
}

// runTriageJob executes a two-phase fidelity triage: a model-backend
// pre-pass over every enumerated run, a ranking of the cells by their
// model-estimated mean CPI, and a cycle-accurate re-run of the TopK
// best cells. Both phases stream through the same cell log with
// distinct Phase tags, and the detailed runs hash (and therefore
// cache) exactly like directly submitted cycle-backend cells.
func (e *Engine) runTriageJob(jctx context.Context, job *Job, runs []SweepRun) {
	// Phase 1: estimate every cell on the model backend. The backend is
	// part of the canonical form, so each run is admitted again; a
	// refusal fails its own lane.
	model := make([]SweepRun, len(runs))
	lanes := make([]admission, len(runs))
	for i, r := range runs {
		r.Spec.Backend = BackendModel
		lanes[i] = admit(r.Spec)
		r.Canonical, r.Hash = lanes[i].spec, lanes[i].hash
		model[i] = r
	}
	// Whatever ends this job early — cancellation here, or a failed
	// cell below — the runs the later phase now never launches are
	// charged as abandoned, so Progress always adds up to TotalRuns.
	defer job.abandonRemaining()

	mres, merrs := e.runPhase(jctx, job, model, lanes, PhaseTriage)
	if jctx.Err() != nil {
		job.err = cancelErr(jctx)
		return
	}
	if err := firstRunError(model, merrs); err != nil {
		job.err = err
		return
	}
	estimates := aggregateSweep(job.spec, model, mres)

	// Rank cells by ascending model-estimated mean CPI (best
	// performance first); ties keep sweep order.
	order := make([]int, len(estimates.Cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return estimates.Cells[order[a]].CPI.Mean < estimates.Cells[order[b]].CPI.Mean
	})
	selected := make(map[int]bool, job.spec.Triage.TopK)
	for _, ci := range order[:job.spec.Triage.TopK] {
		selected[ci] = true
	}

	// Phase 2: re-run the selected cells' replicates at their own
	// detailed fidelity (their specs are untouched — the triage
	// validation pinned them to the cycle or sampled backend, so these
	// hashes equal a direct submission's).
	var detail []SweepRun
	for _, r := range runs {
		if selected[r.Cell] {
			detail = append(detail, r)
		}
	}
	dres, derrs := e.runPhase(jctx, job, detail, carried(detail), PhaseDetail)
	if jctx.Err() != nil {
		job.err = cancelErr(jctx)
		return
	}
	if err := firstRunError(detail, derrs); err != nil {
		job.err = err
		return
	}
	detailed := aggregateSweep(job.spec, detail, dres)
	out := &SweepResult{
		Axes:   estimates.Axes,
		Cells:  estimates.Cells,
		Triage: &TriageResult{TopK: job.spec.Triage.TopK},
	}
	for _, c := range detailed.Cells {
		if c.Replicates > 0 {
			out.Triage.Detailed = append(out.Triage.Detailed, c)
		}
	}
	job.result = out
}

// phaseUnits partitions lanes (by position) into launch units, each
// executed as one batch through runBatchCached. Cells that share a
// backend, a functional stream and warm/measured budgets (equal
// batchKey) coalesce, so the stream is built and warmed once for the
// whole group; cells batchKey refuses — a detailed warm-up, no warm
// region, a refused admission — are batches of one. Triage phase 1
// rewrites every run to the model backend, so triage sweeps batch
// wholesale without special-casing.
func phaseUnits(lanes []admission) [][]int {
	units := make([][]int, 0, len(lanes))
	groups := make(map[string]int) // batch key -> its unit's index
	for i, a := range lanes {
		if a.err == nil {
			if key, ok := batchKey(a.spec); ok {
				if u, seen := groups[key]; seen {
					units[u] = append(units[u], i)
					continue
				}
				groups[key] = len(units)
			}
		}
		units = append(units, []int{i})
	}
	return units
}

// carried is the admission SweepSpec.Canonical already made for each
// run.
func carried(runs []SweepRun) []admission {
	lanes := make([]admission, len(runs))
	for i, r := range runs {
		lanes[i] = admission{spec: r.Canonical, hash: r.Hash}
	}
	return lanes
}

// recordPhaseCell folds one resolved cell into the job's counters and
// cell stream.
func (j *Job) recordPhaseCell(r SweepRun, res RunResult, outcome cache.Outcome, err error, phase string) {
	if err != nil && isCancellation(err) {
		j.canceled.Add(1)
		return
	}
	switch outcome {
	case cache.Hit:
		j.hits.Add(1)
	case cache.Shared:
		j.shared.Add(1)
	case cache.StoreHit:
		j.storeHits.Add(1)
	default:
		j.misses.Add(1)
	}
	j.done.Add(1)
	cell := CellResult{
		Index:     r.Index,
		Coords:    r.Coords,
		Cell:      r.Cell,
		Replicate: r.Replicate,
		Hash:      r.Hash,
		Backend:   specBackendName(r.Spec),
		Phase:     phase,
		Outcome:   outcome.String(),
		Result:    res,
		Err:       err,
	}
	if err != nil {
		cell.Error = err.Error()
	}
	j.appendCell(cell)
}

// runPhase executes enumerated runs, admitted as lanes (positional),
// through the engine's cache and pool at the campaign tier, streaming
// each resolved cell with the phase tag; it returns results and errors.
func (e *Engine) runPhase(jctx context.Context, job *Job, runs []SweepRun, lanes []admission, phase string) ([]RunResult, []error) {
	results := make([]RunResult, len(runs))
	errs := make([]error, len(runs))
	e.runUnits(jctx, sched.TierCampaign, lanes, func(i int, res RunResult, out cache.Outcome, err error) {
		results[i], errs[i] = res, err
		job.recordPhaseCell(runs[i], res, out, err, phase)
	})
	return results, errs
}

// runUnits executes lanes through runBatchCached, one launch unit (see
// phaseUnits) per goroutine, and calls done once per lane as its unit
// resolves (concurrently, from the unit's goroutine). At most 2× the
// engine's parallelism units are outstanding: without the bound a large
// batch would park one goroutine per unit (potentially hundreds of
// thousands of stacks) before pool backpressure applies, and 2× keeps
// every worker fed while cells resolve. Once ctx dies no further unit
// launches: every lane of a unit not yet launched is reported with the
// cancellation cause without touching the cache or the executor.
func (e *Engine) runUnits(ctx context.Context, tier sched.Tier, lanes []admission, done func(i int, res RunResult, out cache.Outcome, err error)) {
	units := phaseUnits(lanes)
	sem := make(chan struct{}, 2*e.Parallelism())
	var wg sync.WaitGroup
	for u, unit := range units {
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
		}
		if ctx.Err() != nil {
			err := cancelErr(ctx)
			for _, unit := range units[u:] {
				for _, i := range unit {
					done(i, RunResult{}, cache.Miss, err)
				}
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			group := make([]admission, len(unit))
			for j, i := range unit {
				group[j] = lanes[i]
			}
			res, outs, errs := e.runBatchCached(ctx, tier, group)
			for j, i := range unit {
				done(i, res[j], outs[j], errs[j])
			}
		}()
	}
	wg.Wait()
}

// runBatchCached resolves a group of admitted lanes (equal batchKey,
// or a batch of one) through the cache: lanes already cached (memory or
// backing) or in flight are served per key, and the remainder is
// computed by one Executor.RunBatch call — by default one pool task
// driving runBatch (poolBatches), so one shared functional stream and
// one warm pass serve every lane. Each computed lane is stored under
// its own content address, with its canonical spec riding into the
// cache value so a fresh result can be persisted with its provenance
// (see storedRecord); a cell's cache entry is the same whichever batch
// computed it. A refused lane fails with its admission error.
func (e *Engine) runBatchCached(ctx context.Context, tier sched.Tier, lanes []admission) ([]RunResult, []cache.Outcome, []error) {
	n := len(lanes)
	results := make([]RunResult, n)
	outcomes := make([]cache.Outcome, n)
	errs := make([]error, n)
	sub := make([]int, 0, n) // admitted lanes
	subKeys := make([]string, 0, n)
	for i, a := range lanes {
		if a.err != nil {
			errs[i] = a.err
			continue
		}
		sub = append(sub, i)
		subKeys = append(subKeys, a.hash)
	}
	if len(sub) == 0 {
		return results, outcomes, errs
	}
	// remote[j] is how the executor served lane j when this call
	// computed it.
	remote := make([]cache.Outcome, len(sub))
	vals, outs, cerrs := e.cache.DoBatch(ctx, subKeys, func(bctx context.Context, miss []int) ([]any, []error) {
		specs := make([]RunSpec, len(miss))
		var weight float64
		for j, mj := range miss {
			specs[j] = lanes[sub[mj]].spec
			weight += runWeight(specs[j])
		}
		key, ok := batchKey(specs[0])
		if !ok {
			key = subKeys[miss[0]]
		}
		mvals, routs, merrs := e.compute(bctx, Batch{Lanes: specs, Key: key, Weight: weight, Tier: tier})
		for j, mj := range miss {
			remote[mj] = routs[j]
		}
		return mvals, merrs
	})
	for j, i := range sub {
		outcomes[i] = outs[j]
		if cerrs[j] != nil {
			errs[i] = cerrs[j]
			continue
		}
		if outs[j] == cache.Miss {
			outcomes[i] = remote[j]
		}
		results[i] = vals[j].(cachedCell).res
	}
	return results, outcomes, errs
}

// compute runs missed lanes on the engine's executor and turns them
// into cache values (or errors). Each lane the executor simulated
// (outcome Miss) feeds its backend's EWMA with the batch's amortized
// per-lane seconds; a lane a fleet worker served from its own cache or
// store took a round trip, not a simulation, and would understate the
// backlog the Retry-After hint prices. Backends are kept apart so
// near-free model estimates do not wreck the hint for real
// simulations. A mis-sized answer fails every lane rather than
// misplacing results.
func (e *Engine) compute(ctx context.Context, b Batch) ([]any, []cache.Outcome, []error) {
	n := len(b.Lanes)
	mvals := make([]any, n)
	backend := specBackendName(b.Lanes[0])
	e.noteOutstanding(backend, n)
	defer e.noteOutstanding(backend, -n)
	start := time.Now()
	b.clock = &start
	rres, routs, rerrs := e.exec.RunBatch(ctx, b)
	if len(rres) != n || len(routs) != n || len(rerrs) != n {
		err := fmt.Errorf("ltp: executor answered %d/%d/%d lanes for %d", len(rres), len(routs), len(rerrs), n)
		return mvals, make([]cache.Outcome, n), failLanes(n, err)
	}
	perLane := time.Since(start).Seconds() / float64(n)
	for j := range b.Lanes {
		if rerrs[j] != nil {
			continue
		}
		mvals[j] = cachedCell{spec: b.Lanes[j], res: rres[j]}
		if routs[j] == cache.Miss {
			e.noteRunSeconds(backend, perLane)
		}
	}
	return mvals, routs, rerrs
}

// skipSnapshotRuns settles every run whose content address is in the
// sweep's SinceSnapshot set — streamed immediately as an Outcome
// "cached" cell with a zero Result, counted as done and
// snapshot-skipped — and returns the remainder for execution. The
// snapshot set was normalized by SweepSpec.Canonical to addresses the
// sweep actually enumerates, so this is a pure set lookup per run.
func skipSnapshotRuns(job *Job, runs []SweepRun) []SweepRun {
	if len(job.spec.SinceSnapshot) == 0 {
		return runs
	}
	snap := make(map[string]bool, len(job.spec.SinceSnapshot))
	for _, h := range job.spec.SinceSnapshot {
		snap[h] = true
	}
	kept := make([]SweepRun, 0, len(runs))
	for _, r := range runs {
		if !snap[r.Hash] {
			kept = append(kept, r)
			continue
		}
		job.done.Add(1)
		job.skipped.Add(1)
		job.appendCell(CellResult{
			Index:     r.Index,
			Coords:    r.Coords,
			Cell:      r.Cell,
			Replicate: r.Replicate,
			Hash:      r.Hash,
			Backend:   specBackendName(r.Spec),
			Outcome:   "cached",
		})
	}
	return kept
}

// abandonRemaining charges every run the job will now never execute —
// a triage job cancelled, or failed, before its detailed phase
// launched — to the canceled counter, so Progress always adds up to
// TotalRuns.
func (j *Job) abandonRemaining() {
	left := int64(j.total) - j.done.Load() - j.canceled.Load()
	if left > 0 {
		j.canceled.Add(left)
	}
}

// firstRunError returns the first cell failure, labeled with its
// coordinates.
func firstRunError(runs []SweepRun, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ltp: sweep cell %v: %w", runs[i].Coords, err)
		}
	}
	return nil
}
