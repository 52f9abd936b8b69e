package ltp_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltp"
	"ltp/internal/cache"
	"ltp/internal/pipeline"
	"ltp/internal/sched"
)

// engineSpec is a tiny but real simulation for engine tests.
func engineSpec() ltp.RunSpec {
	return ltp.RunSpec{Scenario: "branchy", Scale: 0.05, MaxInsts: 5_000}
}

// newTestEngine builds an engine or fails the test (NewEngine can only
// error on a store path, so store-less tests never hit the branch).
func newTestEngine(tb testing.TB, cfg ltp.EngineConfig) *ltp.Engine {
	tb.Helper()
	e, err := ltp.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestEngineRunCached checks the hit path returns the identical result
// without re-simulating.
func TestEngineRunCached(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()

	r1, out1, h1, err := e.RunCached(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if out1 != cache.Miss {
		t.Fatalf("first run outcome = %v; want miss", out1)
	}
	r2, out2, h2, err := e.RunCached(context.Background(), engineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if out2 != cache.Hit {
		t.Fatalf("second run outcome = %v; want hit", out2)
	}
	if h1 != h2 || h1 == "" {
		t.Fatalf("hashes differ across identical runs: %q vs %q", h1, h2)
	}
	if r1.CPI != r2.CPI || r1.Cycles != r2.Cycles {
		t.Fatalf("cached result differs: CPI %v vs %v", r1.CPI, r2.CPI)
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v; want 1 miss, 1 hit", st)
	}
}

// TestEngineConcurrentDuplicates holds the acceptance criterion: N
// concurrent identical submissions execute the cell exactly once
// (run under -race in short mode).
func TestEngineConcurrentDuplicates(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	const n = 12
	var wg sync.WaitGroup
	results := make([]ltp.RunResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, _, err := e.RunCached(context.Background(), engineSpec())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	if st := e.CacheStats(); st.Misses != 1 {
		t.Fatalf("%d concurrent identical submissions simulated %d times; want 1 (stats %+v)", n, st.Misses, st)
	}
	for i := 1; i < n; i++ {
		if results[i].Cycles != results[0].Cycles {
			t.Fatalf("submission %d got a different result", i)
		}
	}
}

// TestSubmitMatrixAsync checks an async matrix campaign completes,
// matches the same campaign on an independent engine cell-for-cell,
// and a resubmission is served entirely from cache.
func TestSubmitMatrixAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix comparison is a long test")
	}
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	sweep, err := ltp.NewMatrixSweep(quickMatrixBase(), nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	p := job.Progress()
	if !p.Finished || p.DoneRuns != p.TotalRuns || p.TotalRuns != job.TotalRuns() {
		t.Fatalf("finished progress inconsistent: %+v", p)
	}

	// Identical specs must simulate identically on another engine.
	other := runMatrix(t, quickMatrixBase(), nil, nil, 3, 2)
	for i := range res.Cells {
		a, b := res.Cells[i], other.Cells[i]
		if a.CPI != b.CPI {
			t.Fatalf("cell %v: CPI %+v != %+v on another engine", a.Coords, a.CPI, b.CPI)
		}
	}

	// Resubmission: every run served from cache, none simulated.
	job2, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if job2.Hash() != job.Hash() {
		t.Fatalf("identical campaigns hash differently")
	}
	if _, err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := job2.Progress(); p.CacheHits != int64(p.TotalRuns) || p.CacheMisses != 0 {
		t.Fatalf("resubmission progress = %+v; want all hits", p)
	}
}

// TestSubmitMatrixSharedCells checks two concurrent overlapping
// campaigns compute each distinct cell once (short-mode, race-covered).
func TestSubmitMatrixSharedCells(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	defer e.Close()

	sweep, err := ltp.NewMatrixSweep(ltp.RunSpec{Scale: 0.05, MaxInsts: 5_000},
		[]string{"branchy"}, []ltp.MatrixConfig{{Name: "IQ64"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := e.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	resA, errA := jobA.Wait()
	resB, errB := jobB.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if st := e.CacheStats(); st.Misses != 2 {
		t.Fatalf("two overlapping campaigns simulated %d cells; want 2 distinct (stats %+v)", st.Misses, st)
	}
	a, b := resA.Cell("branchy", "IQ64"), resB.Cell("branchy", "IQ64")
	if a.CPI != b.CPI {
		t.Fatalf("overlapping campaigns disagree: %+v vs %+v", a.CPI, b.CPI)
	}
}

// TestSubmitMatrixError checks a failing cell surfaces through Wait.
func TestSubmitMatrixError(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()
	nosuch := "nosuch"
	job, err := e.Submit(context.Background(), ltp.SweepSpec{
		Base: ltp.RunSpec{Scale: 0.05, MaxInsts: 5_000},
		Axes: []ltp.SweepAxis{{Name: "scenario", Points: []ltp.SweepPoint{{Name: nosuch, Patch: ltp.RunPatch{Scenario: &nosuch}}}}},
	})
	if err == nil {
		_, err = job.Wait()
	}
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// slowSweep returns a sweep whose cells take long enough (hundreds of
// milliseconds each) that a test can reliably cancel it mid-flight.
func slowSweep(cells int) ltp.SweepSpec {
	axis := ltp.SweepAxis{Name: "seed", Replicate: true}
	for k := 0; k < cells; k++ {
		seed := int64(k)
		axis.Points = append(axis.Points, ltp.SweepPoint{
			Name: string(rune('a' + k)), Patch: ltp.RunPatch{Seed: &seed},
		})
	}
	return ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 600_000},
		Axes: []ltp.SweepAxis{axis},
	}
}

// TestJobCancelMidFlight holds the cancellation acceptance criterion:
// cancelling a sweep mid-flight stops the remaining cells within one
// cell boundary — the in-flight cell aborts mid-pipeline, queued cells
// never simulate — and the job settles as canceled.
func TestJobCancelMidFlight(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 1})
	defer e.Close()

	const cells = 6
	job, err := e.Submit(context.Background(), slowSweep(cells))
	if err != nil {
		t.Fatal(err)
	}
	// Let the first cell get under way, then cancel.
	time.Sleep(100 * time.Millisecond)
	canceledAt := time.Now()
	job.Cancel()

	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	// The in-flight cell aborts within ~1ms of cancel (pipeline-level
	// cancellation checks); 1s is a generous CI bound that still rules
	// out "the cell ran to completion".
	if settle := time.Since(canceledAt); settle > time.Second {
		t.Fatalf("cancel took %v to settle; want well under a cell boundary", settle)
	}
	if _, err := job.Wait(); !errors.Is(err, ltp.ErrJobCanceled) {
		t.Fatalf("Wait err = %v; want ErrJobCanceled", err)
	}
	if !job.Canceled() {
		t.Fatal("job does not report canceled")
	}
	p := job.Progress()
	if p.DoneRuns+p.CanceledRuns != cells {
		t.Fatalf("progress = %+v; want done+canceled == %d", p, cells)
	}
	if p.CanceledRuns == 0 {
		t.Skip("every cell finished before the cancel landed (very fast machine)")
	}
	// The stream closes without delivering the abandoned cells.
	var streamed int
	for range job.Cells() {
		streamed++
	}
	if streamed != p.DoneRuns {
		t.Fatalf("stream delivered %d cells; want DoneRuns = %d", streamed, p.DoneRuns)
	}

	// No stale cancelled entry may be served: resubmitting the LAST
	// cell — guaranteed still queued when the cancel landed, since
	// parallelism is 1 — must actually simulate it.
	misses0 := e.CacheStats().Misses
	lastSeed := int64(cells - 1)
	job2, err := e.Submit(context.Background(), ltp.SweepSpec{
		Base: ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 600_000},
		Axes: []ltp.SweepAxis{{Name: "seed", Replicate: true, Points: []ltp.SweepPoint{
			{Name: "last", Patch: ltp.RunPatch{Seed: &lastSeed}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if e.CacheStats().Misses == misses0 {
		t.Fatal("resubmission after cancel simulated nothing; cancelled cells were served from cache")
	}
}

// TestRunCachedCanceledWaiterKeepsEntry exercises the engine-level
// single-flight contract: with two concurrent identical RunCached
// calls, cancelling one must not poison the shared cache entry — the
// survivor gets a result and a resubmission is a hit.
func TestRunCachedCanceledWaiterKeepsEntry(t *testing.T) {
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()

	spec := ltp.RunSpec{Scenario: "ptrchase", Scale: 0.1, MaxInsts: 400_000}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := e.RunCached(ctx, spec)
		errCh <- err
	}()
	resCh := make(chan error, 1)
	go func() {
		_, _, _, err := e.RunCached(context.Background(), spec)
		resCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller err = %v; want context.Canceled", err)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("surviving caller err = %v; want success", err)
	}
	if _, out, _, err := e.RunCached(context.Background(), spec); err != nil || out != cache.Hit {
		t.Fatalf("post-cancel resubmit = %v, %v; want hit", out, err)
	}
}

// TestEngineCloseNoGoroutineLeak asserts (under -race in short mode)
// that Close drains every worker and coordinator goroutine: the
// process-wide goroutine count settles back to its pre-engine level.
func TestEngineCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 4})
	if _, _, _, err := e.RunCached(context.Background(), engineSpec()); err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(context.Background(), slowSweep(2))
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	if _, err := job.Wait(); err == nil {
		t.Fatal("cancelled job reported success")
	}
	e.Close()

	// Settle loop: cancelled contexts and pool workers unwind within
	// microseconds, but give the scheduler room under -race.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d -> %d\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// outcomeExecutor is an ltp.Executor that answers every lane with a
// zero result and the given outcome after a short pause.
type outcomeExecutor struct{ out cache.Outcome }

func (x outcomeExecutor) Parallelism() int { return 3 }

func (x outcomeExecutor) RunBatch(ctx context.Context, b ltp.Batch) ([]ltp.RunResult, []cache.Outcome, []error) {
	time.Sleep(5 * time.Millisecond)
	outs := make([]cache.Outcome, len(b.Lanes))
	for i := range outs {
		outs[i] = x.out
	}
	return make([]ltp.RunResult, len(b.Lanes)), outs, make([]error, len(b.Lanes))
}

// TestExecutorOutcomes checks the Executor hook: the engine reports
// the executor's outcome in place of its own Miss, takes its
// parallelism and its backlog, and times only the lanes the executor
// simulated (a remote hit is a round trip, not a simulation).
func TestExecutorOutcomes(t *testing.T) {
	for _, out := range []cache.Outcome{cache.Miss, cache.Hit} {
		e := newTestEngine(t, ltp.EngineConfig{Executor: outcomeExecutor{out}})
		defer e.Close()
		if got := e.Parallelism(); got != 3 {
			t.Fatalf("Parallelism %d; want the executor's 3", got)
		}
		if _, got, _, err := e.RunCached(context.Background(), engineSpec()); err != nil || got != out {
			t.Fatalf("executor outcome %v: engine reported %v, %v", out, got, err)
		}
		if _, got, _, _ := e.RunCached(context.Background(), engineSpec()); got != cache.Hit {
			t.Fatalf("repeat was %v; want the engine's own hit", got)
		}
		if mean := e.MeanRunSecondsByBackend()[ltp.BackendCycle]; (out == cache.Miss) != (mean > 0) {
			t.Fatalf("executor outcome %v: mean run seconds %v", out, mean)
		}
		if q, r := e.QueuedRuns(), e.RunningRuns(); q != 0 || r != 0 {
			t.Fatalf("idle executor engine reports %d queued, %d running", q, r)
		}
	}
}

// blockingExecutor holds every batch until release closes.
type blockingExecutor struct{ release chan struct{} }

func (x blockingExecutor) Parallelism() int { return 3 }

func (x blockingExecutor) RunBatch(ctx context.Context, b ltp.Batch) ([]ltp.RunResult, []cache.Outcome, []error) {
	<-x.release
	return make([]ltp.RunResult, len(b.Lanes)), make([]cache.Outcome, len(b.Lanes)), make([]error, len(b.Lanes))
}

// TestExecutorBacklog checks an executor engine's backlog signal: the
// cells handed to the executor count as running up to its
// parallelism and as queued beyond it.
func TestExecutorBacklog(t *testing.T) {
	x := blockingExecutor{release: make(chan struct{})}
	e := newTestEngine(t, ltp.EngineConfig{Executor: x})
	defer e.Close()
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 5; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := engineSpec()
			spec.Seed = seed
			if _, _, _, err := e.RunCached(context.Background(), spec); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.QueuedRuns()+e.RunningRuns() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q, r := e.QueuedRuns(), e.RunningRuns(); q != 2 || r != 3 {
		t.Errorf("5 cells on a 3-wide executor: %d queued, %d running; want 2, 3", q, r)
	}
	close(x.release)
	wg.Wait()
	if q, r := e.QueuedRuns(), e.RunningRuns(); q != 0 || r != 0 {
		t.Fatalf("drained executor engine reports %d queued, %d running", q, r)
	}
}

// overlapExecutor records how many RunBatch calls run at once. Each
// call waits up to a second for a second call to join it, so an engine
// that launches two batches concurrently peaks at two, and one that
// runs them one after another peaks at one.
type overlapExecutor struct {
	mu          sync.Mutex
	calls, live int
	peak        int
	pair        chan struct{} // closed when two calls are in flight
}

func (x *overlapExecutor) Parallelism() int { return 2 }

func (x *overlapExecutor) RunBatch(ctx context.Context, b ltp.Batch) ([]ltp.RunResult, []cache.Outcome, []error) {
	x.mu.Lock()
	x.calls++
	x.live++
	if x.live > x.peak {
		x.peak = x.live
		if x.peak == 2 {
			close(x.pair)
		}
	}
	x.mu.Unlock()
	select {
	case <-x.pair:
	case <-ctx.Done():
	case <-time.After(time.Second):
	}
	x.mu.Lock()
	x.live--
	x.mu.Unlock()
	return make([]ltp.RunResult, len(b.Lanes)), make([]cache.Outcome, len(b.Lanes)), make([]error, len(b.Lanes))
}

// warmGroupSpec is a cell of warm group seed: cells of one seed share a
// functional stream and warm region, so they batch together.
func warmGroupSpec(seed int64, iq int) ltp.RunSpec {
	spec := engineSpec()
	spec.Seed, spec.WarmInsts = seed, 1_000
	cfg := pipeline.DefaultConfig()
	cfg.IQSize = iq
	spec.Pipeline = &cfg
	return spec
}

// TestRunBatchCachedGroupsOverlap checks that RunBatchCached launches
// its warm groups concurrently, as a sweep's phase does: two groups of
// two lanes each reach the executor as two overlapping batches.
func TestRunBatchCachedGroupsOverlap(t *testing.T) {
	x := &overlapExecutor{pair: make(chan struct{})}
	e := newTestEngine(t, ltp.EngineConfig{Executor: x})
	defer e.Close()
	specs := []ltp.RunSpec{warmGroupSpec(1, 32), warmGroupSpec(2, 32), warmGroupSpec(1, 64), warmGroupSpec(2, 64)}
	_, _, _, errs := e.RunBatchCached(context.Background(), sched.TierCampaign, specs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.calls != 2 {
		t.Errorf("%d executor batches for two warm groups; want 2", x.calls)
	}
	if x.peak != 2 {
		t.Errorf("at most %d batches in flight; want the two warm groups overlapped", x.peak)
	}
}

// parkingExecutor holds every batch until its context dies, counting
// the batches it was handed.
type parkingExecutor struct{ started atomic.Int32 }

func (x *parkingExecutor) Parallelism() int { return 1 }

func (x *parkingExecutor) RunBatch(ctx context.Context, b ltp.Batch) ([]ltp.RunResult, []cache.Outcome, []error) {
	x.started.Add(1)
	<-ctx.Done()
	errs := make([]error, len(b.Lanes))
	for i := range errs {
		errs[i] = ctx.Err()
	}
	return make([]ltp.RunResult, len(b.Lanes)), make([]cache.Outcome, len(b.Lanes)), errs
}

// TestRunBatchCachedCancel checks a cancelled RunBatchCached: every
// lane — in flight or never launched — reports the cancellation, and
// no unit reaches the executor after the cancel.
func TestRunBatchCachedCancel(t *testing.T) {
	x := &parkingExecutor{}
	e := newTestEngine(t, ltp.EngineConfig{Executor: x})
	defer e.Close()
	var specs []ltp.RunSpec
	for seed := int64(1); seed <= 6; seed++ {
		specs = append(specs, warmGroupSpec(seed, 32))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _, errs = e.RunBatchCached(ctx, sched.TierCampaign, specs)
	}()
	// A 1-wide executor keeps two units in flight.
	deadline := time.Now().Add(10 * time.Second)
	for x.started.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	atCancel := x.started.Load()
	cancel()
	<-done
	if atCancel != 2 {
		t.Errorf("%d units in flight before the cancel; want 2", atCancel)
	}
	if n := x.started.Load(); n != atCancel {
		t.Errorf("%d units reached the executor after the cancel", n-atCancel)
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("lane %d: %v; want the cancellation", i, err)
		}
	}
}
