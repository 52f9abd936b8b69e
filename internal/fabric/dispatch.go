package fabric

// The coordinator as its engine's Executor: the engine hands each
// batch of cache misses — one batch group sharing a functional stream,
// or a lone spec — to RunBatch, which cuts it into chunks no wider than
// its ring home's parallelism, places each chunk on the ring by the
// group key (so a group that fits one worker reaches that worker whole
// and shares one warm pass there), runs each as one /v1/cells request,
// and re-dispatches whatever a dead, hung or lying worker leaves
// unresolved — with exponential backoff — on the surviving ring until
// the attempt budget runs out. Single-flight, the result bank, jobs
// and triage are the engine's own.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ltp"
	"ltp/internal/cache"
	"ltp/internal/sched"
	"ltp/internal/server"
)

// errNoWorkers is the dispatch failure when no healthy worker exists;
// it burns retry attempts like any other worker loss so a fully dead
// fleet fails requests (503) instead of spinning.
var errNoWorkers = server.HTTPError(http.StatusServiceUnavailable, "fabric: no healthy workers")

// RunBatch computes one engine batch on the fleet (ltp.Executor).
// Every lane ends with a result, its in-band simulation failure, the
// cancellation cause, or — after the attempt budget — the last worker
// loss.
func (c *Coordinator) RunBatch(ctx context.Context, b ltp.Batch) ([]ltp.RunResult, []cache.Outcome, []error) {
	n := len(b.Lanes)
	results := make([]ltp.RunResult, n)
	outcomes := make([]cache.Outcome, n)
	errs := make([]error, n)
	chunks := c.chunks(b.Key, n)
	var wg sync.WaitGroup
	for i, lanes := range chunks {
		key := b.Key
		if i > 0 {
			key = fmt.Sprintf("%s#%d", b.Key, i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runChunk(ctx, b, key, lanes, results, outcomes, errs)
		}()
	}
	wg.Wait()
	return results, outcomes, errs
}

// chunks cuts a batch of n lanes into contiguous, near-equal chunks no
// wider than the reported parallelism of the key's ring home (a worker
// that has not reported counts as 1, as in Parallelism). A chunk fills
// one worker's pool over one warm pass; a group wider than that
// spreads over the fleet instead of queueing on one worker while the
// others idle. With no healthy worker the batch stays whole.
func (c *Coordinator) chunks(key string, n int) [][]int {
	width := n
	for _, name := range c.ring.lookupOrder(key, 0) {
		if w := c.workerByName(name); w != nil && w.isHealthy() {
			width = max(w.status().Parallelism, 1)
			break
		}
	}
	k := (n + width - 1) / width
	out := make([][]int, k)
	for i := range out {
		for l := i * n / k; l < (i+1)*n/k; l++ {
			out[i] = append(out[i], l)
		}
	}
	return out
}

// runChunk computes the lanes of b listed in pending, placing them by
// key, into the positional results, outcomes and errs (chunks of one
// batch write disjoint lanes).
func (c *Coordinator) runChunk(ctx context.Context, b ltp.Batch, key string, pending []int, results []ltp.RunResult, outcomes []cache.Outcome, errs []error) {
	for attempt := 1; len(pending) > 0; attempt++ {
		if attempt > 1 {
			t := time.NewTimer(min(c.retryBackoff<<(attempt-2), 30*time.Second))
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			for _, k := range pending {
				errs[k] = context.Cause(ctx)
			}
			return
		}
		weight := b.Weight * float64(len(pending)) / float64(len(b.Lanes))
		err := errNoWorkers
		if w := c.place(key, weight); w != nil {
			pending, err = c.runOn(ctx, w, b, weight, pending, results, outcomes, errs)
		}
		if len(pending) > 0 && attempt >= c.retryAttempts {
			for _, k := range pending {
				errs[k] = fmt.Errorf("fabric: batch %s failed after %d attempts: %w", key, attempt, err)
			}
			return
		}
	}
}

// runOn sends b's pending lanes to w as one /v1/cells request and
// fills in every lane it resolves. It returns the lanes left
// unresolved and why. A transport failure (connection loss, hang
// timeout, malformed stream) also marks the worker down; in-band cell
// errors are terminal simulation failures and resolve their lanes.
func (c *Coordinator) runOn(ctx context.Context, w *worker, b ltp.Batch, weight float64, pending []int, results []ltp.RunResult, outcomes []cache.Outcome, errs []error) ([]int, error) {
	specs := make([]ltp.RunSpec, len(pending))
	for i, k := range pending {
		specs[i] = b.Lanes[k]
	}
	w.addLoad(len(pending), weight)
	defer w.releaseLoad(len(pending), weight)

	resolved := make([]bool, len(pending))
	err := w.runCells(ctx, specs, b.Tier == sched.TierInteractive, c.hangTimeout, func(ev server.CellEvent) error {
		if ev.Index < 0 || ev.Index >= len(pending) || resolved[ev.Index] {
			return fmt.Errorf("cell event index %d out of range or duplicate", ev.Index)
		}
		if ev.Error == "" && ev.Result == nil {
			return fmt.Errorf("cell event %d carries neither result nor error", ev.Index)
		}
		resolved[ev.Index] = true
		k := pending[ev.Index]
		if ev.Error != "" {
			errs[k] = fmt.Errorf("fabric: cell failed on %s: %s", w.name, ev.Error)
		} else {
			results[k], outcomes[k] = *ev.Result, parseOutcome(ev.Outcome)
		}
		return nil
	})
	var left []int
	for i, k := range pending {
		if !resolved[i] {
			left = append(left, k)
		}
	}
	switch {
	case err != nil && ctx.Err() == nil:
		w.markDown(err)
		c.logf("worker %s lost mid-batch (%d cells unresolved): %v", w.name, len(left), err)
	case err == nil && len(left) > 0:
		// A clean Done marker with unresolved cells is a protocol
		// violation; retry them elsewhere.
		err = fmt.Errorf("fabric: %s closed the batch without resolving every cell", w.name)
	}
	return left, err
}

// spillFactor tunes cache affinity against load balance: a batch leaves
// its ring home only when the home's estimated finish exceeds
// spillFactor × the best worker's.
const spillFactor = 3

// place picks the worker for one batch by its key: the ring home,
// unless the home is so much more loaded than the best candidate that
// cache affinity stops paying — then the worker that would finish the
// batch first. A worker's finish estimate is LPT's for processors of
// different speeds: (charged weight + this batch's weight) over its
// reported parallelism.
func (c *Coordinator) place(key string, weight float64) *worker {
	var home, best *worker
	var homeCost, bestCost float64
	for _, name := range c.ring.lookupOrder(key, 0) {
		w := c.workerByName(name)
		if w == nil || !w.isHealthy() {
			continue
		}
		cost := w.finishAfter(weight)
		if home == nil {
			home, homeCost = w, cost
		}
		if best == nil || cost < bestCost {
			best, bestCost = w, cost
		}
	}
	if home == nil {
		return nil
	}
	if homeCost <= spillFactor*bestCost+1e-9 {
		return home
	}
	return best
}

// parseOutcome maps a worker-reported outcome onto the known set, so
// arbitrary strings never propagate into client-facing cells.
func parseOutcome(outcome string) cache.Outcome {
	switch outcome {
	case "hit":
		return cache.Hit
	case "shared":
		return cache.Shared
	case "store":
		return cache.StoreHit
	default:
		return cache.Miss
	}
}
