package sched

import (
	"context"
	"runtime"
	"sync"
)

// Tier is a priority class for pool jobs. Lower tiers dispatch first
// regardless of cost, so interactive requests preempt queued campaign
// cells (a job already running is never preempted — tiers order the
// queue, not the workers).
type Tier uint8

const (
	// TierInteractive is for latency-sensitive single-run requests.
	TierInteractive Tier = iota
	// TierCampaign is for batch sweep/campaign cells.
	TierCampaign
)

// Pool is a long-lived bounded worker pool with tiered LPT
// (longest-processing-time-first) dispatch: of the jobs queued at the
// moment a worker frees up, the lowest tier wins, the highest cost
// estimate within that tier starts next, and FIFO order breaks ties.
// One Pool can serve many concurrent producers — the campaign service
// runs interactive single-run requests and batch sweep campaigns
// through the same Pool so the whole process respects one parallelism
// cap.
//
// Every job carries a context: a job whose context is already
// cancelled when a worker dequeues it is handed straight to its
// callback (which observes the dead context and returns) instead of
// simulating, so a cancelled campaign's queued cells drain in
// microseconds rather than occupying workers.
//
// Unlike Run, which sorts a fully known job list up front, a Pool
// schedules online: jobs submitted while workers are busy are ordered
// against each other, but a job can never preempt one already running.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   []poolJob // min-heap on (tier, -cost, seq)
	seq    uint64
	closed bool
	wg     sync.WaitGroup

	workers int
	running int // jobs currently executing
}

type poolJob struct {
	tier  Tier
	cost  float64
	seq   uint64
	ctx   context.Context
	fn    func(context.Context)
	batch *batch // non-nil for RunBatch subtasks
}

// batch tracks one RunBatch call: how many subtasks have not finished
// and the channel closed when the count reaches zero.
type batch struct {
	remaining int
	done      chan struct{}
}

// less orders the heap: lower tier first, then higher cost, then lower
// seq (earlier submission) among equals.
func (p *Pool) less(a, b poolJob) bool {
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.seq < b.seq
}

// NewPool starts a pool with the given number of workers (<= 0 means
// NumCPU). Close releases it.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

// Workers returns the pool's worker count (its parallelism cap).
func (p *Pool) Workers() int { return p.workers }

// Queued returns the number of submitted jobs not yet started.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.heap)
}

// Running returns the number of jobs currently executing.
func (p *Pool) Running() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// SubmitCtx enqueues fn at the given tier with the given cost estimate
// and returns immediately. fn always runs exactly once, receiving ctx:
// on a pool worker when it reaches the head of the dispatch order, or
// synchronously on the caller's goroutine when the pool is closed (no
// pooling, but callers blocked on fn's completion still make progress —
// this is what makes a drain-timeout shutdown race safe instead of a
// panic). fn must observe ctx and return promptly once it is cancelled;
// the pool guarantees delivery, not cancellation, so completion
// signalling (closing a done channel) stays fn's responsibility.
func (p *Pool) SubmitCtx(ctx context.Context, tier Tier, cost float64, fn func(context.Context)) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fn(ctx)
		return
	}
	p.push(poolJob{tier: tier, cost: cost, seq: p.seq, ctx: ctx, fn: fn})
	p.seq++
	p.mu.Unlock()
	p.cond.Signal()
}

// RunBatch enqueues every fn at the given tier and returns only when
// all of them have completed. The calling goroutine helps: while any
// of the batch's jobs are still queued it dequeues and executes them
// itself, so a job that is itself occupying a pool worker can fan out
// subtasks without deadlocking a fully-busy pool (work helping — this
// is how a sampled-tier cell runs its K interval simulations on the
// same pool that runs the cell). Idle pool workers pick batch jobs out
// of the shared queue like any other job, so on a multi-worker pool
// the batch genuinely runs in parallel.
//
// costs[i] is fn[i]'s cost estimate for LPT ordering within the tier;
// a short or nil costs slice treats the uncovered tail as cost 0. As
// with SubmitCtx, the pool guarantees delivery, not cancellation: a
// cancelled ctx is still handed to every fn, which must observe it and
// return promptly. On a closed pool the batch degenerates to a
// sequential inline loop.
func (p *Pool) RunBatch(ctx context.Context, tier Tier, costs []float64, fns []func(context.Context)) {
	if len(fns) == 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	b := &batch{remaining: len(fns), done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for _, fn := range fns {
			fn(ctx)
		}
		return
	}
	for i, fn := range fns {
		var cost float64
		if i < len(costs) {
			cost = costs[i]
		}
		p.push(poolJob{tier: tier, cost: cost, seq: p.seq, ctx: ctx, fn: fn, batch: b})
		p.seq++
	}
	p.mu.Unlock()
	p.cond.Broadcast()

	for {
		p.mu.Lock()
		idx := -1
		for i := range p.heap {
			if p.heap[i].batch == b {
				idx = i
				break
			}
		}
		if idx < 0 {
			p.mu.Unlock()
			break
		}
		job := p.removeAt(idx)
		p.mu.Unlock()
		job.fn(job.ctx)
		p.finishBatchJob(job)
	}
	<-b.done
}

// finishBatchJob records a batch subtask's completion, closing the
// batch's done channel when it was the last one.
func (p *Pool) finishBatchJob(job poolJob) {
	if job.batch == nil {
		return
	}
	p.mu.Lock()
	job.batch.remaining--
	last := job.batch.remaining == 0
	p.mu.Unlock()
	if last {
		close(job.batch.done)
	}
}

// Close stops accepting jobs, waits for every queued and running job
// to finish, and releases the workers.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

func (p *Pool) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.heap) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.heap) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		job := p.pop()
		p.running++
		p.mu.Unlock()

		job.fn(job.ctx)
		p.finishBatchJob(job)

		p.mu.Lock()
		p.running--
		p.mu.Unlock()
	}
}

// push/pop/removeAt implement a slice min-heap under p.less (caller
// holds mu).
func (p *Pool) push(j poolJob) {
	p.heap = append(p.heap, j)
	p.siftUp(len(p.heap) - 1)
}

func (p *Pool) pop() poolJob {
	return p.removeAt(0)
}

// removeAt extracts the job at heap index i, restoring heap order.
func (p *Pool) removeAt(i int) poolJob {
	j := p.heap[i]
	last := len(p.heap) - 1
	p.heap[i] = p.heap[last]
	p.heap[last] = poolJob{} // release the ctx/fn references
	p.heap = p.heap[:last]
	if i < len(p.heap) {
		p.siftDown(i)
		p.siftUp(i)
	}
	return j
}

func (p *Pool) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(p.heap[i], p.heap[parent]) {
			break
		}
		p.heap[i], p.heap[parent] = p.heap[parent], p.heap[i]
		i = parent
	}
}

func (p *Pool) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(p.heap) && p.less(p.heap[l], p.heap[best]) {
			best = l
		}
		if r < len(p.heap) && p.less(p.heap[r], p.heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		p.heap[i], p.heap[best] = p.heap[best], p.heap[i]
		i = best
	}
}
