package server

import (
	"fmt"
	"sync"
	"time"

	"ltp"
)

// JobStatus is a campaign job's lifecycle state.
type JobStatus string

// Job lifecycle: running until the engine resolves every cell, then
// done (result available), failed (error available) or canceled
// (DELETE /v1/jobs/{id}, or server drain).
const (
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// JobKind names a campaign's shape in listings and responses.
type JobKind string

// KindSweep is the generalized sweep, the one campaign shape.
const KindSweep JobKind = "sweep"

// JobView is the JSON shape of one campaign job (GET /v1/jobs).
type JobView struct {
	// ID addresses the job (GET/DELETE /v1/jobs/{id}).
	ID string `json:"id"`
	// Kind is "sweep".
	Kind JobKind `json:"kind"`
	// Hash is the campaign's content address — identical campaigns
	// share it even across jobs.
	Hash string `json:"hash"`
	// Status is running, done, failed or canceled.
	Status JobStatus `json:"status"`
	// Error holds the failure or cancellation cause when Status is
	// failed or canceled.
	Error string `json:"error,omitempty"`
	// Progress snapshots the cell counters at view time.
	Progress ltp.Progress `json:"progress"`
	// SubmittedAt is the server-local submission time (RFC 3339).
	SubmittedAt string `json:"submitted_at"`
}

// trackedJob pairs a sweep job with its registry identity. The NDJSON
// stream reads the job's own cell log (ltp.Job.CellsFrom). Exactly one
// stream can exist per job (the submitting request's, reserved at
// registration; there is no reconnect endpoint), and the log is
// released once the job finishes and that stream — if any — has ended,
// rather than retained for the registry's whole 128-job history.
type trackedJob struct {
	id        string
	tenant    string
	hash      string
	job       *ltp.Job
	submitted time.Time

	mu      sync.Mutex
	streams int // NDJSON streams reading the log (reserved at submit)
}

// newTrackedJob wraps a submitted job. reserveStream pre-counts the
// submitting request's own NDJSON stream so the log cannot be released
// between registration and that stream's first read.
func newTrackedJob(id, tenant, hash string, job *ltp.Job, reserveStream bool) *trackedJob {
	t := &trackedJob{id: id, tenant: tenant, hash: hash, job: job, submitted: time.Now()}
	if reserveStream {
		t.streams = 1
	}
	return t
}

// streamFinished releases one reserved/active stream slot and drops
// the log if it was the last and the job is over.
func (t *trackedJob) streamFinished() {
	t.mu.Lock()
	t.streams--
	t.mu.Unlock()
	t.maybeReleaseLog()
}

// maybeReleaseLog drops the job's cell log once the job has finished
// and no stream is (or can ever be) reading it.
func (t *trackedJob) maybeReleaseLog() {
	select {
	case <-t.job.Done():
	default:
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.streams == 0 {
		t.job.ReleaseCells()
	}
}

// view snapshots the job for JSON rendering.
func (t *trackedJob) view() JobView {
	v := JobView{
		ID:          t.id,
		Kind:        KindSweep,
		Hash:        t.hash,
		Status:      JobRunning,
		Progress:    t.job.Progress(),
		SubmittedAt: t.submitted.UTC().Format(time.RFC3339),
	}
	select {
	case <-t.job.Done():
		_, err := t.job.Wait()
		switch {
		case err == nil:
			v.Status = JobDone
		case t.job.Canceled():
			v.Status, v.Error = JobCanceled, err.Error()
		default:
			v.Status, v.Error = JobFailed, err.Error()
		}
	default:
	}
	return v
}

// maxRetainedJobs bounds how many finished campaigns the registry
// keeps addressable (oldest finished jobs are evicted first; active
// campaigns are never evicted). The result cache outlives a job's
// registry entry, so re-submitting an evicted campaign is still all
// cache hits.
const maxRetainedJobs = 128

// registry tracks submitted campaigns, enforces the active-job
// backpressure bound and the per-tenant quota, and retains at most
// maxRetainedJobs finished campaigns so a long-running service cannot
// grow without limit.
type registry struct {
	mu        sync.Mutex
	idle      *sync.Cond // broadcast whenever active drops
	seq       int
	total     int
	jobs      map[string]*trackedJob
	order     []string // submission order, for listing and eviction
	active    int
	max       int
	tenantMax int
	perTenant map[string]int // active campaigns per tenant
	finished  map[string]bool
}

func newRegistry(maxActive, tenantMax int) *registry {
	r := &registry{
		jobs:      make(map[string]*trackedJob),
		finished:  make(map[string]bool),
		perTenant: make(map[string]int),
		max:       maxActive,
		tenantMax: tenantMax,
	}
	r.idle = sync.NewCond(&r.mu)
	return r
}

// errBusy and errTenantBusy are the 429s the registry returns at the
// active-job bound and at a tenant's quota (the handler decorates them
// with Retry-After and duplicate-job hints).
var (
	errBusy       = &apiError{status: 429, msg: "too many active campaigns; retry after one finishes"}
	errTenantBusy = &apiError{status: 429, msg: "tenant is at its active-campaign quota; retry after one of its campaigns finishes"}
)

// admit reserves an active-job slot for the tenant and returns the new
// job's id, or a 429 at either bound. The caller must call either
// register (on successful submission) or release (on failure).
func (r *registry) admit(tenant, hash string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active >= r.max {
		return "", errBusy
	}
	if r.perTenant[tenant] >= r.tenantMax {
		return "", errTenantBusy
	}
	r.active++
	r.perTenant[tenant]++
	r.seq++
	short := hash
	if i := len("sw1:"); len(short) > i+8 {
		short = short[i : i+8]
	}
	return fmt.Sprintf("j%04d-%s", r.seq, short), nil
}

// release returns an admitted slot without registering (submission
// failed validation downstream).
func (r *registry) release(tenant string) {
	r.mu.Lock()
	r.free(tenant)
	r.mu.Unlock()
}

// free returns one active slot of the tenant's (caller holds mu).
func (r *registry) free(tenant string) {
	r.active--
	if r.perTenant[tenant]--; r.perTenant[tenant] <= 0 {
		delete(r.perTenant, tenant)
	}
	r.idle.Broadcast()
}

// register records the job and arranges the slot's release (and
// retention pruning) when the campaign finishes.
func (r *registry) register(t *trackedJob) *trackedJob {
	r.mu.Lock()
	r.jobs[t.id] = t
	r.order = append(r.order, t.id)
	r.total++
	r.mu.Unlock()
	go func() {
		<-t.job.Done()
		r.mu.Lock()
		r.free(t.tenant)
		r.finished[t.id] = true
		r.prune()
		r.mu.Unlock()
		t.maybeReleaseLog()
	}()
	return t
}

// prune evicts the oldest finished jobs beyond maxRetainedJobs
// (caller holds mu). Active campaigns are never evicted and do not
// count against the retention bound.
func (r *registry) prune() {
	for len(r.finished) > maxRetainedJobs {
		evicted := false
		for i, id := range r.order {
			if r.finished[id] {
				delete(r.jobs, id)
				delete(r.finished, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still active
		}
	}
}

// get returns the job by id.
func (r *registry) get(id string) (*trackedJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.jobs[id]
	return t, ok
}

// findActiveByHash returns a still-running job with the given campaign
// hash, if any — the duplicate a 429'd client can poll instead of
// resubmitting.
func (r *registry) findActiveByHash(hash string) (*trackedJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.order {
		if t := r.jobs[id]; t != nil && t.hash == hash && !r.finished[id] {
			return t, true
		}
	}
	return nil, false
}

// list returns every job, newest first.
func (r *registry) list() []*trackedJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*trackedJob, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		out = append(out, r.jobs[r.order[i]])
	}
	return out
}

// counts returns (total ever served, active).
func (r *registry) counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.active
}

// live snapshots the still-running campaigns.
func (r *registry) live() []*trackedJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*trackedJob
	for _, id := range r.order {
		if !r.finished[id] {
			out = append(out, r.jobs[id])
		}
	}
	return out
}

// remainingRuns sums the not-yet-resolved runs of every active
// campaign — the true backlog behind a 429, which the pool's queue
// depth understates because each job exposes only a bounded window of
// cells to the pool at a time. A triage job's remaining work is capped
// at its detailed-phase size: the model pre-pass runs cost
// milliseconds, and pricing them at the cycle-cell EWMA mean would
// inflate Retry-After by orders of magnitude.
func (r *registry) remainingRuns() int {
	total := 0
	for _, t := range r.live() {
		p := t.job.Progress()
		left := p.TotalRuns - p.DoneRuns - p.CanceledRuns
		if spec := t.job.Spec(); spec.Triage != nil {
			if detail := spec.Triage.TopK * spec.Replicates(); left > detail {
				left = detail
			}
		}
		if left > 0 {
			total += left
		}
	}
	return total
}

// cancelActive cancels every still-running campaign (server drain).
func (r *registry) cancelActive() {
	for _, t := range r.live() {
		t.job.Cancel()
	}
}

// awaitIdle blocks until no campaign is active or stop closes; it
// reports whether the registry went idle.
func (r *registry) awaitIdle(stop <-chan struct{}) bool {
	stopped := make(chan struct{})
	var once sync.Once
	if stop != nil {
		go func() {
			select {
			case <-stop:
				r.mu.Lock()
				r.idle.Broadcast()
				r.mu.Unlock()
			case <-stopped:
			}
		}()
	}
	defer once.Do(func() { close(stopped) })
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.active > 0 {
		select {
		case <-stop:
			return false
		default:
		}
		r.idle.Wait()
	}
	return true
}
