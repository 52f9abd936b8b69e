package fabric

// The Coordinator: the fleet's front door. It is a server.Server over
// an ltp.Engine whose cache misses run on the fleet (the Coordinator
// is that engine's Executor, dispatch.go), so /v1/run, /v1/sweep,
// /v1/jobs, cancellation, since_snapshot, admission and the result
// store are the single-node code itself. A small mux in front adds the
// fleet surface: worker registration (/v1/workers), fleet stats, and a
// health view that counts live workers.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"ltp"
	"ltp/internal/server"
	"ltp/internal/store"
)

// Config assembles a Coordinator.
type Config struct {
	// Workers are the initial fleet members' base URLs (more can join
	// via POST /v1/workers).
	Workers []string
	// Limits is the coordinator's admission policy, as on a single node
	// (zero fields = server.DefaultLimits; MaxTenantJobs is the
	// per-tenant quota).
	Limits server.Limits
	// StorePath, when non-empty, is the coordinator engine's persistent
	// result store: the bank a restarted coordinator serves from.
	StorePath string
	// CacheEntries bounds the coordinator engine's result cache
	// (0 = cache.DefaultEntries).
	CacheEntries int
	// Logf, when non-nil, receives one line per request and per fleet
	// event.
	Logf func(format string, args ...any)
	// RetryAttempts is each batch's dispatch budget across worker
	// losses (0 = 3).
	RetryAttempts int
	// RetryBackoff is the base delay between dispatch attempts,
	// doubling per attempt up to 30s (0 = 200ms).
	RetryBackoff time.Duration
	// HangTimeout severs a batch stream that moves no byte for this
	// long — workers send heartbeats well inside it — and retries its
	// unresolved cells elsewhere (0 = 2m; negative disables).
	HangTimeout time.Duration
	// PollInterval paces the worker health/stats poll (0 = 2s).
	PollInterval time.Duration
	// HTTPClient overrides the worker-facing client (nil = a default
	// client; tests inject fault proxies here).
	HTTPClient *http.Client
}

// Coordinator fronts a fleet of ltpserved workers behind the
// single-node campaign API.
type Coordinator struct {
	retryAttempts int
	retryBackoff  time.Duration
	hangTimeout   time.Duration
	pollInterval  time.Duration

	ring *ring
	hc   *http.Client

	mu      sync.Mutex
	workers map[string]*worker

	engine     *ltp.Engine
	srv        *server.Server
	started    time.Time
	mux        *http.ServeMux
	logFn      func(format string, args ...any)
	pollCancel context.CancelFunc
	pollDone   chan struct{}

	closeOnce sync.Once
}

// New assembles a coordinator and starts its worker poll loop (it
// does not listen; mount Handler on an http.Server). Errors come from
// invalid worker URLs or opening Config.StorePath.
func New(cfg Config) (*Coordinator, error) {
	c := &Coordinator{
		retryAttempts: cfg.RetryAttempts,
		retryBackoff:  cfg.RetryBackoff,
		hangTimeout:   cfg.HangTimeout,
		pollInterval:  cfg.PollInterval,
		ring:          newRing(),
		hc:            cfg.HTTPClient,
		workers:       make(map[string]*worker),
		started:       time.Now(),
		logFn:         cfg.Logf,
		pollDone:      make(chan struct{}),
	}
	if c.retryAttempts <= 0 {
		c.retryAttempts = 3
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = 200 * time.Millisecond
	}
	if c.hangTimeout == 0 {
		c.hangTimeout = 2 * time.Minute
	}
	if c.pollInterval <= 0 {
		c.pollInterval = 2 * time.Second
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	for _, u := range cfg.Workers {
		if err := c.AddWorker(u); err != nil {
			return nil, err
		}
	}
	e, err := ltp.NewEngine(ltp.EngineConfig{Executor: c, StorePath: cfg.StorePath, CacheEntries: cfg.CacheEntries})
	if err != nil {
		return nil, fmt.Errorf("fabric: opening result store: %w", err)
	}
	srv, err := server.New(server.Config{Engine: e, Limits: cfg.Limits, Logf: cfg.Logf})
	if err != nil {
		e.Close()
		return nil, err
	}
	c.engine, c.srv = e, srv

	c.mux = http.NewServeMux()
	c.handle("GET /healthz", c.handleHealth)
	c.handle("GET /v1/stats", c.handleStats)
	c.handle("GET /v1/workers", c.handleWorkersGet)
	c.handle("POST /v1/workers", c.handleWorkersPost)
	c.handle("DELETE /v1/workers", c.handleWorkersDelete)
	c.mux.Handle("/", srv) // the single-node API (it logs its own requests)

	pctx, cancel := context.WithCancel(context.Background())
	c.pollCancel = cancel
	go c.pollLoop(pctx)
	return c, nil
}

// handle registers a fleet endpoint with request logging.
func (c *Coordinator) handle(pattern string, h http.HandlerFunc) {
	c.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		c.logf("%s %s", r.Method, r.URL.Path)
		h(w, r)
	})
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// logf logs one line when Config.Logf was given.
func (c *Coordinator) logf(format string, args ...any) {
	if c.logFn != nil {
		c.logFn(format, args...)
	}
}

// Close cancels every active campaign, waits for them to settle,
// closes the engine (and its result store) and stops the poll loop.
func (c *Coordinator) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Shutdown(ctx)
}

// Shutdown drains the coordinator for process exit: it waits — bounded
// by ctx — for active campaigns to finish on their own, then cancels
// whatever is still running and closes. Stop accepting requests first
// (http.Server.Shutdown).
func (c *Coordinator) Shutdown(ctx context.Context) {
	c.closeOnce.Do(func() {
		c.srv.Shutdown(ctx)
		c.engine.Close()
		c.pollCancel()
		<-c.pollDone
	})
}

// AddWorker joins a worker (by base URL) to the fleet and the ring. A
// worker joins optimistically healthy — the first failed dispatch or
// poll marks it down — and already-present workers are a no-op.
func (c *Coordinator) AddWorker(rawURL string) error {
	name, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[name]; ok {
		return nil
	}
	c.workers[name] = newWorker(name, c.hc)
	c.ring.add(name)
	c.logf("worker %s joined (%d members)", name, c.ring.size())
	return nil
}

// RemoveWorker leaves a worker from the fleet and the ring, reporting
// whether it was a member. Batches in flight on it finish or fail on
// their own; future placement simply stops choosing it.
func (c *Coordinator) RemoveWorker(rawURL string) bool {
	name, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[name]; !ok {
		return false
	}
	delete(c.workers, name)
	c.ring.remove(name)
	c.logf("worker %s left (%d members)", name, c.ring.size())
	return true
}

// Workers snapshots the fleet, sorted by URL.
func (c *Coordinator) Workers() []WorkerStatus {
	out := make([]WorkerStatus, 0)
	for _, name := range c.ring.memberList() {
		if w := c.workerByName(name); w != nil {
			out = append(out, w.status())
		}
	}
	return out
}

// Parallelism is the healthy fleet's summed reported parallelism (a
// member that has not reported yet counts as 1), at least 1: the
// coordinator engine's concurrency cap (ltp.Executor).
func (c *Coordinator) Parallelism() int {
	par := 0
	for _, w := range c.workerList() {
		if w.isHealthy() {
			par += max(w.status().Parallelism, 1)
		}
	}
	return max(par, 1)
}

// normalizeWorkerURL validates a worker base URL and strips the
// trailing slash so identical workers get identical ring identities.
func normalizeWorkerURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("fabric: worker url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("fabric: worker url %q is not an http(s) base URL", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// workerByName returns the fleet member with the given ring identity.
func (c *Coordinator) workerByName(name string) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[name]
}

// workerList snapshots the fleet members.
func (c *Coordinator) workerList() []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w)
	}
	return out
}

// pollLoop polls every worker's /v1/stats — immediately, then every
// PollInterval — keeping health flags and reported parallelism fresh
// and reviving workers that come back.
func (c *Coordinator) pollLoop(ctx context.Context) {
	defer close(c.pollDone)
	c.pollAll(ctx)
	t := time.NewTicker(c.pollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.pollAll(ctx)
		}
	}
}

// pollAll polls the whole fleet concurrently.
func (c *Coordinator) pollAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.workerList() {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.poll(ctx, c.pollInterval)
		}(w)
	}
	wg.Wait()
}

// HealthResponse is the coordinator's GET /healthz body: the
// single-node shape plus the fleet view.
type HealthResponse struct {
	// Status is "ok" whenever the coordinator can respond (it serves
	// even with zero healthy workers; batches then fail after their
	// retry budget).
	Status string `json:"status"`
	// UptimeSeconds is the coordinator's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Workers counts fleet members.
	Workers int `json:"workers"`
	// HealthyWorkers counts members answering their stats poll.
	HealthyWorkers int `json:"healthy_workers"`
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	total, healthy := 0, 0
	for _, wk := range c.workerList() {
		total++
		if wk.isHealthy() {
			healthy++
		}
	}
	server.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:         "ok",
		UptimeSeconds:  time.Since(c.started).Seconds(),
		Workers:        total,
		HealthyWorkers: healthy,
	})
}

// WorkerStatus is one fleet member's view in /v1/workers and
// /v1/stats.
type WorkerStatus struct {
	// URL is the worker's base URL (its ring identity).
	URL string `json:"url"`
	// Healthy reports whether the worker answers its stats poll (and
	// is therefore placeable).
	Healthy bool `json:"healthy"`
	// LastError is the most recent transport failure ("" when
	// healthy).
	LastError string `json:"last_error,omitempty"`
	// Parallelism is the worker's reported concurrent-simulation cap
	// (0 before its first successful poll).
	Parallelism int `json:"parallelism"`
	// PendingCells counts cells this coordinator currently has in
	// flight on the worker.
	PendingCells int `json:"pending_cells"`
	// MeanRunSeconds is the worker's reported per-backend EWMA of
	// simulated-cell seconds.
	MeanRunSeconds map[string]float64 `json:"mean_run_seconds,omitempty"`
}

// WorkersResponse is the GET/POST/DELETE /v1/workers body: the fleet
// roster after the operation.
type WorkersResponse struct {
	// Workers lists the fleet, sorted by URL.
	Workers []WorkerStatus `json:"workers"`
}

// WorkerJoinRequest is the POST /v1/workers body.
type WorkerJoinRequest struct {
	// URL is the joining worker's base URL.
	URL string `json:"url"`
}

func (c *Coordinator) handleWorkersGet(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, WorkersResponse{Workers: c.Workers()})
}

func (c *Coordinator) handleWorkersPost(w http.ResponseWriter, r *http.Request) {
	var req WorkerJoinRequest
	if err := server.DecodeJSON(r, &req); err != nil {
		server.WriteError(w, err)
		return
	}
	if err := c.AddWorker(req.URL); err != nil {
		server.WriteError(w, server.HTTPError(http.StatusBadRequest, "%v", err))
		return
	}
	server.WriteJSON(w, http.StatusOK, WorkersResponse{Workers: c.Workers()})
}

// handleWorkersDelete removes the worker named by the url query
// parameter from the ring.
func (c *Coordinator) handleWorkersDelete(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("url")
	if raw == "" {
		server.WriteError(w, server.HTTPError(http.StatusBadRequest, "missing url query parameter"))
		return
	}
	if !c.RemoveWorker(raw) {
		server.WriteError(w, server.HTTPError(http.StatusNotFound, "no such worker"))
		return
	}
	server.WriteJSON(w, http.StatusOK, WorkersResponse{Workers: c.Workers()})
}

// FleetStatsResponse is the coordinator's GET /v1/stats body.
type FleetStatsResponse struct {
	// Workers is the per-member health and load view.
	Workers []WorkerStatus `json:"workers"`
	// Jobs counts coordinator campaigns.
	Jobs server.JobStats `json:"jobs"`
	// Limits echoes the admission policy.
	Limits server.Limits `json:"limits"`
	// Store exposes the coordinator's result store counters (absent
	// without Config.StorePath).
	Store *store.Stats `json:"store,omitempty"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	st := c.srv.Stats()
	server.WriteJSON(w, http.StatusOK, FleetStatsResponse{
		Workers: c.Workers(),
		Jobs:    st.Jobs,
		Limits:  st.Limits,
		Store:   st.Store,
	})
}
