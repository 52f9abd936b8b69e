package fabric

// The coordinator's view of one ltpserved worker: an HTTP client for
// the /v1/cells batch endpoint and the /v1/stats poll, plus the
// coordinator-side load and health bookkeeping that feeds fleet-level
// LPT placement. Everything read off the wire goes through the
// defensive decoders at the bottom of this file — a worker is a
// separate process on a network, and arbitrary bytes from it must
// fail the affected cells (triggering a retry elsewhere), never panic
// the coordinator (FuzzWorkerDecode holds that property).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"ltp"
	"ltp/internal/server"
)

// errWorkerHang marks a batch stream that went silent — not even a
// heartbeat — past the coordinator's hang timeout: the request is
// severed and its unresolved cells are re-dispatched like any other
// worker loss.
var errWorkerHang = errors.New("fabric: worker stream stalled past the hang timeout")

// errStreamSevered marks a batch stream that ended without the Done
// marker: the worker died (or the connection was cut) with cells
// unresolved.
var errStreamSevered = errors.New("fabric: worker stream severed before completion")

// worker is the coordinator's handle on one fleet member.
type worker struct {
	// name is the worker's base URL — also its ring identity.
	name string
	hc   *http.Client

	mu      sync.Mutex
	healthy bool
	lastErr string
	// parallelism is the worker-reported pool size (0 until the first
	// successful poll).
	parallelism int
	// means is the worker-reported per-backend EWMA of simulated-cell
	// seconds (Engine.MeanRunSecondsByBackend), shown in the roster.
	means map[string]float64
	// pendingCells / pendingWeight track what this coordinator
	// currently has in flight on the worker (lanes and summed LPT
	// weight).
	pendingCells  int
	pendingWeight float64
}

func newWorker(name string, hc *http.Client) *worker {
	return &worker{name: name, hc: hc, healthy: true}
}

// isHealthy reports whether the worker is dispatchable.
func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// markDown records a transport-level failure; the poll loop revives
// the worker when it answers again.
func (w *worker) markDown(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = false
	if err != nil {
		w.lastErr = err.Error()
	}
}

// markUp records a successful poll and its reported stats.
func (w *worker) markUp(st workerStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = true
	w.lastErr = ""
	if st.Parallelism > 0 {
		w.parallelism = st.Parallelism
	}
	w.means = st.Means
}

// finishAfter estimates when the worker would finish a batch of the
// given weight: the weight this coordinator has in flight on it plus
// the batch's, over its parallelism — the fleet LPT placement cost.
func (w *worker) finishAfter(weight float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return (w.pendingWeight + weight) / float64(max(w.parallelism, 1))
}

// addLoad charges a newly dispatched batch.
func (w *worker) addLoad(cells int, weight float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pendingCells += cells
	w.pendingWeight += weight
}

// releaseLoad returns a finished (or failed) batch's charge.
func (w *worker) releaseLoad(cells int, weight float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pendingCells -= cells; w.pendingCells < 0 {
		w.pendingCells = 0
	}
	if w.pendingWeight -= weight; w.pendingWeight < 0 || w.pendingCells == 0 {
		w.pendingWeight = 0
	}
}

// status snapshots the worker for /v1/stats rendering.
func (w *worker) status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	means := make(map[string]float64, len(w.means))
	for b, m := range w.means {
		means[b] = m
	}
	return WorkerStatus{
		URL:            w.name,
		Healthy:        w.healthy,
		LastError:      w.lastErr,
		Parallelism:    w.parallelism,
		PendingCells:   w.pendingCells,
		MeanRunSeconds: means,
	}
}

// poll fetches /v1/stats (which doubles as the liveness probe) and
// updates the worker's health and reported parallelism.
func (w *worker) poll(ctx context.Context, timeout time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.name+"/v1/stats", nil)
	if err != nil {
		w.markDown(err)
		return
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		w.markDown(err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		w.markDown(fmt.Errorf("fabric: %s /v1/stats status %d: %v", w.name, resp.StatusCode, err))
		return
	}
	st, err := parseWorkerStats(body)
	if err != nil {
		w.markDown(err)
		return
	}
	w.markUp(st)
}

// runCells dispatches one batch to the worker's /v1/cells endpoint and
// invokes onEvent per resolved cell. It returns nil only when the
// stream closed with the Done marker; any transport failure, malformed
// line, non-200 status or hang-timeout expiry is an error, and the
// caller re-dispatches whatever did not resolve. The worker sends a
// heartbeat every third of hang, so only a stream that moves no byte
// for hang is severed; hang <= 0 disables the watchdog.
func (w *worker) runCells(ctx context.Context, specs []ltp.RunSpec, interactive bool, hang time.Duration, onEvent func(server.CellEvent) error) error {
	req := server.CellsRequest{Specs: specs, Interactive: interactive}
	if hang > 0 {
		req.HeartbeatMS = max(int(hang/3/time.Millisecond), 1)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fabric: encoding cell batch: %w", err)
	}
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, w.name+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// The watchdog arms before the request goes out: a worker can stall
	// while the connection is dialed or the response headers are
	// pending, not just mid-stream, and Do blocks until headers.
	var watchdog *time.Timer
	if hang > 0 {
		watchdog = time.AfterFunc(hang, func() { cancel(errWorkerHang) })
		defer watchdog.Stop()
	}
	hung := func(err error) error {
		if errors.Is(context.Cause(rctx), errWorkerHang) {
			return fmt.Errorf("fabric: %s: %w", w.name, errWorkerHang)
		}
		return err
	}
	resp, err := w.hc.Do(hreq)
	if err != nil {
		return hung(fmt.Errorf("fabric: %s /v1/cells: %w", w.name, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fabric: %s /v1/cells status %d: %s", w.name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var stream io.Reader = resp.Body
	if watchdog != nil {
		stream = progressReader{resp.Body, func() { watchdog.Reset(hang) }}
	}
	if err := decodeCellEvents(stream, onEvent); err != nil {
		return hung(fmt.Errorf("fabric: %s /v1/cells stream: %w", w.name, err))
	}
	return nil
}

// progressReader calls moved after every read that returned bytes.
type progressReader struct {
	r     io.Reader
	moved func()
}

func (p progressReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if n > 0 {
		p.moved()
	}
	return n, err
}

// decodeCellEvents reads a worker's NDJSON cell-event stream, invoking
// fn per cell event (heartbeats are skipped), until the Done marker.
// It is the coordinator's trust boundary for batch responses:
// malformed bytes, truncation before Done, or an fn rejection (index
// out of range, duplicate cell) all return an error — never a panic —
// so the caller can fail the unresolved cells and retry them on the
// surviving ring.
func decodeCellEvents(r io.Reader, fn func(server.CellEvent) error) error {
	dec := json.NewDecoder(io.LimitReader(r, maxStreamBytes))
	for {
		var ev server.CellEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return errStreamSevered
			}
			return fmt.Errorf("decoding cell event: %w", err)
		}
		if ev.Done {
			return nil
		}
		if ev.Heartbeat {
			continue
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// maxStreamBytes bounds one batch response stream (a batch group is a
// few MB of JSON at most; a worker pouring more than this at the
// coordinator is broken or hostile).
const maxStreamBytes = 256 << 20

// workerStats is the slice of a worker's /v1/stats the coordinator
// consumes: the pool size and the per-backend mean cell seconds.
type workerStats struct {
	// Parallelism is the worker's concurrent-simulation cap.
	Parallelism int
	// Means is the per-backend EWMA of simulated-cell seconds.
	Means map[string]float64
}

// parseWorkerStats decodes a worker's /v1/stats body defensively:
// arbitrary bytes yield an error (never a panic), and non-finite or
// negative numbers are dropped rather than poisoning placement
// arithmetic.
func parseWorkerStats(body []byte) (workerStats, error) {
	var view struct {
		Pool struct {
			Parallelism             int                `json:"parallelism"`
			MeanRunSecondsByBackend map[string]float64 `json:"mean_run_seconds_by_backend"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return workerStats{}, fmt.Errorf("fabric: decoding worker stats: %w", err)
	}
	st := workerStats{Parallelism: view.Pool.Parallelism}
	if st.Parallelism < 0 {
		st.Parallelism = 0
	}
	if len(view.Pool.MeanRunSecondsByBackend) > 0 {
		st.Means = make(map[string]float64, len(view.Pool.MeanRunSecondsByBackend))
		for b, m := range view.Pool.MeanRunSecondsByBackend {
			if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
				continue
			}
			st.Means[b] = m
		}
	}
	return st, nil
}
