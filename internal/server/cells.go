package server

// The coordinator-facing cell batch endpoint: POST /v1/cells accepts a
// batch of canonical run specs from a fabric coordinator
// (internal/fabric) — one batch group, or a lone spec — resolves it as
// ONE Engine.RunBatchCached call, so the lanes share one functional
// stream, one warm checkpoint and one oracle pre-pass exactly as a
// local sweep's do, and then streams one NDJSON CellEvent per cell,
// closing with a Done marker so the coordinator can tell a cleanly
// finished batch from a severed stream. While the batch runs, the
// worker writes a heartbeat line at the period the request asks for:
// a long healthy batch must not look like a silent worker. Batches run
// at the campaign tier — a fleet's sharded campaign traffic never
// preempts this worker's own interactive /v1/run requests — unless the
// request marks itself interactive (a coordinator's /v1/run), and flow
// through the same content-addressed cache and persistent store as
// every other execution path, so a re-dispatched cell is a cache hit,
// not a second simulation.

import (
	"encoding/json"
	"net/http"
	"time"

	"ltp"
	"ltp/internal/cache"
	"ltp/internal/sched"
)

// CellsRequest is the POST /v1/cells body: a coordinator-dispatched
// batch of run specs. Every spec must be canonicalizable (the batch is
// rejected whole before any simulation starts otherwise) and within
// the worker's admission limits.
type CellsRequest struct {
	// Specs are the cells to execute, in dispatch order.
	Specs []ltp.RunSpec `json:"specs"`
	// Interactive runs the batch at the interactive tier (a
	// coordinator's /v1/run) instead of the campaign tier.
	Interactive bool `json:"interactive,omitempty"`
	// HeartbeatMS, when positive, asks for a heartbeat line every that
	// many milliseconds (at least minHeartbeat) until the batch
	// resolves.
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
}

// CellEvent is one NDJSON line of the POST /v1/cells response stream:
// a heartbeat, a resolved cell (batch order), or the final Done
// marker.
type CellEvent struct {
	// Index is the cell's position in the request's Specs.
	Index int `json:"index"`
	// Hash is the cell's content address.
	Hash string `json:"hash,omitempty"`
	// Outcome is how the cell was served: "miss", "hit", "shared" or
	// "store".
	Outcome string `json:"outcome,omitempty"`
	// Result is the simulation outcome (nil when Error is set).
	Result *ltp.RunResult `json:"result,omitempty"`
	// Error is the cell's failure, when it has one.
	Error string `json:"error,omitempty"`
	// Heartbeat marks a liveness line: the batch is still running. It
	// carries no cell.
	Heartbeat bool `json:"heartbeat,omitempty"`
	// Done marks the final line: every cell above resolved and no more
	// lines follow. A stream that ends without it was severed.
	Done bool `json:"done,omitempty"`
}

// maxCellBatch bounds one /v1/cells batch (a batch group is far below
// this; the bound only stops a hostile request from allocating an
// unbounded spec slice).
const maxCellBatch = 1 << 16

// minHeartbeat floors the heartbeat period a request may ask for.
const minHeartbeat = 10 * time.Millisecond

// handleCells executes a coordinator's cell batch and streams its
// events. The request context bounds the batch: a coordinator
// abandoning it (retry elsewhere, job cancel) aborts queued lanes
// before they simulate and in-flight ones mid-pipeline.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	var req CellsRequest
	if err := decodeJSON(r, &req); err != nil {
		WriteError(w, err)
		return
	}
	if len(req.Specs) == 0 {
		WriteError(w, badRequest("cells batch is empty"))
		return
	}
	if len(req.Specs) > maxCellBatch {
		WriteError(w, badRequest("cells batch has %d specs, above the per-batch limit %d", len(req.Specs), maxCellBatch))
		return
	}
	if req.HeartbeatMS < 0 {
		WriteError(w, badRequest("heartbeat_ms = %d is negative", req.HeartbeatMS))
		return
	}
	// Validate the whole batch before simulating any of it: a cell the
	// worker would refuse (uncanonicalizable, over-budget) rejects the
	// batch with a 400 the coordinator can surface, instead of failing
	// mid-stream after burning compute.
	for i, spec := range req.Specs {
		canon, err := spec.Canonical()
		if err == nil {
			err = s.limits.checkBudgets(canon)
		}
		if err != nil {
			WriteError(w, badRequest("specs[%d]: %v", i, err))
			return
		}
	}
	tier := sched.TierCampaign
	if req.Interactive {
		tier = sched.TierInteractive
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev CellEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if flusher != nil {
		// Push the headers out now: the coordinator's hang watchdog
		// covers the header wait.
		flusher.Flush()
	}

	var (
		results  []ltp.RunResult
		outcomes []cache.Outcome
		hashes   []string
		errs     []error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		results, outcomes, hashes, errs = s.engine.RunBatchCached(r.Context(), tier, req.Specs)
	}()
	var beat <-chan time.Time
	if req.HeartbeatMS > 0 {
		t := time.NewTicker(max(time.Duration(req.HeartbeatMS)*time.Millisecond, minHeartbeat))
		defer t.Stop()
		beat = t.C
	}
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-beat:
			emit(CellEvent{Heartbeat: true})
		}
	}
	if r.Context().Err() != nil {
		return // coordinator gone; nobody is reading
	}
	for i := range req.Specs {
		ev := CellEvent{Index: i, Hash: hashes[i], Outcome: outcomes[i].String()}
		if errs[i] != nil {
			ev.Error = errs[i].Error()
		} else {
			ev.Result = &results[i]
		}
		emit(ev)
	}
	emit(CellEvent{Done: true})
}
