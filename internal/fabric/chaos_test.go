package fabric

// Deterministic chaos suite: every robustness claim in DESIGN.md §13
// exercised in-process with the faultproxy. All of these run under
// `go test -short -race` — fault injection is triggered from the
// worker side as a batch arrives, so there is no wall-clock guessing
// about when the campaign is "mid-flight": the fault always lands on a
// worker holding an unresolved batch.

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ltp/internal/server"
)

// TestChaosKillWorkerMidSweep is the headline acceptance test: three
// workers, one severed mid-campaign, and the campaign must still
// complete with exactly the enumerated cell count and no duplicate
// deliveries — the stranded cells re-dispatch to the surviving ring.
func TestChaosKillWorkerMidSweep(t *testing.T) {
	// Mid-campaign: sever the first worker a batch reaches, with that
	// batch unresolved on it. Every proxied connection resets; new dials
	// are refused.
	var killed atomic.Pointer[workerNode]
	c := newCluster(t, clusterOpts{workers: 3, proxied: true, cfg: Config{
		RetryAttempts: 5, // survives a poll racing the kill and re-marking the corpse healthy
	}, onBatch: func(n *workerNode) {
		if killed.CompareAndSwap(nil, n) {
			n.proxy.Kill()
		}
	}})

	var cells []server.StreamEvent
	resp := streamSweep(t, c.front.URL, chaosSweepBody)
	last := readEvents(t, resp, func(ev server.StreamEvent, n int) { cells = append(cells, ev) })
	if killed.Load() == nil {
		t.Fatal("no batch reached a worker; the fault never fired")
	}
	if last.Type != "result" {
		t.Fatalf("campaign did not survive the worker loss: final event %q (%s)", last.Type, last.Error)
	}
	assertCompleteNoDupes(t, last.Job.Progress.TotalRuns, cells)
	p := last.Job.Progress
	if p.DoneRuns != p.TotalRuns || p.CanceledRuns != 0 {
		t.Fatalf("progress after recovery: %+v; want all %d runs done", p, p.TotalRuns)
	}
}

// TestChaosHangWorkerMidSweep severs via silence instead of a reset:
// the injured worker's connections stay open but stop moving bytes,
// and only the coordinator's hang watchdog can notice.
func TestChaosHangWorkerMidSweep(t *testing.T) {
	var hung atomic.Pointer[workerNode]
	c := newCluster(t, clusterOpts{workers: 3, proxied: true, cfg: Config{
		RetryAttempts: 5,
		HangTimeout:   300 * time.Millisecond,
	}, onBatch: func(n *workerNode) {
		if hung.CompareAndSwap(nil, n) {
			n.proxy.Hang()
		}
	}})

	var cells []server.StreamEvent
	resp := streamSweep(t, c.front.URL, chaosSweepBody)
	last := readEvents(t, resp, func(ev server.StreamEvent, n int) { cells = append(cells, ev) })
	if hung.Load() == nil {
		t.Fatal("no batch reached a worker; the fault never fired")
	}
	// Unfreeze so teardown does not wait out blocked connections.
	hung.Load().proxy.Resume()
	if last.Type != "result" {
		t.Fatalf("campaign did not survive the hang: final event %q (%s)", last.Type, last.Error)
	}
	assertCompleteNoDupes(t, last.Job.Progress.TotalRuns, cells)
}

// TestLongBatchNotSevered is the other half of the hang watchdog: a
// healthy batch that runs several hang timeouts long keeps its stream
// alive with heartbeats, so it completes on its first dispatch and no
// worker is marked down.
func TestLongBatchNotSevered(t *testing.T) {
	// The batch runs once on a cluster whose watchdog cannot fire, then
	// again on a fresh one whose hang timeout is a fifth of that run, so
	// it outlasts the timeout several times over however fast the host.
	// A 4-wide worker takes the 4-lane group as one chunk.
	run := func(hang time.Duration) (*testCluster, time.Duration) {
		c := newCluster(t, clusterOpts{workers: 1, parallelism: 4, proxied: true, cfg: Config{HangTimeout: hang}})
		start := time.Now()
		var out server.SweepResponse
		if resp := postJSON(t, c.front.URL+"/v1/sweep?wait=1", longGroupBody(), &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		if out.Job.Status != server.JobDone {
			t.Fatalf("long batch (hang timeout %v) %q: %s", hang, out.Job.Status, out.Job.Error)
		}
		return c, time.Since(start)
	}
	_, alone := run(time.Hour)
	hang := alone / 5
	c, took := run(hang)
	if took < 3*hang {
		t.Fatalf("the batch took %v; it must outlast the %v hang timeout several times over", took, hang)
	}
	if got := c.workers[0].batches.Load(); got != 1 {
		t.Fatalf("the worker saw %d batch requests; want 1 (no retry)", got)
	}
	for _, st := range c.coord.Workers() {
		if !st.Healthy {
			t.Fatalf("worker %s marked down: %s", st.URL, st.LastError)
		}
	}
}

// TestChaosCorruptWorkerMidSweep points the defensive decoders at a
// worker whose response bytes go bad mid-stream: affected batches must
// fail cleanly (never panic, never resolve a cell twice) and the
// campaign still completes on the healthy members.
func TestChaosCorruptWorkerMidSweep(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 3, proxied: true, cfg: Config{
		RetryAttempts: 6,
	}})
	c.workers[2].proxy.Corrupt()

	var cells []server.StreamEvent
	resp := streamSweep(t, c.front.URL, chaosSweepBody)
	last := readEvents(t, resp, func(ev server.StreamEvent, n int) { cells = append(cells, ev) })
	if last.Type != "result" {
		t.Fatalf("campaign did not survive the corruption: final event %q (%s)", last.Type, last.Error)
	}
	assertCompleteNoDupes(t, last.Job.Progress.TotalRuns, cells)
}

// TestCoordinatorRestartServesBank proves restart resume: a
// coordinator with a result bank completes a campaign, dies, and its
// successor — fronting a fleet that is entirely unreachable — serves
// the identical campaign from the bank alone.
func TestCoordinatorRestartServesBank(t *testing.T) {
	bank := filepath.Join(t.TempDir(), "bank.jsonl")
	c := newCluster(t, clusterOpts{workers: 2, cfg: Config{StorePath: bank}})

	var first server.SweepResponse
	if resp := postJSON(t, c.front.URL+"/v1/sweep?wait=1", quickSweepBody, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	if first.Job.Status != server.JobDone {
		t.Fatalf("first campaign %q: %s", first.Job.Status, first.Job.Error)
	}

	// Coordinator dies (bank file released)...
	c.coord.Close()

	// ...and its successor can only reach the bank: its one worker URL
	// points at a dead port.
	coord2, err := New(Config{
		Workers:      []string{"http://127.0.0.1:1"},
		StorePath:    bank,
		RetryBackoff: 10 * time.Millisecond,
		PollInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front2 := httptest.NewServer(coord2.Handler())
	t.Cleanup(func() { front2.Close(); coord2.Close() })

	var second server.SweepResponse
	if resp := postJSON(t, front2.URL+"/v1/sweep?wait=1", quickSweepBody, &second); resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed submit status %d", resp.StatusCode)
	}
	if second.Job.Status != server.JobDone {
		t.Fatalf("resumed campaign %q: %s (the bank should have answered every cell)", second.Job.Status, second.Job.Error)
	}
	if second.Job.Hash != first.Job.Hash {
		t.Fatalf("hash changed across restart: %q vs %q", second.Job.Hash, first.Job.Hash)
	}
	p := second.Job.Progress
	if int(p.StoreHits) != p.TotalRuns {
		t.Fatalf("resumed campaign store-hit %d of %d runs; want all", p.StoreHits, p.TotalRuns)
	}
	if !reflect.DeepEqual(second.Result, first.Result) {
		t.Fatal("banked result differs from the original")
	}
}
