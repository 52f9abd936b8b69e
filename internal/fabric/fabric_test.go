package fabric

// Functional coverage of the coordinator's client surface: the
// acceptance bar is that a coordinator fronting workers is
// indistinguishable from a single node — same hashes, same results,
// same response forms — plus the fleet-only behaviours (tenant
// quotas, worker roster, run proxying).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ltp/internal/server"
)

// TestCoordinatorMatchesDirectSubmission is the equivalence
// acceptance test: the same sweep submitted to a worker directly and
// through a coordinator fronting that worker must produce the same
// campaign hash and the same aggregated result.
func TestCoordinatorMatchesDirectSubmission(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 1})

	var direct server.SweepResponse
	resp := postJSON(t, c.workers[0].ts.URL+"/v1/sweep?wait=1", quickSweepBody, &direct)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct submit status %d", resp.StatusCode)
	}
	if direct.Job.Status != server.JobDone || direct.Result == nil {
		t.Fatalf("direct job not done: %+v", direct.Job)
	}

	var viaCoord server.SweepResponse
	resp = postJSON(t, c.front.URL+"/v1/sweep?wait=1", quickSweepBody, &viaCoord)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator submit status %d", resp.StatusCode)
	}
	if viaCoord.Job.Status != server.JobDone || viaCoord.Result == nil {
		t.Fatalf("coordinator job not done: %+v (err %q)", viaCoord.Job, viaCoord.Job.Error)
	}

	if !strings.HasPrefix(direct.Job.Hash, "sw1:") {
		t.Fatalf("unexpected direct hash %q", direct.Job.Hash)
	}
	if viaCoord.Job.Hash != direct.Job.Hash {
		t.Fatalf("hash mismatch: coordinator %q, direct %q", viaCoord.Job.Hash, direct.Job.Hash)
	}
	if !reflect.DeepEqual(viaCoord.Result, direct.Result) {
		t.Fatalf("result mismatch:\ncoordinator: %+v\ndirect: %+v", viaCoord.Result, direct.Result)
	}
	if got, want := viaCoord.Job.Progress.DoneRuns, direct.Job.Progress.TotalRuns; got != want {
		t.Fatalf("coordinator resolved %d runs; want %d", got, want)
	}
}

// TestFleetSweepStreams runs a campaign across three workers with the
// NDJSON stream form and checks the fleet delivered every cell
// exactly once.
func TestFleetSweepStreams(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 3})

	var cells []server.StreamEvent
	resp := streamSweep(t, c.front.URL, chaosSweepBody)
	last := readEvents(t, resp, func(ev server.StreamEvent, n int) { cells = append(cells, ev) })
	if last.Type != "result" {
		t.Fatalf("final event %q (error %q); want result", last.Type, last.Error)
	}
	assertCompleteNoDupes(t, last.Job.Progress.TotalRuns, cells)
	if last.Sweep == nil || len(last.Sweep.Cells) != 4 {
		t.Fatalf("aggregated sweep missing or wrong size: %+v", last.Sweep)
	}
	if last.Job.Progress.CanceledRuns != 0 {
		t.Fatalf("healthy fleet canceled %d runs", last.Job.Progress.CanceledRuns)
	}
}

// TestWarmGroupOneBatch checks the dispatch unit is an engine batch:
// a one-seed sweep whose cells share a stream and a warm region (one
// batch group) reaches one worker that can run it whole as one
// /v1/cells request, so that worker simulates every cell over one warm
// pass and no other worker simulates any.
func TestWarmGroupOneBatch(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 3, parallelism: 8})
	cells := runGroupSweep(t, c)
	owners := 0
	for i, n := range c.workers {
		misses, batches := workerLoad(t, n)
		switch {
		case misses == 0 && batches == 0:
		case misses == cells && batches == 1:
			owners++
		default:
			t.Errorf("worker %d simulated %d cells in %d batches; want all %d in one batch, or none", i, misses, batches, cells)
		}
	}
	if owners != 1 {
		t.Fatalf("%d workers received the group; want exactly 1", owners)
	}
}

// TestWideGroupChunks checks a batch group wider than its ring home's
// parallelism is cut into chunks of that width, each one /v1/cells
// request, so the fleet shares it instead of one worker queueing it.
func TestWideGroupChunks(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 3, parallelism: 2})
	cells := runGroupSweep(t, c)
	var misses, batches uint64
	for i, n := range c.workers {
		m, b := workerLoad(t, n)
		if m != 2*b {
			t.Errorf("worker %d simulated %d cells in %d batches; want 2 per batch", i, m, b)
		}
		misses, batches = misses+m, batches+b
	}
	if misses != cells || batches != cells/2 {
		t.Fatalf("fleet simulated %d cells in %d batches; want %d in %d", misses, batches, cells, cells/2)
	}
}

// runGroupSweep runs groupSweepBody through c and returns its run
// count (6).
func runGroupSweep(t *testing.T, c *testCluster) uint64 {
	t.Helper()
	var out server.SweepResponse
	if resp := postJSON(t, c.front.URL+"/v1/sweep?wait=1", groupSweepBody, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if out.Job.Status != server.JobDone {
		t.Fatalf("group sweep %q: %s", out.Job.Status, out.Job.Error)
	}
	if out.Job.Progress.TotalRuns != 6 {
		t.Fatalf("sweep enumerated %d runs; want 6", out.Job.Progress.TotalRuns)
	}
	return 6
}

// workerLoad returns how many cells a worker simulated and how many
// /v1/cells requests reached it.
func workerLoad(t *testing.T, n *workerNode) (misses, batches uint64) {
	t.Helper()
	var st server.StatsResponse
	getJSON(t, n.ts.URL+"/v1/stats", &st)
	return st.Cache.Misses, uint64(n.batches.Load())
}

// TestRunProxiesToRingHome checks /v1/run rides the ring: exactly one
// worker simulates a run, and the same run sent through a second
// coordinator over the same fleet (whose own cache is cold) lands on
// that worker again and hits the worker's cache.
func TestRunProxiesToRingHome(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 3})
	const body = `{"scenario":"branchy","scale":0.05,"max_insts":5000}`

	var first, second server.RunResponse
	if resp := postJSON(t, c.front.URL+"/v1/run", body, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("first run status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(first.Hash, "rs3:") || first.Cache != "miss" {
		t.Fatalf("first run: hash %q, cache %q; want an rs3 miss", first.Hash, first.Cache)
	}
	home := -1
	for i, n := range c.workers {
		switch misses, _ := workerLoad(t, n); {
		case misses == 1 && home < 0:
			home = i
		case misses != 0:
			t.Fatalf("worker %d simulated %d runs; want the run on exactly one worker", i, misses)
		}
	}
	if home < 0 {
		t.Fatal("no worker simulated the run")
	}

	coord2, err := New(Config{Workers: c.coord.ring.memberList(), PollInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front2 := httptest.NewServer(coord2.Handler())
	t.Cleanup(func() { front2.Close(); coord2.Close() })
	if resp := postJSON(t, front2.URL+"/v1/run", body, &second); resp.StatusCode != http.StatusOK {
		t.Fatalf("second run status %d", resp.StatusCode)
	}
	if second.Hash != first.Hash {
		t.Fatalf("hash changed between identical runs: %q vs %q", second.Hash, first.Hash)
	}
	if second.Cache != "hit" {
		t.Fatalf("run through a second coordinator was %q; want the ring home's hit", second.Cache)
	}
	if !reflect.DeepEqual(second.Result, first.Result) {
		t.Fatal("identical runs disagree on the result")
	}
	for i, n := range c.workers {
		want := uint64(0)
		if i == home {
			want = 1
		}
		if misses, _ := workerLoad(t, n); misses != want {
			t.Fatalf("worker %d simulated %d runs after the repeat; want the home's one only", i, misses)
		}
	}
}

// TestSinceSnapshotSkipsKnownCells checks the incremental-campaign
// form through the coordinator: hashes listed in since_snapshot
// stream as outcome "cached" without dispatching.
func TestSinceSnapshotSkipsKnownCells(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 2})

	var hashes []string
	resp := streamSweep(t, c.front.URL, quickSweepBody)
	readEvents(t, resp, func(ev server.StreamEvent, n int) {
		hashes = append(hashes, ev.Cell.Hash)
	})
	if len(hashes) != 4 {
		t.Fatalf("got %d cells; want 4", len(hashes))
	}

	// Resubmit with half the campaign marked already-known.
	snap, _ := json.Marshal(hashes[:2])
	body := strings.TrimSuffix(strings.TrimSpace(quickSweepBody), "}") +
		fmt.Sprintf(`, "since_snapshot": %s}`, snap)
	var out server.SweepResponse
	if resp := postJSON(t, c.front.URL+"/v1/sweep?wait=1", body, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("incremental submit status %d", resp.StatusCode)
	}
	if out.Job.Status != server.JobDone {
		t.Fatalf("incremental job %q: %s", out.Job.Status, out.Job.Error)
	}
	if got := out.Job.Progress.SnapshotSkipped; got != 2 {
		t.Fatalf("snapshot skipped %d runs; want 2", got)
	}
	if got := out.Job.Progress.DoneRuns; got != 4 {
		t.Fatalf("incremental job resolved %d runs; want 4", got)
	}
}

// submitWithTenant posts a sweep with an X-LTP-Tenant header.
func submitWithTenant(t *testing.T, base, tenant, body string) (*http.Response, server.ErrorResponse, server.SweepResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-LTP-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e server.ErrorResponse
	var s server.SweepResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode >= 400 {
		_ = dec.Decode(&e)
	} else {
		_ = dec.Decode(&s)
	}
	return resp, e, s
}

// TestTenantQuota checks the per-tenant admission bound: one tenant's
// active campaigns cannot exceed the quota, and another tenant still
// gets in.
func TestTenantQuota(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 3, proxied: true, cfg: Config{Limits: server.Limits{MaxTenantJobs: 1}}})
	// Freeze the fleet so campaigns stay active for the duration of the
	// admission checks.
	for _, n := range c.workers {
		n.proxy.Hang()
	}

	resp, _, first := submitWithTenant(t, c.front.URL, "alice", quickSweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alice submit status %d; want 202", resp.StatusCode)
	}
	resp, e, _ := submitWithTenant(t, c.front.URL, "alice", chaosSweepBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice submit status %d; want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || e.RetryAfterSeconds < 1 {
		t.Fatalf("429 missing Retry-After guidance: header %q, body %+v", resp.Header.Get("Retry-After"), e)
	}
	resp, _, second := submitWithTenant(t, c.front.URL, "bob", chaosSweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submit status %d; want 202 (quota is per tenant)", resp.StatusCode)
	}

	// Unfreeze and cancel both so teardown does not wait on hung work.
	for _, n := range c.workers {
		n.proxy.Resume()
	}
	for _, id := range []string{first.Job.ID, second.Job.ID} {
		req, _ := http.NewRequest(http.MethodDelete, c.front.URL+"/v1/jobs/"+id, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
	}
}

// TestCancelFanOut checks DELETE /v1/jobs/{id} settles a campaign as
// canceled with accounting that still adds up to the total.
func TestCancelFanOut(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 3, proxied: true})
	for _, n := range c.workers {
		n.proxy.Hang()
	}

	var sub server.SweepResponse
	if resp := postJSON(t, c.front.URL+"/v1/sweep", chaosSweepBody, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, c.front.URL+"/v1/jobs/"+sub.Job.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	for _, n := range c.workers {
		n.proxy.Resume()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var view server.SweepResponse
		getJSON(t, c.front.URL+"/v1/jobs/"+sub.Job.ID, &view)
		if view.Job.Status == server.JobCanceled {
			p := view.Job.Progress
			if p.DoneRuns+p.CanceledRuns != p.TotalRuns {
				t.Fatalf("canceled job accounting broken: %+v", p)
			}
			if !p.Finished {
				t.Fatalf("canceled job not marked finished: %+v", p)
			}
			break
		}
		if view.Job.Status == server.JobDone || view.Job.Status == server.JobFailed {
			t.Fatalf("job settled %q after cancel", view.Job.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after cancel", view.Job.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerRoster exercises /v1/workers join/list/leave and the
// health view's fleet counts.
func TestWorkerRoster(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 2})

	var roster WorkersResponse
	getJSON(t, c.front.URL+"/v1/workers", &roster)
	if len(roster.Workers) != 2 {
		t.Fatalf("roster has %d workers; want 2", len(roster.Workers))
	}

	// Join a third worker at runtime...
	extra, err := server.New(server.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ets := httptest.NewServer(extra.Handler())
	t.Cleanup(func() { ets.Close(); extra.Close() })
	join, _ := json.Marshal(WorkerJoinRequest{URL: ets.URL})
	resp := postJSON(t, c.front.URL+"/v1/workers", string(join), &roster)
	if resp.StatusCode != http.StatusOK || len(roster.Workers) != 3 {
		t.Fatalf("join status %d, roster %d; want 200/3", resp.StatusCode, len(roster.Workers))
	}

	var health HealthResponse
	getJSON(t, c.front.URL+"/healthz", &health)
	if health.Status != "ok" || health.Workers != 3 {
		t.Fatalf("health %+v; want ok with 3 workers", health)
	}

	// ...and remove it again.
	req, _ := http.NewRequest(http.MethodDelete, c.front.URL+"/v1/workers?url="+ets.URL, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("leave status %d", dresp.StatusCode)
	}
	getJSON(t, c.front.URL+"/v1/workers", &roster)
	if len(roster.Workers) != 2 {
		t.Fatalf("roster has %d workers after leave; want 2", len(roster.Workers))
	}
}

// TestFleetRepliesAreCompact checks the coordinator's own endpoints
// share the service's reply writer: each body is the compact bytes
// json.Marshal gives for it, plus a newline.
func TestFleetRepliesAreCompact(t *testing.T) {
	c := newCluster(t, clusterOpts{workers: 1})
	for _, tc := range []struct {
		path string
		v    any
	}{
		{"/healthz", &HealthResponse{}},
		{"/v1/workers", &WorkersResponse{}},
		{"/v1/stats", &FleetStatsResponse{}},
	} {
		resp, err := http.Get(c.front.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, tc.v); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		want, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want)+"\n" {
			t.Errorf("%s: reply is not json.Marshal(v)+\"\\n\":\n got %.300q\nwant %.300q", tc.path, body, string(want)+"\n")
		}
	}
}
