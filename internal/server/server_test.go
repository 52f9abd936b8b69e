package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ltp"
	"ltp/internal/pipeline"
)

// newTestServer returns a server over a small engine plus its ts.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, url string, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// quickRunBody is a small but real run request.
const quickRunBody = `{"scenario":"branchy","scale":0.05,"max_insts":5000}`

// quickMatrixBody is a matrix-shaped sweep: 1 scenario, 2 configs,
// 2 replicated seeds.
const quickMatrixBody = `{
  "base": {"scale":0.05,"max_insts":4000},
  "axes": [
    {"name":"scenario","points":[{"name":"branchy","patch":{"scenario":"branchy"}}]},
    {"name":"config","points":[
      {"name":"base","patch":{}},
      {"name":"ltp","patch":{"use_ltp":true,"iq_size":32}}]},
    {"name":"seed","replicate":true,"points":[
      {"name":"s0","patch":{"seed":0}},
      {"name":"s1","patch":{"seed":1}}]}
  ]}`

// seedSweepBody is a one-scenario sweep replicated over seeds
// baseSeed, baseSeed+1, ...
func seedSweepBody(scenario string, scale float64, maxInsts, seeds, baseSeed int) string {
	var pts strings.Builder
	for k := 0; k < seeds; k++ {
		if k > 0 {
			pts.WriteByte(',')
		}
		fmt.Fprintf(&pts, `{"name":"s%d","patch":{"seed":%d}}`, baseSeed+k, baseSeed+k)
	}
	return fmt.Sprintf(`{"base":{"scenario":%q,"scale":%g,"max_insts":%d},"axes":[{"name":"seed","replicate":true,"points":[%s]}]}`,
		scenario, scale, maxInsts, pts.String())
}

func TestHealthAndWorkloads(t *testing.T) {
	_, ts := newTestServer(t)

	var h HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}

	var w WorkloadsResponse
	resp2, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if len(w.Kernels) < 10 || len(w.Scenarios) < 6 {
		t.Fatalf("registries too small: %d kernels, %d scenarios", len(w.Kernels), len(w.Scenarios))
	}
}

func TestRunEndpointCaches(t *testing.T) {
	_, ts := newTestServer(t)

	var r1 RunResponse
	if resp := post(t, ts.URL+"/v1/run", quickRunBody, &r1); resp.StatusCode != 200 {
		t.Fatalf("first run status %d", resp.StatusCode)
	}
	if r1.Cache != "miss" || r1.Hash == "" || r1.Result.Committed == 0 {
		t.Fatalf("first run = cache %q hash %q committed %d", r1.Cache, r1.Hash, r1.Result.Committed)
	}

	var r2 RunResponse
	post(t, ts.URL+"/v1/run", quickRunBody, &r2)
	if r2.Cache != "hit" {
		t.Fatalf("second identical run cache = %q; want hit", r2.Cache)
	}
	if r2.Hash != r1.Hash || r2.Result.Cycles != r1.Result.Cycles {
		t.Fatalf("cached response differs: hash %q vs %q", r2.Hash, r1.Hash)
	}

	// The stats endpoint must show the reuse.
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats cache = %+v; want 1 hit, 1 miss", st.Cache)
	}
}

func TestValidationRejects(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]string{
		"empty":          `{}`,
		"both sources":   `{"workload":"indirect","scenario":"branchy"}`,
		"unknown field":  `{"scenario":"branchy","bogus":1}`,
		"unknown name":   `{"scenario":"nosuch"}`,
		"bad scale":      `{"scenario":"branchy","scale":1.5}`,
		"over budget":    `{"scenario":"branchy","max_insts":999999999}`,
		"bad warm mode":  `{"scenario":"branchy","warm_mode":"turbo"}`,
		"bad ltp mode":   `{"scenario":"branchy","use_ltp":true,"ltp":{"mode":"XX"}}`,
		"bad iq":         `{"scenario":"branchy","config":{"iq_size":-3}}`,
		"ltp sans flag":  `{"scenario":"branchy","ltp":{"mode":"NR"}}`,
		"kernel + knobs": `{"workload":"indirect","knobs":{"stride":2}}`,
		"kernel + seed":  `{"workload":"indirect","seed":5}`,
		"trailing junk":  `{"scenario":"branchy"} junk`,
		"malformed json": `{`,
	}
	for name, body := range cases {
		var e ErrorResponse
		resp := post(t, ts.URL+"/v1/run", body, &e)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d; want 400", name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}

	var e ErrorResponse
	if resp := post(t, ts.URL+"/v1/sweep", seedSweepBody("branchy", 0.05, 2000, DefaultLimits().MaxSeeds+1, 0), &e); resp.StatusCode != 400 {
		t.Errorf("sweep seeds over limit: status %d; want 400", resp.StatusCode)
	}
}

func TestMatrixWaitAndResubmitHits(t *testing.T) {
	_, ts := newTestServer(t)

	var m1 SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep?wait=1", quickMatrixBody, &m1); resp.StatusCode != 200 {
		t.Fatalf("matrix status %d", resp.StatusCode)
	}
	if m1.Job.Status != JobDone || m1.Result == nil {
		t.Fatalf("waited matrix not done: %+v", m1.Job)
	}
	if p := m1.Job.Progress; p.DoneRuns != p.TotalRuns || p.TotalRuns != 4 {
		t.Fatalf("progress = %+v; want 4/4", p)
	}
	if m1.Result.Cell("branchy", "ltp") == nil {
		t.Fatalf("result missing cell: %+v", m1.Result)
	}

	// Identical resubmission: served from cache, zero new simulations.
	var m2 SweepResponse
	post(t, ts.URL+"/v1/sweep?wait=1", quickMatrixBody, &m2)
	if m2.Job.Hash != m1.Job.Hash {
		t.Fatalf("identical campaigns hash differently")
	}
	p := m2.Job.Progress
	if p.CacheHits != int64(p.TotalRuns) || p.CacheMisses != 0 {
		t.Fatalf("resubmission progress = %+v; want all cache hits", p)
	}

	// The job endpoints must know both campaigns.
	var jobs JobsResponse
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs.Jobs) != 2 {
		t.Fatalf("%d jobs listed; want 2", len(jobs.Jobs))
	}
	var one SweepResponse
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + m1.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.Job.ID != m1.Job.ID || one.Result == nil {
		t.Fatalf("job fetch = %+v", one.Job)
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/nosuch"); resp.StatusCode != 404 {
		t.Fatalf("unknown job status %d; want 404", resp.StatusCode)
	}
}

func TestMatrixAsyncLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	var m SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep", quickMatrixBody, &m); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async matrix status %d; want 202", resp.StatusCode)
	}
	if m.Job.ID == "" {
		t.Fatal("no job id")
	}
	// Poll until done.
	for i := 0; ; i++ {
		var v SweepResponse
		resp, err := http.Get(ts.URL + "/v1/jobs/" + m.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.Job.Status == JobDone {
			if v.Result == nil {
				t.Fatal("done job has no result")
			}
			break
		}
		if v.Job.Status == JobFailed {
			t.Fatalf("job failed: %s", v.Job.Error)
		}
		if i > 2000 {
			t.Fatal("job never finished")
		}
	}
}

func TestMatrixStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/sweep?stream=1", "application/json", strings.NewReader(quickMatrixBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// quickMatrixBody enumerates 4 runs: 4 cell events then the result.
	if len(events) != 5 {
		t.Fatalf("%d events; want 4 cells + 1 result", len(events))
	}
	last := events[len(events)-1]
	if last.Type != "result" || last.Sweep == nil || last.Job == nil || last.Job.Status != JobDone {
		t.Fatalf("final event = %+v; want a done result", last)
	}
	seen := map[int]bool{}
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "cell" || ev.Cell == nil {
			t.Fatalf("non-cell event before the result: %+v", ev)
		}
		if seen[ev.Cell.Index] {
			t.Fatalf("cell %d streamed twice", ev.Cell.Index)
		}
		seen[ev.Cell.Index] = true
		if len(ev.Cell.Coords) != 3 || ev.Cell.Result.Committed == 0 {
			t.Fatalf("malformed cell event: %+v", ev.Cell)
		}
	}
	if p := last.Job.Progress; p.DoneRuns != p.TotalRuns || p.TotalRuns != 4 {
		t.Fatalf("final progress = %+v; want 4/4", p)
	}
}

// TestBackpressure429 fills the active-job bound with slow campaigns
// and checks the next submission is rejected with 429.
func TestBackpressure429(t *testing.T) {
	srv, err := New(Config{Parallelism: 1, Limits: Limits{MaxActiveJobs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// Two distinct slow-ish campaigns occupy both slots (parallelism 1
	// keeps them in flight while we probe).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(t, ts.URL+"/v1/sweep?wait=1", seedSweepBody("ptrchase", 0.1, 60000, 3, 1000*i), nil)
		}(i)
	}

	// Probe until both slots are taken, then require the 429 with its
	// v2 decorations: a Retry-After header derived from queue depth and
	// mean cell latency, and the campaign hash in the body so a client
	// can poll a duplicate instead of resubmitting.
	got429 := false
	for i := 0; i < 4000 && !got429; i++ {
		var e ErrorResponse
		resp := post(t, ts.URL+"/v1/sweep", seedSweepBody("branchy", 0.05, 2000, 1, 0), &e)
		switch resp.StatusCode {
		case 429:
			got429 = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 without a Retry-After header")
			}
			if e.RetryAfterSeconds < 1 {
				t.Fatalf("retry_after_seconds = %d; want >= 1", e.RetryAfterSeconds)
			}
			if e.Hash == "" {
				t.Fatalf("429 body carries no campaign hash: %+v", e)
			}
		case 202: // slipped in before the slots filled; keep probing
		default:
			t.Fatalf("probe status %d: %s", resp.StatusCode, e.Error)
		}
	}
	wg.Wait()
	if !got429 {
		t.Skip("campaigns finished before the bound was observable (very fast machine)")
	}
}

// do sends a bodyless request with the given method and decodes JSON.
func do(t *testing.T, method, url string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp
}

// TestDeleteJobCancels covers DELETE /v1/jobs/{id}: the campaign
// settles in status canceled, its queued cells never simulate, and the
// delete is idempotent.
func TestDeleteJobCancels(t *testing.T) {
	srv, err := New(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// A slow campaign: 4 runs of 120k pointer-chase instructions behind
	// 1 worker — the first cell alone outlasts the submit+DELETE round
	// trip by orders of magnitude, and the resubmission stays cheap.
	slowBody := seedSweepBody("ptrchase", 0.1, 120000, 4, 0)
	var m SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep", slowBody, &m); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	var del SweepResponse
	if resp := do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+m.Job.ID, &del); resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}

	// The job must settle as canceled promptly (the in-flight cell
	// aborts mid-pipeline; queued ones never start).
	var v SweepResponse
	for i := 0; ; i++ {
		do(t, http.MethodGet, ts.URL+"/v1/jobs/"+m.Job.ID, &v)
		if v.Job.Status == JobCanceled {
			break
		}
		if v.Job.Status == JobDone {
			t.Skip("campaign finished before the cancel landed (very fast machine)")
		}
		if i > 200 {
			t.Fatalf("job stuck in %q after cancel", v.Job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	p := v.Job.Progress
	if p.CanceledRuns == 0 || p.DoneRuns+p.CanceledRuns != p.TotalRuns {
		t.Fatalf("canceled progress = %+v; want done+canceled == total with canceled > 0", p)
	}
	if v.Result != nil {
		t.Fatal("canceled job carries a result")
	}

	// Idempotent: deleting again returns the same settled view.
	var again SweepResponse
	if resp := do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+m.Job.ID, &again); resp.StatusCode != 200 || again.Job.Status != JobCanceled {
		t.Fatalf("second delete = %d %q; want 200 canceled", resp.StatusCode, again.Job.Status)
	}
	if resp := do(t, http.MethodDelete, ts.URL+"/v1/jobs/nosuch", nil); resp.StatusCode != 404 {
		t.Fatalf("delete of unknown job = %d; want 404", resp.StatusCode)
	}

	// No stale canceled cells: resubmitting must re-simulate (some
	// cells may legitimately hit — the ones that finished pre-cancel).
	var redo SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep?wait=1", slowBody, &redo); resp.StatusCode != 200 {
		t.Fatalf("resubmit status %d", resp.StatusCode)
	}
	if redo.Job.Status != JobDone || redo.Job.Progress.CacheMisses == 0 {
		t.Fatalf("resubmit after cancel = %q misses=%d; want done with fresh simulations",
			redo.Job.Status, redo.Job.Progress.CacheMisses)
	}
}

// quickSweepBody exercises POST /v1/sweep: an IQ axis crossed with a
// replicated seed axis.
const quickSweepBody = `{
  "base": {"scenario":"branchy","scale":0.05,"max_insts":4000},
  "axes": [
    {"name":"iq","points":[
      {"name":"iq64","patch":{"iq_size":64}},
      {"name":"iq24","patch":{"iq_size":24}}]},
    {"name":"seed","replicate":true,"points":[
      {"name":"s0","patch":{"seed":0}},
      {"name":"s1","patch":{"seed":1}}]}
  ]}`

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var s SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep?wait=1", quickSweepBody, &s); resp.StatusCode != 200 {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if s.Job.Kind != KindSweep || s.Job.Status != JobDone || s.Result == nil {
		t.Fatalf("sweep response = %+v", s.Job)
	}
	if got := s.Job.Progress.TotalRuns; got != 4 {
		t.Fatalf("total runs = %d; want 4", got)
	}
	if len(s.Result.Cells) != 2 {
		t.Fatalf("%d cells; want 2", len(s.Result.Cells))
	}
	for _, c := range s.Result.Cells {
		if c.Replicates != 2 || c.CPI.N != 2 {
			t.Fatalf("cell %v under-aggregated: %+v", c.Coords, c)
		}
	}

	// The job endpoint serves the sweep shape too.
	var v SweepResponse
	do(t, http.MethodGet, ts.URL+"/v1/jobs/"+s.Job.ID, &v)
	if v.Job.ID != s.Job.ID || v.Result == nil {
		t.Fatalf("job fetch = %+v", v.Job)
	}

	// Identical resubmission: all hits through the same cell cache.
	var s2 SweepResponse
	post(t, ts.URL+"/v1/sweep?wait=1", quickSweepBody, &s2)
	if s2.Job.Hash != s.Job.Hash {
		t.Fatal("identical sweeps hash differently")
	}
	if p := s2.Job.Progress; p.CacheHits != int64(p.TotalRuns) {
		t.Fatalf("resubmission progress = %+v; want all hits", p)
	}
}

// TestCellLogReleasedAfterFinish checks the registry drops a finished
// job's cell log (thousands of full RunResults at scale) once no
// stream can read it, while the job view itself stays addressable.
func TestCellLogReleasedAfterFinish(t *testing.T) {
	srv, ts := newTestServer(t)

	var m SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep?wait=1", quickMatrixBody, &m); resp.StatusCode != 200 {
		t.Fatalf("matrix status %d", resp.StatusCode)
	}
	tj, ok := srv.jobs.get(m.Job.ID)
	if !ok {
		t.Fatal("job not registered")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cells, _, done := tj.job.CellsFrom(0)
		if done && len(cells) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cell log never released after the job finished with no stream attached")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The job itself must remain addressable with full progress.
	var v SweepResponse
	do(t, http.MethodGet, ts.URL+"/v1/jobs/"+m.Job.ID, &v)
	if v.Job.Status != JobDone || v.Result == nil {
		t.Fatalf("job view degraded after log release: %+v", v.Job)
	}
}

func TestSweepValidationRejects(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]string{
		"no axes":       `{"base":{"scenario":"branchy"}}`,
		"unnamed axis":  `{"base":{"scenario":"branchy"},"axes":[{"points":[{"name":"a","patch":{}}]}]}`,
		"empty axis":    `{"base":{"scenario":"branchy"},"axes":[{"name":"x","points":[]}]}`,
		"dup point":     `{"base":{"scenario":"branchy"},"axes":[{"name":"x","points":[{"name":"a","patch":{}},{"name":"a","patch":{}}]}]}`,
		"no source":     `{"base":{},"axes":[{"name":"x","points":[{"name":"a","patch":{}}]}]}`,
		"bad iq":        `{"base":{"scenario":"branchy"},"axes":[{"name":"x","points":[{"name":"a","patch":{"iq_size":-2}}]}]}`,
		"over budget":   `{"base":{"scenario":"branchy"},"axes":[{"name":"x","points":[{"name":"a","patch":{"max_insts":999999999}}]}]}`,
		"unknown field": `{"base":{"scenario":"branchy"},"axes":[{"name":"x","points":[{"name":"a","patch":{"bogus":1}}]}]}`,
		"too many cells": func() string {
			// 300^2 cells: must be rejected by count arithmetic before
			// anything canonicalizes or enumerates the cross-product.
			var pts strings.Builder
			for i := 0; i < 300; i++ {
				if i > 0 {
					pts.WriteByte(',')
				}
				fmt.Fprintf(&pts, `{"name":"p%d","patch":{"seed":%d}}`, i, i)
			}
			return fmt.Sprintf(`{"base":{"scenario":"branchy"},"axes":[{"name":"a","points":[%s]},{"name":"b","points":[%s]}]}`,
				pts.String(), pts.String())
		}(),
	}
	for name, body := range cases {
		var e ErrorResponse
		resp := post(t, ts.URL+"/v1/sweep", body, &e)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d; want 400", name, resp.StatusCode)
		}
	}
}

// TestResponseJSONShape pins the documented field names of API.md.
func TestResponseJSONShape(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(quickRunBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, field := range []string{`"hash"`, `"cache"`, `"result"`, `"CPI"`} {
		if !bytes.Contains(buf.Bytes(), []byte(field)) {
			t.Errorf("run response missing %s field:\n%.400s", field, buf.String())
		}
	}
}

// TestRetryAfterEstimate pins the Retry-After arithmetic: round up,
// clamp to [1, 600], and never emit 0 — a sub-second EWMA (cheap
// model-backend cells, a freshly started engine) must still tell
// clients to wait a full second.
func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		mean        float64
		outstanding int
		parallelism int
		want        int
	}{
		{0, 0, 8, 1},        // no EWMA yet: assume a second
		{0.004, 0, 8, 1},    // sub-second EWMA, idle: still >= 1s
		{0.004, 100, 8, 1},  // sub-second EWMA, backlog: rounds up to 1
		{2.0, 7, 8, 2},      // 2s x 8 runs / 8 workers
		{1.5, 0, 1, 2},      // 1.5s rounds up, never down
		{5, 10_000, 2, 600}, // deep backlog clamps at 10 minutes
		{1, 5, 0, 6},        // degenerate parallelism guarded to 1
	}
	for _, c := range cases {
		if got := retryAfterEstimate(c.mean, c.outstanding, c.parallelism); got != c.want {
			t.Errorf("retryAfterEstimate(%g, %d, %d) = %d, want %d",
				c.mean, c.outstanding, c.parallelism, got, c.want)
		}
		if got := retryAfterEstimate(c.mean, c.outstanding, c.parallelism); got < 1 {
			t.Errorf("retryAfterEstimate(%g, %d, %d) = %d < 1s", c.mean, c.outstanding, c.parallelism, got)
		}
	}
}

// TestBackendSurface drives the backend field across the API: the
// registry on /v1/workloads, a model-backend /v1/run (distinct hash
// from the cycle run of the same spec), and the 400 for unknown names.
func TestBackendSurface(t *testing.T) {
	_, ts := newTestServer(t)

	var w WorkloadsResponse
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, b := range w.Backends {
		names[b.Name] = true
		if b.Fidelity == "" || b.About == "" {
			t.Fatalf("backend %q missing fidelity/about: %+v", b.Name, b)
		}
	}
	if !names["cycle"] || !names["model"] {
		t.Fatalf("backend registry incomplete: %+v", w.Backends)
	}

	var cycle, model RunResponse
	post(t, ts.URL+"/v1/run", quickRunBody, &cycle)
	if resp := post(t, ts.URL+"/v1/run",
		`{"scenario":"branchy","scale":0.05,"max_insts":5000,"backend":"model"}`, &model); resp.StatusCode != 200 {
		t.Fatalf("model run status %d", resp.StatusCode)
	}
	if model.Hash == cycle.Hash {
		t.Fatalf("model and cycle runs share hash %s: fidelities would collide in the cache", model.Hash)
	}
	if model.Result.CPI <= 0 {
		t.Fatalf("model run returned no estimate: %+v", model.Result)
	}

	var e ErrorResponse
	if resp := post(t, ts.URL+"/v1/run",
		`{"scenario":"branchy","max_insts":5000,"backend":"quantum"}`, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend accepted: status %d", resp.StatusCode)
	}
}

// quickTriageBody is a 2-scenario × 2-config sweep with 2-seed
// replication triaged to the single best cell.
const quickTriageBody = `{
 "base": {"scale":0.05,"max_insts":4000},
 "axes": [
  {"name":"scenario","points":[{"name":"branchy","patch":{"scenario":"branchy"}},
                               {"name":"ptrchase","patch":{"scenario":"ptrchase"}}]},
  {"name":"config","points":[{"name":"IQ64","patch":{}},
                             {"name":"IQ32","patch":{"iq_size":32}}]},
  {"name":"seed","replicate":true,"points":[{"name":"s1","patch":{"seed":1}},
                                            {"name":"s2","patch":{"seed":2}}]}
 ],
 "triage": {"top_k": 1}
}`

// TestSweepTriageEndpoint drives a fidelity-triage sweep end to end
// over HTTP: one job, two phases, model estimates for every cell and a
// detailed cycle-accurate aggregate for the selected cell.
func TestSweepTriageEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var s SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep?wait=1", quickTriageBody, &s); resp.StatusCode != 200 {
		t.Fatalf("triage sweep status %d", resp.StatusCode)
	}
	if s.Job.Status != JobDone || s.Result == nil {
		t.Fatalf("triage sweep = %+v", s.Job)
	}
	// 8 model runs + 1 selected cell × 2 replicates.
	if got := s.Job.Progress.TotalRuns; got != 10 {
		t.Fatalf("total runs = %d; want 10", got)
	}
	if len(s.Result.Cells) != 4 {
		t.Fatalf("%d estimate cells; want 4", len(s.Result.Cells))
	}
	for _, c := range s.Result.Cells {
		if c.Backend != "model" {
			t.Fatalf("estimate cell %v tagged %q", c.Coords, c.Backend)
		}
	}
	if s.Result.Triage == nil || len(s.Result.Triage.Detailed) != 1 {
		t.Fatalf("triage result missing detailed cell: %+v", s.Result.Triage)
	}
	if got := s.Result.Triage.Detailed[0].Backend; got != "cycle" {
		t.Fatalf("detailed cell tagged %q; want cycle", got)
	}

	// A bad top_k is a 400, not a campaign.
	var e ErrorResponse
	bad := strings.Replace(quickTriageBody, `"top_k": 1`, `"top_k": 99`, 1)
	if resp := post(t, ts.URL+"/v1/sweep", bad, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized top_k accepted: status %d", resp.StatusCode)
	}
}

// TestStoreBackedServer covers the persistent tier end to end over
// HTTP: a campaign appends to the store, a restarted server serves the
// identical campaign entirely from it without re-simulating, and
// since_snapshot skips every banked run.
func TestStoreBackedServer(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.store")
	boot := func() (*Server, *httptest.Server) {
		t.Helper()
		srv, err := New(Config{Parallelism: 2, StorePath: storePath})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}

	// First life: stream the campaign, collecting each run's content
	// address for the snapshot submission below.
	srv1, ts1 := boot()
	resp, err := http.Post(ts1.URL+"/v1/sweep?stream=1", "application/json", strings.NewReader(quickSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Type == "cell" {
			hashes = append(hashes, ev.Cell.Hash)
		}
	}
	resp.Body.Close()
	total := len(hashes)
	if total == 0 {
		t.Fatal("stream delivered no cells")
	}
	var st StatsResponse
	do(t, http.MethodGet, ts1.URL+"/v1/stats", &st)
	if st.Store == nil || st.Store.Appends != uint64(total) {
		t.Fatalf("first-life store stats = %+v; want %d appends", st.Store, total)
	}
	ts1.Close()
	srv1.Close()

	// Second life, same store file: the identical campaign must be
	// served entirely from disk — zero simulations.
	srv2, ts2 := boot()
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	var s SweepResponse
	if resp := post(t, ts2.URL+"/v1/sweep?wait=1", quickSweepBody, &s); resp.StatusCode != 200 {
		t.Fatalf("warm sweep status %d", resp.StatusCode)
	}
	if p := s.Job.Progress; p.StoreHits != int64(total) || p.CacheMisses != 0 {
		t.Fatalf("warm progress = %+v; want all %d runs store hits", p, total)
	}
	do(t, http.MethodGet, ts2.URL+"/v1/stats", &st)
	if st.Store == nil || st.Store.Hits != uint64(total) || st.Store.Appends != 0 {
		t.Fatalf("second-life store stats = %+v; want %d hits, no appends", st.Store, total)
	}

	// Incremental submission: with every run in the snapshot, nothing
	// executes at all — not even store lookups.
	var req map[string]any
	if err := json.Unmarshal([]byte(quickSweepBody), &req); err != nil {
		t.Fatal(err)
	}
	req["since_snapshot"] = hashes
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var sd SweepResponse
	if resp := post(t, ts2.URL+"/v1/sweep?wait=1", string(body), &sd); resp.StatusCode != 200 {
		t.Fatalf("diff sweep status %d", resp.StatusCode)
	}
	if sd.Job.Hash == s.Job.Hash {
		t.Fatal("snapshot submission hashed like the full campaign")
	}
	p := sd.Job.Progress
	if p.SnapshotSkipped != int64(total) || p.StoreHits != 0 || p.CacheMisses != 0 || p.CacheHits != 0 {
		t.Fatalf("diff progress = %+v; want all %d runs snapshot-skipped", p, total)
	}

	// Triage and since_snapshot are mutually exclusive.
	req["triage"] = map[string]any{"top_k": 1}
	body, _ = json.Marshal(req)
	var e ErrorResponse
	if resp := post(t, ts2.URL+"/v1/sweep", string(body), &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("triage+since_snapshot accepted: status %d", resp.StatusCode)
	}
}

// TestCellsBatchSplitsMixedStreams checks that /v1/cells, which runs
// its request as one engine batch, still answers a request mixing
// functional streams correctly: lanes that share a stream and warm
// region compute together, and a lane on another stream computes on
// its own, each matching its standalone RunContext result.
func TestCellsBatchSplitsMixedStreams(t *testing.T) {
	srv, ts := newTestServer(t)
	base := ltp.RunSpec{Scenario: "branchy", Scale: 0.05, Seed: 1, WarmInsts: 2000, MaxInsts: 3000}
	small, other := base, base
	small.Pipeline = &pipeline.Config{}
	*small.Pipeline = pipeline.DefaultConfig()
	small.Pipeline.IQSize = 16
	other.Seed = 2
	specs := []ltp.RunSpec{base, small, other}
	body, err := json.Marshal(CellsRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := make(map[int]ltp.RunResult)
	dec := json.NewDecoder(resp.Body)
	for {
		var ev CellEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended without the done marker: %v", err)
		}
		if ev.Done {
			break
		}
		if ev.Error != "" || ev.Result == nil {
			t.Fatalf("cell %d: %q", ev.Index, ev.Error)
		}
		got[ev.Index] = *ev.Result
	}
	for i, spec := range specs {
		want, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got[i])
		if !bytes.Equal(wj, gj) {
			t.Errorf("specs[%d]: batch result differs from RunContext's", i)
		}
	}
	if st := srv.Stats().Cache; st.Misses != uint64(len(specs)) {
		t.Fatalf("cache misses %d; want %d", st.Misses, len(specs))
	}
}

// compactReply fetches one reply and checks its body is exactly
// json.Marshal of the value it decodes to, plus the trailing newline:
// compact, in one pass, with no field the typed reply lacks.
func compactReply[T any](t *testing.T, method, url, body string, wantStatus int) T {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d; want %d\n%s", method, url, resp.StatusCode, wantStatus, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type %q", method, url, ct)
	}
	var v T
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want)+"\n" {
		t.Errorf("%s %s: reply is not json.Marshal(v)+\"\\n\":\n got %.300q\nwant %.300q", method, url, got, string(want)+"\n")
	}
	return v
}

// TestRepliesAreCompact covers every JSON endpoint — health, registry,
// run (miss and hit), sweep (waited, async, job lookup, job list,
// cancel), stats and the error replies: each body is compact JSON, the
// bytes json.Marshal gives for it plus a newline.
func TestRepliesAreCompact(t *testing.T) {
	_, ts := newTestServer(t)
	compactReply[HealthResponse](t, "GET", ts.URL+"/healthz", "", 200)
	compactReply[WorkloadsResponse](t, "GET", ts.URL+"/v1/workloads", "", 200)
	if r := compactReply[RunResponse](t, "POST", ts.URL+"/v1/run", quickRunBody, 200); r.Cache != "miss" {
		t.Errorf("first run cache %q; want miss", r.Cache)
	}
	if r := compactReply[RunResponse](t, "POST", ts.URL+"/v1/run", quickRunBody, 200); r.Cache != "hit" {
		t.Errorf("second run cache %q; want hit", r.Cache)
	}
	if r := compactReply[SweepResponse](t, "POST", ts.URL+"/v1/sweep?wait=1", quickMatrixBody, 200); r.Job.Status != JobDone {
		t.Errorf("waited sweep status %q; want done", r.Job.Status)
	}
	async := compactReply[SweepResponse](t, "POST", ts.URL+"/v1/sweep", seedSweepBody("branchy", 0.05, 4000, 2, 7), 202)
	compactReply[SweepResponse](t, "GET", ts.URL+"/v1/jobs/"+async.Job.ID, "", 200)
	compactReply[JobsResponse](t, "GET", ts.URL+"/v1/jobs", "", 200)
	compactReply[SweepResponse](t, "DELETE", ts.URL+"/v1/jobs/"+async.Job.ID, "", 200)
	compactReply[StatsResponse](t, "GET", ts.URL+"/v1/stats", "", 200)
	compactReply[ErrorResponse](t, "POST", ts.URL+"/v1/run", `{"scenario":"branchy","bogus":1}`, 400)
	compactReply[ErrorResponse](t, "GET", ts.URL+"/v1/jobs/nope", "", 404)
}
