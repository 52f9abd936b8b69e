package fabric

// In-process multi-worker cluster fixture: real server.Server workers
// over real engines behind httptest listeners, optionally fronted by
// fault-injection proxies (faultproxy), with one Coordinator over the
// lot. Everything runs in this process, so chaos tests are
// deterministic and -race sees the whole fabric.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ltp/internal/fabric/faultproxy"
	"ltp/internal/server"
)

// workerNode is one in-process worker, optionally fronted by a fault
// proxy.
type workerNode struct {
	srv   *server.Server
	ts    *httptest.Server
	proxy *faultproxy.Proxy
	// batches counts the /v1/cells requests that reached the worker.
	batches atomic.Int64
}

// url is the address the coordinator dials (the proxy when present).
func (n *workerNode) url() string {
	if n.proxy != nil {
		return n.proxy.URL()
	}
	return n.ts.URL
}

// testCluster is a coordinator over n in-process workers.
type testCluster struct {
	coord   *Coordinator
	front   *httptest.Server
	workers []*workerNode
}

// clusterOpts tunes the fixture.
type clusterOpts struct {
	workers int
	// parallelism is each worker's pool width (0 = 2).
	parallelism int
	proxied     bool
	cfg         Config // Workers is filled in by the fixture
	// onBatch, when set, runs as a /v1/cells request reaches a worker,
	// before the worker serves it: a fault injected here lands on a
	// worker that holds an unresolved batch.
	onBatch func(n *workerNode)
}

// newCluster boots the fixture and registers teardown.
func newCluster(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	c := &testCluster{}
	if opts.parallelism == 0 {
		opts.parallelism = 2
	}
	for i := 0; i < opts.workers; i++ {
		srv, err := server.New(server.Config{Parallelism: opts.parallelism})
		if err != nil {
			t.Fatal(err)
		}
		n := &workerNode{srv: srv}
		n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" {
				n.batches.Add(1)
				if opts.onBatch != nil {
					opts.onBatch(n)
				}
			}
			srv.ServeHTTP(w, r)
		}))
		if opts.proxied {
			p, err := faultproxy.New(strings.TrimPrefix(n.ts.URL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			n.proxy = p
		}
		c.workers = append(c.workers, n)
	}
	cfg := opts.cfg
	for _, n := range c.workers {
		cfg.Workers = append(cfg.Workers, n.url())
	}
	// Fast-reacting defaults for tests unless a test overrides them.
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.HangTimeout == 0 {
		cfg.HangTimeout = 5 * time.Second
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.coord = coord
	c.front = httptest.NewServer(coord.Handler())
	// Batches are chunked by their ring home's reported parallelism, so
	// wait for every worker's first poll.
	for deadline := time.Now().Add(10 * time.Second); !allReported(coord); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("workers never reported their parallelism")
		}
	}
	t.Cleanup(func() {
		c.front.Close()
		coord.Close()
		for _, n := range c.workers {
			if n.proxy != nil {
				_ = n.proxy.Close()
			}
			n.ts.Close()
			n.srv.Close()
		}
	})
	return c
}

// allReported reports whether every fleet member has reported its
// parallelism.
func allReported(c *Coordinator) bool {
	for _, st := range c.Workers() {
		if st.Parallelism == 0 {
			return false
		}
	}
	return true
}

// postJSON sends a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url, body string, out any) *http.Response {
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

// getJSON fetches a URL and decodes the JSON response.
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
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

// quickSweepBody is a 2-cell × 2-replicate campaign (4 runs).
const quickSweepBody = `{
  "base": {"scenario":"branchy","scale":0.05,"max_insts":4000},
  "axes": [
    {"name":"iq","points":[{"name":"iq64","patch":{"iq_size":64}},{"name":"iq32","patch":{"iq_size":32}}]},
    {"name":"seed","replicate":true,"points":[{"name":"s0","patch":{"seed":1}},{"name":"s1","patch":{"seed":2}}]}
  ]
}`

// chaosSweepBody is a 4-cell × 3-replicate campaign (12 runs, each a
// batch of its own: no warm region) — big enough that a mid-campaign
// fault strands work on the injured worker.
const chaosSweepBody = `{
  "base": {"scenario":"branchy","scale":0.05,"max_insts":3000},
  "axes": [
    {"name":"iq","points":[
      {"name":"iq16","patch":{"iq_size":16}},
      {"name":"iq32","patch":{"iq_size":32}},
      {"name":"iq48","patch":{"iq_size":48}},
      {"name":"iq64","patch":{"iq_size":64}}]},
    {"name":"seed","replicate":true,"points":[
      {"name":"s0","patch":{"seed":1}},
      {"name":"s1","patch":{"seed":2}},
      {"name":"s2","patch":{"seed":3}}]}
  ]
}`

// groupSweepBody is a one-seed sweep of 6 cycle cells that share a
// stream and a warm region: one batch group.
const groupSweepBody = `{
  "base": {"scenario":"branchy","scale":0.05,"seed":1,"warm_insts":2000,"max_insts":3000},
  "axes": [
    {"name":"iq","points":[
      {"name":"iq16","patch":{"iq_size":16}},
      {"name":"iq24","patch":{"iq_size":24}},
      {"name":"iq32","patch":{"iq_size":32}},
      {"name":"iq40","patch":{"iq_size":40}},
      {"name":"iq48","patch":{"iq_size":48}},
      {"name":"iq64","patch":{"iq_size":64}}]}
  ]
}`

// longGroupBody is one batch group of 4 cells whose lanes take about a
// second in all (on 2 CPUs; the budget shrinks under -race).
func longGroupBody() string {
	insts := 1_500_000
	if raceBuild {
		insts /= 25
	}
	return fmt.Sprintf(`{
  "base": {"scenario":"branchy","scale":0.05,"seed":7,"warm_insts":2000,"max_insts":%d},
  "axes": [
    {"name":"iq","points":[
      {"name":"iq16","patch":{"iq_size":16}},
      {"name":"iq32","patch":{"iq_size":32}},
      {"name":"iq48","patch":{"iq_size":48}},
      {"name":"iq64","patch":{"iq_size":64}}]}
  ]
}`, insts)
}

// streamSweep submits a sweep with ?stream=1 and returns the raw
// response for line-by-line reading.
func streamSweep(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("stream submit status %d: %s", resp.StatusCode, e.Error)
	}
	return resp
}

// readEvents drains an NDJSON stream, invoking onCell per cell event
// (when non-nil), and returns the final event.
func readEvents(t *testing.T, resp *http.Response, onCell func(ev server.StreamEvent, n int)) server.StreamEvent {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last server.StreamEvent
	cells := 0
	for sc.Scan() {
		var ev server.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Type == "cell" {
			cells++
			if onCell != nil {
				onCell(ev, cells)
			}
			continue
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return last
}

// assertCompleteNoDupes verifies the chaos invariant on a finished
// campaign's collected cells: every enumerated run resolved exactly
// once (no lost cells, no duplicate dispatch surviving to the
// client), and each carries a result hash.
func assertCompleteNoDupes(t *testing.T, total int, cells []server.StreamEvent) {
	t.Helper()
	if len(cells) != total {
		t.Fatalf("got %d cells; want %d", len(cells), total)
	}
	seen := make(map[string]bool, total)
	for _, ev := range cells {
		key := fmt.Sprintf("%d/%s", ev.Cell.Index, ev.Cell.Phase)
		if seen[key] {
			t.Fatalf("cell %s delivered twice", key)
		}
		seen[key] = true
		if ev.Cell.Error != "" {
			t.Fatalf("cell %d failed: %s", ev.Cell.Index, ev.Cell.Error)
		}
		if ev.Cell.Hash == "" {
			t.Fatalf("cell %d has no hash", ev.Cell.Index)
		}
	}
}
