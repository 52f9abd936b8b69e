package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"ltp"
	"ltp/bench/internal/benchstat"
	"ltp/internal/prog"
	"ltp/internal/server"
	"ltp/internal/workload"
)

// serviceDef drives an in-process campaign server over loopback with a
// fixed, seeded request schedule from closed-loop clients (each waits
// for its reply before sending the next, as scripts and notebooks do).
type serviceDef struct {
	requests int
	// Request mix: shares of /v1/run on the model backend, /v1/run on
	// the cycle backend, and 16-cell model sweeps (the rest).
	modelShare, cycleShare float64
	seedsPerFamily         int
	runIQs                 []int // /v1/run IQ sizes
	sweepIQs               []int // sweep IQ axis; a superset of runIQs, so sweeps and runs share cells
	model, cycle           runBudget
	// prebankShare of the schedule's distinct run keys is banked into
	// the store before the timed pass, so some first requests are
	// store hits.
	prebankShare float64
}

// runBudget is one request class's working-set scale and budgets.
type runBudget struct {
	scale          float64
	warm, measured uint64
}

var service = serviceDef{
	requests:       3000,
	modelShare:     0.60,
	cycleShare:     0.25,
	seedsPerFamily: 3,
	runIQs:         []int{16, 32, 48, 64},
	sweepIQs:       []int{16, 24, 32, 40, 48, 56, 64, 80},
	model:          runBudget{scale: 0.2, warm: 200_000, measured: 100_000},
	cycle:          runBudget{scale: 0.05, warm: 20_000, measured: 20_000},
	prebankShare:   0.20,
}

// Request kinds of the service schedule.
const (
	reqModel = "model"
	reqCycle = "cycle"
	reqSweep = "sweep"
)

// request is one scheduled HTTP call.
type request struct {
	kind string
	path string
	body []byte
}

// families returns every scenario family name.
func families() []string {
	var out []string
	for _, f := range ltp.Scenarios() {
		out = append(out, f.Name)
	}
	return out
}

// request is a /v1/run body at this budget.
func (b runBudget) request(size float64, backend, family string, seed int64, iq int, useLTP bool) server.RunRequest {
	return server.RunRequest{
		Scenario:  family,
		Seed:      seed,
		Scale:     b.scale,
		WarmInsts: scaled(b.warm, size, 1_000),
		MaxInsts:  scaled(b.measured, size, 1_000),
		Config:    &server.ConfigRequest{IQSize: iq},
		UseLTP:    useLTP,
		Backend:   backend,
	}
}

// schedule builds the workload's request list from the seed: exact
// counts of each kind in a seeded order, each over a seeded family,
// scenario seed, IQ size and LTP setting.
func (d serviceDef) schedule(seed int64, size float64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	fams := families()
	seeds := make(map[string][]int64, len(fams))
	for _, f := range fams {
		for i := 0; i < d.seedsPerFamily; i++ {
			seeds[f] = append(seeds[f], rng.Int63n(1_000_000))
		}
	}
	n := int(scaled(uint64(d.requests), size, 20))
	nModel := int(float64(n) * d.modelShare)
	nCycle := int(float64(n) * d.cycleShare)
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < nModel:
			kinds[i] = reqModel
		case i < nModel+nCycle:
			kinds[i] = reqCycle
		default:
			kinds[i] = reqSweep
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	out := make([]request, n)
	for i, kind := range kinds {
		fam := fams[rng.Intn(len(fams))]
		s := seeds[fam][rng.Intn(d.seedsPerFamily)]
		useLTP := rng.Intn(2) == 1
		var body any
		path := "/v1/run"
		switch kind {
		case reqModel:
			body = d.model.request(size, ltp.BackendModel, fam, s, d.runIQs[rng.Intn(len(d.runIQs))], useLTP)
		case reqCycle:
			body = d.cycle.request(size, ltp.BackendCycle, fam, s, d.runIQs[rng.Intn(len(d.runIQs))], useLTP)
		case reqSweep:
			path = "/v1/sweep?wait=1"
			body = d.sweepRequest(fam, s, size)
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		out[i] = request{kind: kind, path: path, body: b}
	}
	return out, nil
}

// sweepRequest is a 16-cell model sweep of one scenario: IQ × LTP.
func (d serviceDef) sweepRequest(family string, seed int64, size float64) server.SweepRequest {
	return sweepRequestOf(d.model.request(size, ltp.BackendModel, family, seed, 0, false), d.sweepIQs)
}

// inputs derives the probe inputs from the schedule itself: the
// programs its runs name, its cycle runs, and its first sweep.
func (d serviceDef) inputs(seed int64, size float64) (*probeInputs, error) {
	reqs, err := d.schedule(seed, size)
	if err != nil {
		return nil, err
	}
	lim := server.DefaultLimits()
	in := &probeInputs{}
	programs := map[string]bool{}
	for _, r := range reqs {
		switch r.kind {
		case reqSweep:
			if in.sweep.Axes != nil {
				continue
			}
			var sr server.SweepRequest
			if err := json.Unmarshal(r.body, &sr); err != nil {
				return nil, err
			}
			spec, err := sr.Spec(lim)
			if err != nil {
				return nil, err
			}
			// Spec returns the sweep already canonicalized; the probes
			// time canonicalization, so they get the plain form.
			in.sweep = ltp.SweepSpec{Base: spec.Base, Axes: spec.Axes}
		default:
			var rr server.RunRequest
			if err := json.Unmarshal(r.body, &rr); err != nil {
				return nil, err
			}
			spec, err := rr.Spec(lim)
			if err != nil {
				return nil, err
			}
			if r.kind == reqCycle && len(in.cells) < 4 {
				in.cells = append(in.cells, spec)
			}
			key := fmt.Sprintf("%s/%d/%g", spec.Scenario, spec.Seed, spec.Scale)
			if !programs[key] && len(programs) < len(families()) {
				programs[key] = true
				fam, err := workload.FamilyByName(spec.Scenario)
				if err != nil {
					return nil, err
				}
				s, scale := spec.Seed, spec.Scale
				in.builds = append(in.builds, func() *prog.Program { return fam.Build(nil, scale, s) })
			}
		}
	}
	if len(in.cells) == 0 || in.sweep.Axes == nil {
		return nil, fmt.Errorf("schedule of %d requests has no cycle run or no sweep", len(reqs))
	}
	return in, nil
}

// prebankRequests returns the first prebankShare of the schedule's
// distinct /v1/run requests, in schedule order.
func (d serviceDef) prebankRequests(reqs []request) []request {
	var distinct []request
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.kind != reqSweep && !seen[string(r.body)] {
			seen[string(r.body)] = true
			distinct = append(distinct, r)
		}
	}
	return distinct[:int(float64(len(distinct))*d.prebankShare)]
}

// prebank fills a fresh store at path with the pre-banked share of the
// schedule through a throwaway server, as an earlier deployment would
// have left it.
func (d serviceDef) prebank(ctx context.Context, path string, seed int64, size float64) error {
	reqs, err := d.schedule(seed, size)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Parallelism: parallelism, StorePath: path})
	if err != nil {
		return err
	}
	defer srv.Close()
	work := d.prebankRequests(reqs)
	var next atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(work) || ctx.Err() != nil {
					return
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, work[i].path, bytes.NewReader(work[i].body)))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("pre-banking %s: status %d: %s", work[i].body, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// reply is one completed request as the client saw it.
type reply struct {
	status  int
	latency time.Duration
	body    []byte
	err     error
}

func (d serviceDef) pass(env *passEnv) {
	reqs, err := d.schedule(env.seed, env.size)
	if err != nil {
		env.op(err)
		return
	}
	srv, err := server.New(server.Config{Parallelism: parallelism, StorePath: env.store})
	if err != nil {
		env.op(err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		env.op(err)
		return
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			env.fail(fmt.Errorf("stopping the server: %w", err))
		}
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			env.fail(err)
		}
		srv.Shutdown(shutCtx)
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	env.setupDone()

	passID, endPass := env.tr.start("pass", 0, "")
	replies := make([]reply, len(reqs))
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				_, end := env.tr.start("server."+reqs[i].kind, passID, fmt.Sprintf("r%d", i))
				replies[i] = call(env.ctx, client, base+reqs[i].path, reqs[i].body)
				end()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	endPass()

	var stats server.StatsResponse
	if err := getJSON(env.ctx, client, base+"/v1/stats", &stats); err != nil {
		env.fail(err)
	}
	env.finish(wall)
	d.check(env, reqs, replies, wall, stats)
}

// call posts one request and reads the whole reply.
func call(ctx context.Context, client *http.Client, url string, body []byte) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, latency: time.Since(start), body: b, err: err}
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check derives the latency metrics and verifies every reply: a 200, the
// content address the client computes for the request, and a result
// byte-identical to every other reply for that address.
func (d serviceDef) check(env *passEnv, reqs []request, replies []reply, wall time.Duration, stats server.StatsResponse) {
	var all, hits, misses []float64
	first := map[string][]byte{}
	for i, r := range replies {
		ms := float64(r.latency) / float64(time.Millisecond)
		all = append(all, ms)
		key, result, outcome, err := verify(reqs[i], r)
		if err == nil {
			if prev, ok := first[key]; ok && !bytes.Equal(prev, result) {
				err = fmt.Errorf("result for %s differs from the first reply for it", key)
			}
			first[key] = result
		}
		env.op(err)
		switch {
		case reqs[i].kind == reqModel && outcome == "miss":
			misses = append(misses, ms)
		case reqs[i].kind != reqSweep && outcome == "hit":
			hits = append(hits, ms)
		}
	}
	env.out.Metrics["req_per_s"] = float64(len(reqs)) / wall.Seconds()
	env.out.Metrics["lat_p99_ms"] = benchstat.Tail(all)
	if len(hits) > 0 {
		env.out.Metrics["hit_p50_ms"] = benchstat.Median(hits)
	}
	if len(misses) > 0 {
		env.out.Metrics["miss_p50_ms"] = benchstat.Median(misses)
	}
	c := stats.Cache
	if lookups := c.Hits + c.Misses + c.Shared + c.StoreHits; lookups > 0 {
		env.out.Metrics["engine.hit_ratio"] = float64(c.Hits+c.StoreHits) / float64(lookups)
	}
}

// verify checks one reply and returns the content address its result
// is filed under, the result's bytes and, for a run, how the cache
// served it.
func verify(req request, r reply) (key string, result []byte, outcome string, err error) {
	if r.err != nil {
		return "", nil, "", r.err
	}
	if r.status != http.StatusOK {
		return "", nil, "", fmt.Errorf("%s: status %d: %s", req.path, r.status, bytes.TrimSpace(r.body))
	}
	if req.kind == reqSweep {
		var resp struct {
			Job    server.JobView  `json:"job"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return "", nil, "", fmt.Errorf("sweep reply: %w", err)
		}
		if resp.Job.Status != server.JobDone || len(resp.Result) == 0 {
			return "", nil, "", fmt.Errorf("sweep %s ended %s: %s", resp.Job.Hash, resp.Job.Status, resp.Job.Error)
		}
		return resp.Job.Hash, resp.Result, "", nil
	}
	var resp struct {
		Hash   string          `json:"hash"`
		Cache  string          `json:"cache"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return "", nil, "", fmt.Errorf("run reply: %w", err)
	}
	var rr server.RunRequest
	if err := json.Unmarshal(req.body, &rr); err != nil {
		return "", nil, "", err
	}
	spec, err := rr.Spec(server.DefaultLimits())
	if err != nil {
		return "", nil, "", err
	}
	want, err := spec.Hash()
	if err != nil {
		return "", nil, "", err
	}
	if resp.Hash != want {
		return "", nil, "", fmt.Errorf("reply hash %s, want %s", resp.Hash, want)
	}
	return resp.Hash, resp.Result, resp.Cache, nil
}
