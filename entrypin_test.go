package ltp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/fabric"
	"ltp/internal/pipeline"
	"ltp/internal/sched"
	"ltp/internal/server"
	"ltp/internal/workload"
)

// pinnedEntryDigests holds sha256(json(RunResult)) for one RunContext
// call of every spec shape the public entry point accepts: the
// warm-up modes, the oracle (requested and prebuilt), each backend,
// a co-runner, an explicit program and a trace round trip ("trace/
// bytes" pins the recorded trace itself), plus three cells that bound
// the cycle loop's idle skipping: a MaxCycles cap that lands inside a
// DRAM stall, a sampled K=16 hashjoin cell and a detailed-warm NR+NU
// cell with the timer-driven DRAM monitor. The values were recorded
// before the code they fence changed; a change to how a run is
// resolved or executed must leave every one of them unchanged.
var pinnedEntryDigests = map[string]string{
	"cycle/detailed-warm":       "46c71c6ca6e74a4b1f0172e6912cc31c027fba9b95cc5080b2fcf1a2d996f56b",
	"cycle/no-warm":             "5935dc78ed0646b692dd9953afbf00363b761cf59ecca6fab8e7a1d0037db881",
	"cycle/oracle":              "7d3d11b7b9fb0580174f9ee73d350ff64db6aecd2af2a32f91250aaea6f50dec",
	"cycle/prebuilt-oracle":     "c4aa508826554130e0cbc1bf8ee2a9ad4dc9195c174ac477b04d58b7052bbc96",
	"model":                     "6ab486ca3434e5391396b175e05f96a0457b1696be9dcbe99dd56b560565c938",
	"model/program":             "1af9552342121517ced5efe87391b2cbd3812436fc6d072bb8fe6e73fafdd335",
	"sampled/K4":                "1ee26719ee16063e4c034aa6b8a706006d951385d4ece49f27612a463a137f55",
	"cycle/memhog":              "d17b28d0eaabc127909e19c5bd6c1f2899c7dcb7c6f1c828379e73cdc62f94ba",
	"cycle/program":             "8445aa199b5bf919ed3ae1ba8593159f968d3e6b0208f2c1f51068d3c707d886",
	"cycle/max-cycles":          "2dfacc816bfcb57e64c1b297fd0aaf3d8e1ae430f602c758a51570ecc92944ac",
	"sampled/K16-hashjoin":      "ad1a5fce66458f790851179a862db7f6a0284b612184c1f733379982f38d3aa5",
	"cycle/detailed-warm-timer": "5bbe007b3e65b3354b4720a4c55eba1ec256a6d6b57fb43af6438d1d5a7eef45",
	"trace/record":              "f401da63fc269db6aec6f04bf3533e6dfba6003feace18c070b4450be239a0d0",
	"trace/bytes":               "d8d4b3617e18a5e7766ea712376d99e80cd020cc5376667c6ce06909666df1bf",
	"trace/replay":              "f401da63fc269db6aec6f04bf3533e6dfba6003feace18c070b4450be239a0d0",
}

// entryShapes returns the pinned specs in a fixed order. Each call
// builds fresh specs: a trace replay consumes its reader.
func entryShapes(t *testing.T) []struct {
	name string
	spec ltp.RunSpec
} {
	t.Helper()
	indirect, err := workload.ByName("indirect")
	if err != nil {
		t.Fatal(err)
	}
	program := indirect.Build(0.05)
	nrnu := core.DefaultConfig()
	nrnu.Mode = core.ModeNRNU
	prebuilt := core.DefaultConfig()
	pcfg := pipeline.DefaultConfig()
	prebuilt.Oracle = core.BuildOracle(program, 2_000+3_000+65_536, pcfg.Hier, pcfg.ROBSize)
	base := func(wl string) ltp.RunSpec {
		return ltp.RunSpec{Workload: wl, Scale: 0.05, WarmInsts: 2_000, MaxInsts: 3_000, UseLTP: true}
	}

	detailed := base("indirect")
	detailed.WarmMode = ltp.WarmDetailed
	noWarm := ltp.RunSpec{Scenario: "ptrchase", Seed: 3, Scale: 0.05, MaxInsts: 3_000, UseLTP: true}
	oracle := base("chains")
	oracle.LTP, oracle.Oracle = &nrnu, true
	withOracle := ltp.RunSpec{Program: program, WarmInsts: 2_000, MaxInsts: 3_000, UseLTP: true, LTP: &prebuilt}
	model := ltp.RunSpec{Scenario: "hashjoin", Scale: 0.05, WarmInsts: 2_000, MaxInsts: 5_000, UseLTP: true, Backend: ltp.BackendModel}
	modelProgram := ltp.RunSpec{Program: program, WarmInsts: 2_000, MaxInsts: 5_000, Backend: ltp.BackendModel}
	sampled := base("fpstream")
	sampled.MaxInsts, sampled.Backend, sampled.Intervals = 8_000, ltp.BackendSampled, 4
	memhog := ltp.RunSpec{Scenario: "ptrchase", Scale: 0.05, WarmInsts: 2_000, MaxInsts: 4_000, UseLTP: true,
		Corunners: []ltp.Corunner{{Scenario: "memhog"}}}
	explicit := ltp.RunSpec{Program: program, WarmInsts: 2_000, MaxInsts: 3_000, UseLTP: true}
	// The cap lands while the core waits on a DRAM miss.
	capped := ltp.RunSpec{Scenario: "ptrchase", Seed: 1, Scale: 0.05, WarmInsts: 2_000, MaxInsts: 3_000, MaxCycles: 4_321, UseLTP: true}
	sampled16 := ltp.RunSpec{Scenario: "hashjoin", Seed: 1, Scale: 0.05, WarmInsts: 2_000, MaxInsts: 16_000,
		UseLTP: true, Backend: ltp.BackendSampled, Intervals: 16}
	timer := ltp.RunSpec{Scenario: "hashjoin", Seed: 2, Scale: 0.05, WarmInsts: 2_000, WarmMode: ltp.WarmDetailed,
		MaxInsts: 3_000, UseLTP: true, LTP: &nrnu}

	return []struct {
		name string
		spec ltp.RunSpec
	}{
		{"cycle/detailed-warm", detailed},
		{"cycle/no-warm", noWarm},
		{"cycle/oracle", oracle},
		{"cycle/prebuilt-oracle", withOracle},
		{"model", model},
		{"model/program", modelProgram},
		{"sampled/K4", sampled},
		{"cycle/memhog", memhog},
		{"cycle/program", explicit},
		{"cycle/max-cycles", capped},
		{"sampled/K16-hashjoin", sampled16},
		{"cycle/detailed-warm-timer", timer},
	}
}

// digest is sha256(json(v)) in hex.
func digest(t *testing.T, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// TestEntryShapesPinned pins RunContext's result bytes for every spec
// shape, including the ones with no canonical form, so the single-run
// path can change underneath without moving a number.
func TestEntryShapesPinned(t *testing.T) {
	ctx := context.Background()
	got := make(map[string]string)
	for _, c := range entryShapes(t) {
		res, err := ltp.RunContext(ctx, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = digest(t, res)
	}

	var trace bytes.Buffer
	rec := ltp.RunSpec{Workload: "hashprobe", Scale: 0.05, WarmInsts: 2_000, MaxInsts: 3_000, UseLTP: true, RecordTo: &trace}
	res, err := ltp.RunContext(ctx, rec)
	if err != nil {
		t.Fatalf("trace/record: %v", err)
	}
	got["trace/record"] = digest(t, res)
	sum := sha256.Sum256(trace.Bytes())
	got["trace/bytes"] = hex.EncodeToString(sum[:])
	rep := rec
	rep.Workload, rep.RecordTo, rep.ReplayFrom = "", nil, &trace
	if res, err = ltp.RunContext(ctx, rep); err != nil {
		t.Fatalf("trace/replay: %v", err)
	}
	got["trace/replay"] = digest(t, res)

	if len(got) != len(pinnedEntryDigests) {
		t.Errorf("%d shapes ran, %d pinned", len(got), len(pinnedEntryDigests))
	}
	for name, d := range got {
		if want := pinnedEntryDigests[name]; d != want {
			t.Errorf("%q: %q, // pinned %q", name, d, want)
		}
	}
}

// entryCell is one cell in both spellings: a RunSpec and the /v1/run
// request body that means the same run.
type entryCell struct {
	name string
	spec ltp.RunSpec
	body string
}

func entryCells() []entryCell {
	return []entryCell{
		{"cycle/fast-warm",
			ltp.RunSpec{Scenario: "hashjoin", Seed: 2, Scale: 0.05, WarmInsts: 2_000, MaxInsts: 3_000, UseLTP: true},
			`{"scenario":"hashjoin","seed":2,"scale":0.05,"warm_insts":2000,"max_insts":3000,"use_ltp":true}`},
		{"cycle/detailed-warm",
			ltp.RunSpec{Workload: "indirect", Scale: 0.05, WarmInsts: 2_000, WarmMode: ltp.WarmDetailed, MaxInsts: 3_000},
			`{"workload":"indirect","scale":0.05,"warm_insts":2000,"warm_mode":"detailed","max_insts":3000}`},
		{"cycle/no-warm",
			ltp.RunSpec{Workload: "chains", Scale: 0.05, MaxInsts: 3_000},
			`{"workload":"chains","scale":0.05,"max_insts":3000}`},
		{"sampled",
			ltp.RunSpec{Workload: "fpstream", Scale: 0.05, WarmInsts: 2_000, MaxInsts: 8_000, Backend: ltp.BackendSampled, Intervals: 4},
			`{"workload":"fpstream","scale":0.05,"warm_insts":2000,"max_insts":8000,"backend":"sampled","intervals":4}`},
		{"model",
			ltp.RunSpec{Scenario: "ptrchase", Scale: 0.05, WarmInsts: 2_000, MaxInsts: 5_000, UseLTP: true, Backend: ltp.BackendModel},
			`{"scenario":"ptrchase","scale":0.05,"warm_insts":2000,"max_insts":5000,"use_ltp":true,"backend":"model"}`},
		{"cycle/memhog",
			ltp.RunSpec{Scenario: "ptrchase", Scale: 0.05, WarmInsts: 2_000, MaxInsts: 4_000, Corunners: []ltp.Corunner{{Scenario: "memhog"}}},
			`{"scenario":"ptrchase","scale":0.05,"warm_insts":2000,"max_insts":4000,"corunners":[{"scenario":"memhog"}]}`},
	}
}

// TestEntryPointsAgree is the single-cell metamorphic invariant: a
// cell gives the same result bytes and the same content address from
// every entry point — RunContext, Engine.RunCached, a one-cell
// Engine.Submit sweep, Engine.RunBatchCached (the /v1/cells path), an
// HTTP /v1/run, and a fabric coordinator's /v1/run and one-cell
// /v1/sweep in front of a worker over the same engine — and the
// worker's cache simulates it exactly once. Which entry point goes
// first rotates per cell, so each one serves both a miss and hits.
func TestEntryPointsAgree(t *testing.T) {
	ctx := context.Background()
	e := newTestEngine(t, ltp.EngineConfig{Parallelism: 2})
	defer e.Close()
	srv, err := server.New(server.Config{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	coord, err := fabric.New(fabric.Config{Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	defer coord.Close()
	defer front.Close()

	type served struct {
		result  ltp.RunResult
		hash    string
		outcome string
	}
	postRun := func(base string, c entryCell) (served, error) {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(c.body))
		if err != nil {
			return served{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return served{}, fmt.Errorf("status %s", resp.Status)
		}
		var rr server.RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			return served{}, err
		}
		return served{rr.Result, rr.Hash, rr.Cache}, nil
	}

	entries := []struct {
		name string
		run  func(c entryCell) (served, error)
	}{
		{"RunCached", func(c entryCell) (served, error) {
			res, out, h, err := e.RunCached(ctx, c.spec)
			return served{res, h, out.String()}, err
		}},
		{"Submit", func(c entryCell) (served, error) {
			job, err := e.Submit(ctx, ltp.SweepSpec{Base: c.spec})
			if err != nil {
				return served{}, err
			}
			var cells []ltp.CellResult
			for cell := range job.Cells() {
				cells = append(cells, cell)
			}
			if _, err := job.Wait(); err != nil {
				return served{}, err
			}
			if len(cells) != 1 {
				return served{}, fmt.Errorf("one-cell sweep streamed %d cells", len(cells))
			}
			return served{cells[0].Result, cells[0].Hash, cells[0].Outcome}, cells[0].Err
		}},
		{"RunBatchCached", func(c entryCell) (served, error) {
			res, outs, hs, errs := e.RunBatchCached(ctx, sched.TierCampaign, []ltp.RunSpec{c.spec})
			return served{res[0], hs[0], outs[0].String()}, errs[0]
		}},
		{"/v1/run", func(c entryCell) (served, error) { return postRun(ts.URL, c) }},
		// The coordinator's two entries sit side by side, so for every
		// cell the second of them is served by the coordinator's own
		// cache and never reaches e.
		{"coordinator /v1/run", func(c entryCell) (served, error) { return postRun(front.URL, c) }},
		{"coordinator /v1/sweep", func(c entryCell) (served, error) {
			// The stream form: unlike ?wait=1 it carries the run's own
			// result bytes and content address.
			body := `{"base":` + c.body + `,"axes":[{"name":"one","points":[{"name":"p","patch":{}}]}]}`
			resp, err := http.Post(front.URL+"/v1/sweep?stream=1", "application/json", strings.NewReader(body))
			if err != nil {
				return served{}, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return served{}, fmt.Errorf("status %s", resp.Status)
			}
			var cells []*ltp.CellResult
			var last server.StreamEvent
			dec := json.NewDecoder(resp.Body)
			for dec.More() {
				var ev server.StreamEvent
				if err := dec.Decode(&ev); err != nil {
					return served{}, err
				}
				if ev.Type == "cell" {
					cells = append(cells, ev.Cell)
				}
				last = ev
			}
			if last.Type != "result" {
				return served{}, fmt.Errorf("sweep ended with %q: %s", last.Type, last.Error)
			}
			if len(cells) != 1 {
				return served{}, fmt.Errorf("one-cell sweep streamed %d cells", len(cells))
			}
			return served{cells[0].Result, cells[0].Hash, cells[0].Outcome}, nil
		}},
	}

	cells := entryCells()
	for i, c := range cells {
		ref, err := ltp.RunContext(ctx, c.spec)
		if err != nil {
			t.Fatalf("%s: RunContext: %v", c.name, err)
		}
		want := resultJSON(t, ref)
		hash, err := c.spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		for k := range entries {
			entry := entries[(i+k)%len(entries)]
			got, err := entry.run(c)
			if err != nil {
				t.Fatalf("%s via %s: %v", c.name, entry.name, err)
			}
			if got.hash != hash {
				t.Errorf("%s via %s: hash %s, want %s", c.name, entry.name, got.hash, hash)
			}
			if resultJSON(t, got.result) != want {
				t.Errorf("%s via %s: result bytes differ from RunContext's", c.name, entry.name)
			}
			wantOutcome := "hit"
			if k == 0 {
				wantOutcome = "miss"
			}
			if got.outcome != wantOutcome {
				t.Errorf("%s via %s (call %d): outcome %s, want %s", c.name, entry.name, k, got.outcome, wantOutcome)
			}
		}
	}
	st := e.CacheStats()
	if n := uint64(len(cells)); st.Misses != n || st.Hits != n*uint64(len(entries)-2) || st.Shared != 0 || st.StoreHits != 0 {
		t.Errorf("cache stats %+v: want %d misses and %d hits, nothing shared or stored",
			st, n, n*uint64(len(entries)-2))
	}
}
