// Command servesmoke is the end-to-end smoke test behind
// `make smoke-serve`: it builds cmd/ltpserved, boots it on a free
// port, submits a quick matrix-shaped sweep twice, and fails unless the
// resubmission is served entirely from the content-addressed cache
// (every run a hit, zero new simulations). It walks the fidelity
// surface (model and sampled backends, triage sweeps), checking that a
// sampled resubmission hits the cache while the same cell on the cycle
// backend is a distinct address that simulates afresh. It then
// exercises the v2 cancellation path: an in-flight campaign is cancelled via
// DELETE /v1/jobs/{id} and must settle in state canceled with its
// queued cells never simulated, after which an identical resubmission
// must re-simulate (no stale canceled entry served from the cache).
// Finally it proves the persistent result store survives a crash: a
// store-backed server runs a campaign, is SIGKILLed, and a fresh
// server on the same store file must serve the identical campaign
// entirely from disk — every run a store hit, zero new simulations.
// Only the Go toolchain is required — no curl, no jq.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ltp/scripts/internal/daemon"
)

// matrixBody is the -quick-scale campaign the smoke submits twice: a
// scenario x config matrix with two replicated seeds per cell.
const matrixBody = `{"base":{"scale":0.05,"max_insts":5000},"axes":[
 {"name":"scenario","points":[{"name":"branchy","patch":{"scenario":"branchy"}},{"name":"hashjoin","patch":{"scenario":"hashjoin"}}]},
 {"name":"config","points":[{"name":"IQ64","patch":{}},{"name":"IQ32+LTP","patch":{"use_ltp":true,"iq_size":32}}]},
 {"name":"seed","replicate":true,"points":[{"name":"s0","patch":{"seed":0}},{"name":"s1","patch":{"seed":1}}]}]}`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		daemon.DumpStderr()
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

// progressView mirrors the documented job.progress fields.
type progressView struct {
	TotalRuns    int   `json:"total_runs"`
	DoneRuns     int   `json:"done_runs"`
	CanceledRuns int   `json:"canceled_runs"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheShared  int64 `json:"cache_shared"`
	StoreHits    int64 `json:"store_hits"`
}

// campaignResp mirrors the documented campaign response shape.
type campaignResp struct {
	Job struct {
		ID       string       `json:"id"`
		Hash     string       `json:"hash"`
		Status   string       `json:"status"`
		Error    string       `json:"error"`
		Progress progressView `json:"progress"`
	} `json:"job"`
	Result json.RawMessage `json:"result"`
}

func run() error {
	tmp, err := os.MkdirTemp("", "ltpserved-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "ltpserved")

	build := exec.Command("go", "build", "-o", bin, "./cmd/ltpserved")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building ltpserved: %w", err)
	}

	// Two workers keep the cancel phase deterministic: the slow
	// campaign's first cells are still in flight when the DELETE lands.
	srv, err := bootServer(bin)
	if err != nil {
		return err
	}
	defer srv.Kill()
	base := srv.Base
	fmt.Println("servesmoke: server at", base)

	if err := daemon.Get(base+"/healthz", nil); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	var first campaignResp
	if err := post(base+"/v1/sweep?wait=1", matrixBody, &first); err != nil {
		return fmt.Errorf("first campaign: %w", err)
	}
	if first.Job.Status != "done" {
		return fmt.Errorf("first campaign status %q (%s)", first.Job.Status, first.Job.Error)
	}
	if first.Job.Progress.CacheMisses == 0 {
		return fmt.Errorf("first campaign reports zero simulations: %+v", first.Job.Progress)
	}
	fmt.Printf("servesmoke: first submission: %d runs, %d simulated, %d cache hits\n",
		first.Job.Progress.TotalRuns, first.Job.Progress.CacheMisses, first.Job.Progress.CacheHits)

	var second campaignResp
	if err := post(base+"/v1/sweep?wait=1", matrixBody, &second); err != nil {
		return fmt.Errorf("second campaign: %w", err)
	}
	if second.Job.Status != "done" {
		return fmt.Errorf("second campaign status %q (%s)", second.Job.Status, second.Job.Error)
	}
	p := second.Job.Progress
	if p.CacheHits != int64(p.TotalRuns) || p.CacheMisses != 0 {
		return fmt.Errorf("resubmission was not served from cache: %+v", p)
	}
	if second.Job.Hash != first.Job.Hash {
		return fmt.Errorf("identical campaigns hash differently: %s vs %s", first.Job.Hash, second.Job.Hash)
	}
	fmt.Printf("servesmoke: resubmission: %d/%d runs served from cache, 0 simulated\n",
		p.CacheHits, p.TotalRuns)

	// The stats endpoint must agree that reuse happened.
	var stats struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := daemon.Get(base+"/v1/stats", &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if stats.Cache.Hits == 0 {
		return fmt.Errorf("stats show no cache hits: %+v", stats)
	}

	if err := backendFlow(base); err != nil {
		return err
	}
	if err := microarchFlow(base); err != nil {
		return err
	}
	if err := sampledFlow(base); err != nil {
		return err
	}
	if err := instantFlow(base); err != nil {
		return err
	}
	if err := cancelFlow(base); err != nil {
		return err
	}
	return storeRestartFlow(bin, filepath.Join(tmp, "results.store"))
}

// instantFlow exercises the batched model evaluation end to end: a
// 64-cell model sweep — one functional stream fanned into IQ × ROB ×
// parking timing lanes — must round-trip inside a wall-clock budget
// (the batch path amortizes warm-up and emulation across the group),
// and its cells must land in the result cache under exactly the
// content addresses single /v1/run submissions compute: a sampling of
// cells resubmitted singly must all be pure cache hits.
func instantFlow(base string) error {
	iqs := []int{16, 24, 32, 40, 48, 56, 64, 80}
	robs := []int{128, 160, 192, 224}

	var iqPts, robPts []string
	for _, iq := range iqs {
		iqPts = append(iqPts, fmt.Sprintf(`{"name":"iq%d","patch":{"iq_size":%d}}`, iq, iq))
	}
	for _, rob := range robs {
		robPts = append(robPts, fmt.Sprintf(`{"name":"rob%d","patch":{"rob_size":%d}}`, rob, rob))
	}
	sweepBody := fmt.Sprintf(`{
	 "base": {"scenario":"hashjoin","backend":"model","scale":0.05,"warm_insts":8000,"max_insts":20000},
	 "axes": [
	  {"name":"iq","points":[%s]},
	  {"name":"rob","points":[%s]},
	  {"name":"park","points":[{"name":"off","patch":{}},{"name":"on","patch":{"use_ltp":true}}]}
	 ]
	}`, strings.Join(iqPts, ","), strings.Join(robPts, ","))

	var sweep struct {
		Job struct {
			Status   string       `json:"status"`
			Error    string       `json:"error"`
			Progress progressView `json:"progress"`
		} `json:"job"`
		Result struct {
			Cells []struct {
				Backend string `json:"backend"`
			} `json:"cells"`
		} `json:"result"`
	}
	start := time.Now()
	if err := post(base+"/v1/sweep?wait=1", sweepBody, &sweep); err != nil {
		return fmt.Errorf("instant sweep: %w", err)
	}
	elapsed := time.Since(start)
	if sweep.Job.Status != "done" {
		return fmt.Errorf("instant sweep status %q (%s)", sweep.Job.Status, sweep.Job.Error)
	}
	if sweep.Job.Progress.TotalRuns != 64 || sweep.Job.Progress.DoneRuns != 64 {
		return fmt.Errorf("instant sweep progress %+v, want 64/64", sweep.Job.Progress)
	}
	if len(sweep.Result.Cells) != 64 {
		return fmt.Errorf("instant sweep has %d cells, want 64", len(sweep.Result.Cells))
	}
	// Budget: the batch path turns 64 model cells into one warm pass
	// plus 64 cheap timing lanes — normally well under a second. The
	// bound is generous for loaded CI machines while still catching a
	// regression to 64 independent warm-ups.
	const budget = 15 * time.Second
	if elapsed > budget {
		return fmt.Errorf("64-cell model sweep took %v, over the %v interactive budget", elapsed, budget)
	}

	// Corner and center cells resubmitted singly: the batch must have
	// cached them under the same addresses /v1/run computes.
	picks := []struct {
		iq, rob int
		park    bool
	}{
		{16, 128, false},
		{40, 160, false},
		{80, 224, true},
	}
	hashes := map[string]bool{}
	for _, p := range picks {
		park := ""
		if p.park {
			park = `,"use_ltp":true`
		}
		body := fmt.Sprintf(
			`{"scenario":"hashjoin","backend":"model","scale":0.05,"warm_insts":8000,"max_insts":20000,"config":{"iq_size":%d,"rob_size":%d}%s}`,
			p.iq, p.rob, park)
		var single struct {
			Hash  string `json:"hash"`
			Cache string `json:"cache"`
		}
		if err := post(base+"/v1/run", body, &single); err != nil {
			return fmt.Errorf("instant cell iq%d/rob%d: %w", p.iq, p.rob, err)
		}
		if single.Cache != "hit" {
			return fmt.Errorf("cell iq%d/rob%d park=%v resubmitted as %q, want hit: the batch and single paths disagree on content addresses",
				p.iq, p.rob, p.park, single.Cache)
		}
		if hashes[single.Hash] {
			return fmt.Errorf("distinct cells share hash %s", single.Hash)
		}
		hashes[single.Hash] = true
	}
	fmt.Printf("servesmoke: instant sweep ok (64 model cells in %v, single resubmissions all hits)\n",
		elapsed.Round(time.Millisecond))
	return nil
}

// bootServer starts ltpserved on a free port with two workers and any
// extra flags.
func bootServer(bin string, extra ...string) (*daemon.Daemon, error) {
	return daemon.Boot(bin, "server", append([]string{"-addr", "127.0.0.1:0", "-q", "-parallel", "2"}, extra...)...)
}

// storeStatsView mirrors the documented /v1/stats store section.
type storeStatsView struct {
	Cache struct {
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Store *struct {
		Records int64  `json:"records"`
		Hits    uint64 `json:"hits"`
		Appends uint64 `json:"appends"`
	} `json:"store"`
}

// storeRestartFlow proves results survive a hard crash: a store-backed
// server runs the quick campaign, is SIGKILLed mid-life, and a fresh
// server on the same store file must serve the identical campaign
// entirely from disk — every run a store hit, zero new simulations.
func storeRestartFlow(bin, storePath string) error {
	srv1, err := bootServer(bin, "-store", storePath)
	if err != nil {
		return err
	}
	defer srv1.Kill()
	base := srv1.Base

	var first campaignResp
	if err := post(base+"/v1/sweep?wait=1", matrixBody, &first); err != nil {
		return fmt.Errorf("store-backed campaign: %w", err)
	}
	if first.Job.Status != "done" || first.Job.Progress.CacheMisses == 0 {
		return fmt.Errorf("store-backed campaign did not simulate: %+v", first.Job)
	}
	total := first.Job.Progress.TotalRuns
	var st storeStatsView
	if err := daemon.Get(base+"/v1/stats", &st); err != nil {
		return fmt.Errorf("store stats: %w", err)
	}
	if st.Store == nil || st.Store.Appends == 0 {
		return fmt.Errorf("stats show no store appends after a store-backed campaign: %+v", st.Store)
	}
	// Crash: no drain, no graceful close. The appended records must
	// already be durable.
	srv1.Kill()

	srv2, err := bootServer(bin, "-store", storePath)
	if err != nil {
		return err
	}
	defer srv2.Kill()
	base2 := srv2.Base
	var redo campaignResp
	if err := post(base2+"/v1/sweep?wait=1", matrixBody, &redo); err != nil {
		return fmt.Errorf("post-restart campaign: %w", err)
	}
	p := redo.Job.Progress
	if redo.Job.Status != "done" || p.StoreHits != int64(total) || p.CacheMisses != 0 || p.CacheHits != 0 {
		return fmt.Errorf("post-restart campaign was not served from the store: %+v", p)
	}
	if redo.Job.Hash != first.Job.Hash {
		return fmt.Errorf("campaign hash changed across restart: %s vs %s", first.Job.Hash, redo.Job.Hash)
	}
	var st2 storeStatsView
	if err := daemon.Get(base2+"/v1/stats", &st2); err != nil {
		return fmt.Errorf("post-restart stats: %w", err)
	}
	if st2.Cache.Misses != 0 || st2.Store == nil || st2.Store.Hits != uint64(total) || st2.Store.Appends != 0 {
		return fmt.Errorf("post-restart stats show fresh simulations: cache %+v store %+v", st2.Cache, st2.Store)
	}
	fmt.Printf("servesmoke: store restart: %d/%d runs from disk after SIGKILL, 0 simulated\n",
		p.StoreHits, total)
	return nil
}

// sampledFlow exercises the sampled fidelity tier over HTTP: a sampled
// run simulates and carries its sampling annotation, an identical
// resubmission is a pure cache hit, and the same cell on the cycle
// backend is a distinct content address that must simulate afresh.
func sampledFlow(base string) error {
	const cell = `{"scenario":"hashjoin","scale":0.05,"warm_insts":5000,"max_insts":40000%s}`
	type runResp struct {
		Hash   string `json:"hash"`
		Cache  string `json:"cache"`
		Result struct {
			CPI      float64 `json:"CPI"`
			Sampling *struct {
				Intervals    int    `json:"Intervals"`
				SampledInsts uint64 `json:"SampledInsts"`
			} `json:"Sampling"`
		} `json:"result"`
	}

	var first, again, cyc runResp
	if err := post(base+"/v1/run", fmt.Sprintf(cell, `,"backend":"sampled","intervals":4`), &first); err != nil {
		return fmt.Errorf("sampled run: %w", err)
	}
	if first.Cache != "miss" {
		return fmt.Errorf("first sampled run was %q, want miss", first.Cache)
	}
	if first.Result.Sampling == nil || first.Result.Sampling.Intervals != 4 {
		return fmt.Errorf("sampled run missing its sampling annotation: %+v", first.Result)
	}
	if n := first.Result.Sampling.SampledInsts; n == 0 || n >= 40000 {
		return fmt.Errorf("sampled run measured %d insts, want a strict fraction of 40000", n)
	}

	if err := post(base+"/v1/run", fmt.Sprintf(cell, `,"backend":"sampled","intervals":4`), &again); err != nil {
		return fmt.Errorf("sampled resubmit: %w", err)
	}
	if again.Cache != "hit" || again.Hash != first.Hash {
		return fmt.Errorf("sampled resubmit not served from cache: cache %q, hash %s vs %s",
			again.Cache, again.Hash, first.Hash)
	}

	// The same cell cycle-accurately is a different content address and
	// must simulate (the sampled result cannot masquerade as cycle).
	if err := post(base+"/v1/run", fmt.Sprintf(cell, ""), &cyc); err != nil {
		return fmt.Errorf("cycle resubmit: %w", err)
	}
	if cyc.Hash == first.Hash {
		return fmt.Errorf("sampled and cycle cells share hash %s", cyc.Hash)
	}
	if cyc.Cache != "miss" {
		return fmt.Errorf("cycle resubmit was %q, want miss", cyc.Cache)
	}
	fmt.Printf("servesmoke: sampled flow ok (sampled CPI %.3f over %d/40000 insts, cycle CPI %.3f)\n",
		first.Result.CPI, first.Result.Sampling.SampledInsts, cyc.Result.CPI)
	return nil
}

// backendFlow exercises the fidelity surface: the backend registry on
// /v1/workloads, a model-backend /v1/run whose hash must differ from
// the cycle run's, and a triage sweep whose two phases both finish.
func backendFlow(base string) error {
	var w struct {
		Backends []struct {
			Name     string `json:"name"`
			Fidelity string `json:"fidelity"`
		} `json:"backends"`
	}
	if err := daemon.Get(base+"/v1/workloads", &w); err != nil {
		return fmt.Errorf("workloads: %w", err)
	}
	names := map[string]bool{}
	for _, b := range w.Backends {
		names[b.Name] = true
	}
	if !names["cycle"] || !names["model"] {
		return fmt.Errorf("backend registry incomplete: %+v", w.Backends)
	}

	const runBody = `{"scenario":"branchy","scale":0.05,"max_insts":5000%s}`
	var cyc, mod struct {
		Hash   string `json:"hash"`
		Result struct {
			CPI float64 `json:"CPI"`
		} `json:"result"`
	}
	if err := post(base+"/v1/run", fmt.Sprintf(runBody, ""), &cyc); err != nil {
		return fmt.Errorf("cycle run: %w", err)
	}
	if err := post(base+"/v1/run", fmt.Sprintf(runBody, `,"backend":"model"`), &mod); err != nil {
		return fmt.Errorf("model run: %w", err)
	}
	if mod.Hash == cyc.Hash {
		return fmt.Errorf("model and cycle runs share hash %s", mod.Hash)
	}
	if mod.Result.CPI <= 0 {
		return fmt.Errorf("model run returned no CPI estimate")
	}
	fmt.Printf("servesmoke: backends ok (cycle CPI %.3f, model estimate %.3f)\n", cyc.Result.CPI, mod.Result.CPI)

	// A triage sweep: 2 scenarios × 2 configs × 2 seeds on the model
	// backend, best cell re-run cycle-accurately. 8 + 2 runs total.
	const triageBody = `{
	 "base": {"scale":0.05,"max_insts":4000},
	 "axes": [
	  {"name":"scenario","points":[{"name":"branchy","patch":{"scenario":"branchy"}},
	                               {"name":"hashjoin","patch":{"scenario":"hashjoin"}}]},
	  {"name":"config","points":[{"name":"IQ64","patch":{}},
	                             {"name":"IQ32","patch":{"iq_size":32}}]},
	  {"name":"seed","replicate":true,"points":[{"name":"s1","patch":{"seed":1}},
	                                            {"name":"s2","patch":{"seed":2}}]}
	 ],
	 "triage": {"top_k": 1}
	}`
	var sweep struct {
		Job struct {
			Status   string `json:"status"`
			Error    string `json:"error"`
			Progress struct {
				TotalRuns int `json:"total_runs"`
				DoneRuns  int `json:"done_runs"`
			} `json:"progress"`
		} `json:"job"`
		Result struct {
			Cells []struct {
				Backend string `json:"backend"`
			} `json:"cells"`
			Triage struct {
				Detailed []struct {
					Backend string   `json:"backend"`
					Coords  []string `json:"coords"`
				} `json:"detailed"`
			} `json:"triage"`
		} `json:"result"`
	}
	if err := post(base+"/v1/sweep?wait=1", triageBody, &sweep); err != nil {
		return fmt.Errorf("triage sweep: %w", err)
	}
	if sweep.Job.Status != "done" {
		return fmt.Errorf("triage sweep status %q (%s)", sweep.Job.Status, sweep.Job.Error)
	}
	if sweep.Job.Progress.TotalRuns != 10 || sweep.Job.Progress.DoneRuns != 10 {
		return fmt.Errorf("triage progress %+v, want 10/10", sweep.Job.Progress)
	}
	if len(sweep.Result.Cells) != 4 {
		return fmt.Errorf("triage result has %d estimate cells, want 4", len(sweep.Result.Cells))
	}
	for _, c := range sweep.Result.Cells {
		if c.Backend != "model" {
			return fmt.Errorf("estimate cell on backend %q", c.Backend)
		}
	}
	if n := len(sweep.Result.Triage.Detailed); n != 1 {
		return fmt.Errorf("triage selected %d detailed cells, want 1", n)
	}
	if b := sweep.Result.Triage.Detailed[0].Backend; b != "cycle" {
		return fmt.Errorf("detailed cell on backend %q, want cycle", b)
	}
	fmt.Printf("servesmoke: triage sweep ok (detailed cell %v)\n", sweep.Result.Triage.Detailed[0].Coords)
	return nil
}

// microarchFlow exercises the microarchitectural sweep axes over
// HTTP: the predictor/prefetcher registries on /v1/workloads, distinct
// content addresses per axis value (with the default spellings
// collapsing onto the unset form, so "gshare" resubmits as a cache
// hit), a contended co-runner run, and a predictor × prefetcher sweep.
func microarchFlow(base string) error {
	var w struct {
		BranchPredictors []string `json:"branch_predictors"`
		Prefetchers      []string `json:"prefetchers"`
	}
	if err := daemon.Get(base+"/v1/workloads", &w); err != nil {
		return fmt.Errorf("workloads: %w", err)
	}
	have := func(list []string, name string) bool {
		for _, n := range list {
			if n == name {
				return true
			}
		}
		return false
	}
	if !have(w.BranchPredictors, "gshare") || !have(w.BranchPredictors, "tage") {
		return fmt.Errorf("branch predictor registry incomplete: %v", w.BranchPredictors)
	}
	if !have(w.Prefetchers, "none") || !have(w.Prefetchers, "stride") || !have(w.Prefetchers, "stream") {
		return fmt.Errorf("prefetcher registry incomplete: %v", w.Prefetchers)
	}

	const cell = `{"scenario":"branchy","scale":0.05,"max_insts":5000%s}`
	type runResp struct {
		Hash  string `json:"hash"`
		Cache string `json:"cache"`
	}
	var def, tage, gsh, strm, cor, corAgain runResp
	if err := post(base+"/v1/run", fmt.Sprintf(cell, ""), &def); err != nil {
		return fmt.Errorf("default run: %w", err)
	}
	if err := post(base+"/v1/run", fmt.Sprintf(cell, `,"branch_pred":"tage"`), &tage); err != nil {
		return fmt.Errorf("tage run: %w", err)
	}
	if tage.Cache != "miss" || tage.Hash == def.Hash {
		return fmt.Errorf("tage cell not a distinct address: cache %q, hash %s vs %s",
			tage.Cache, tage.Hash, def.Hash)
	}
	// gshare is the Table 1 default: naming it must land on the unset
	// form's address — a cache hit, not a fresh simulation.
	if err := post(base+"/v1/run", fmt.Sprintf(cell, `,"branch_pred":"gshare"`), &gsh); err != nil {
		return fmt.Errorf("gshare run: %w", err)
	}
	if gsh.Cache != "hit" || gsh.Hash != def.Hash {
		return fmt.Errorf("explicit gshare did not collapse onto the default: cache %q, hash %s vs %s",
			gsh.Cache, gsh.Hash, def.Hash)
	}
	if err := post(base+"/v1/run", fmt.Sprintf(cell, `,"prefetcher":"stream"`), &strm); err != nil {
		return fmt.Errorf("stream run: %w", err)
	}
	if strm.Cache != "miss" || strm.Hash == def.Hash || strm.Hash == tage.Hash {
		return fmt.Errorf("stream cell not a distinct address: %+v", strm)
	}
	if err := post(base+"/v1/run", fmt.Sprintf(cell, `,"corunners":[{"scenario":"memhog"}]`), &cor); err != nil {
		return fmt.Errorf("co-runner run: %w", err)
	}
	if cor.Cache != "miss" || cor.Hash == def.Hash {
		return fmt.Errorf("co-runner cell not a distinct address: %+v", cor)
	}
	if err := post(base+"/v1/run", fmt.Sprintf(cell, `,"corunners":[{"scenario":"memhog"}]`), &corAgain); err != nil {
		return fmt.Errorf("co-runner resubmit: %w", err)
	}
	if corAgain.Cache != "hit" || corAgain.Hash != cor.Hash {
		return fmt.Errorf("co-runner resubmit not served from cache: %+v", corAgain)
	}

	// A predictor × prefetcher sweep: every cell simulates and lands on
	// its own content address.
	const sweepBody = `{
	 "base": {"scenario":"branchy","scale":0.05,"max_insts":4000},
	 "axes": [
	  {"name":"bpred","points":[{"name":"gshare","patch":{"branch_pred":"gshare"}},
	                            {"name":"tage","patch":{"branch_pred":"tage"}}]},
	  {"name":"pref","points":[{"name":"none","patch":{"prefetcher":"none"}},
	                           {"name":"stream","patch":{"prefetcher":"stream"}}]}
	 ]
	}`
	var sweep struct {
		Job struct {
			Status   string       `json:"status"`
			Error    string       `json:"error"`
			Progress progressView `json:"progress"`
		} `json:"job"`
		Result struct {
			Cells []struct {
				Coords []string `json:"coords"`
			} `json:"cells"`
		} `json:"result"`
	}
	if err := post(base+"/v1/sweep?wait=1", sweepBody, &sweep); err != nil {
		return fmt.Errorf("microarch sweep: %w", err)
	}
	if sweep.Job.Status != "done" {
		return fmt.Errorf("microarch sweep status %q (%s)", sweep.Job.Status, sweep.Job.Error)
	}
	if sweep.Job.Progress.TotalRuns != 4 || sweep.Job.Progress.DoneRuns != 4 {
		return fmt.Errorf("microarch sweep progress %+v, want 4/4", sweep.Job.Progress)
	}
	if len(sweep.Result.Cells) != 4 {
		return fmt.Errorf("microarch sweep has %d cells, want 4", len(sweep.Result.Cells))
	}
	fmt.Printf("servesmoke: microarch axes ok (%d predictors, %d prefetchers, co-runner cell cached)\n",
		len(w.BranchPredictors), len(w.Prefetchers))
	return nil
}

// cancelBody is the slow campaign the cancel phase aborts: 8 seeds of
// 150k pointer-chase instructions behind 2 workers — many seconds of
// work, cancelled within milliseconds of submission.
const cancelBody = `{"base":{"scenario":"ptrchase","scale":0.1,"max_insts":150000},"axes":[
 {"name":"seed","replicate":true,"points":[{"name":"s0","patch":{"seed":0}},{"name":"s1","patch":{"seed":1}},
  {"name":"s2","patch":{"seed":2}},{"name":"s3","patch":{"seed":3}},{"name":"s4","patch":{"seed":4}},
  {"name":"s5","patch":{"seed":5}},{"name":"s6","patch":{"seed":6}},{"name":"s7","patch":{"seed":7}}]}]}`

// cancelFlow drives DELETE /v1/jobs/{id} end to end.
func cancelFlow(base string) error {
	var slow campaignResp
	if err := post(base+"/v1/sweep", cancelBody, &slow); err != nil {
		return fmt.Errorf("slow campaign submit: %w", err)
	}
	if slow.Job.ID == "" {
		return fmt.Errorf("slow campaign has no job id")
	}

	var deleted campaignResp
	if err := del(base+"/v1/jobs/"+slow.Job.ID, &deleted); err != nil {
		return fmt.Errorf("DELETE job: %w", err)
	}

	// The job must settle in state canceled promptly.
	var view campaignResp
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := daemon.Get(base+"/v1/jobs/"+slow.Job.ID, &view); err != nil {
			return fmt.Errorf("polling cancelled job: %w", err)
		}
		if view.Job.Status == "canceled" {
			break
		}
		if view.Job.Status == "done" {
			return fmt.Errorf("campaign finished before the cancel landed; cancelBody is not slow enough")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job stuck in %q after DELETE", view.Job.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	p := view.Job.Progress
	if p.CanceledRuns == 0 || p.DoneRuns+p.CanceledRuns != p.TotalRuns {
		return fmt.Errorf("canceled progress inconsistent: %+v", p)
	}
	fmt.Printf("servesmoke: cancel: %d/%d runs abandoned (%d finished first)\n",
		p.CanceledRuns, p.TotalRuns, p.DoneRuns)

	// Queued cells never run: the simulation counter must stay flat
	// after the cancel settles.
	var st1, st2 struct {
		Cache struct {
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := daemon.Get(base+"/v1/stats", &st1); err != nil {
		return err
	}
	time.Sleep(500 * time.Millisecond)
	if err := daemon.Get(base+"/v1/stats", &st2); err != nil {
		return err
	}
	if st2.Cache.Misses != st1.Cache.Misses {
		return fmt.Errorf("simulations kept starting after cancel: misses %d -> %d",
			st1.Cache.Misses, st2.Cache.Misses)
	}

	// No stale canceled entries: an identical resubmission must
	// actually simulate the abandoned cells (the pre-cancel finishers
	// may legitimately hit).
	var redo campaignResp
	if err := post(base+"/v1/sweep?wait=1", cancelBody, &redo); err != nil {
		return fmt.Errorf("resubmit after cancel: %w", err)
	}
	if redo.Job.Status != "done" {
		return fmt.Errorf("resubmission status %q (%s)", redo.Job.Status, redo.Job.Error)
	}
	if redo.Job.Progress.CacheMisses == 0 {
		return fmt.Errorf("resubmission after cancel simulated nothing: %+v", redo.Job.Progress)
	}
	fmt.Printf("servesmoke: resubmit after cancel: %d simulated, %d hits\n",
		redo.Job.Progress.CacheMisses, redo.Job.Progress.CacheHits)
	return nil
}

// post sends a JSON body and decodes the JSON response into out.
func post(url, body string, out any) error {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	return daemon.Decode(resp, out, 200, 202)
}

// del issues a DELETE and decodes the JSON response into out.
func del(url string, out any) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	return daemon.Decode(resp, out, 200)
}
