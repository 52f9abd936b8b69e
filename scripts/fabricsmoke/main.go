// Command fabricsmoke is the end-to-end fabric smoke test behind
// `make smoke-fabric`: it builds cmd/ltpserved, boots three worker
// processes and one coordinator fronting them, and runs two campaigns.
// The first is one warm batch group wider than a worker (the shape of
// a sizing sweep over one warm prefix); it must complete, and its wall
// time is printed. The second is submitted on the NDJSON stream, and
// the smoke SIGKILLs one worker while its cells
// are mid-flight, and fails unless the campaign still completes with
// every enumerated cell delivered exactly once — the process-level
// proof of the retry-and-re-dispatch story the in-process chaos tests
// (internal/fabric) pin deterministically. It then asserts the
// coordinator's health view noticed the corpse and that the same
// campaign submitted directly to a surviving worker agrees on the
// content address. Only the Go toolchain is required.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ltp/scripts/internal/daemon"
)

// sweepBody is the campaign: 16 cells × 2 seed replicates = 32 runs,
// sized so the fleet is still mid-campaign when the kill lands.
const sweepBody = `{
 "base": {"scenario":"branchy","scale":0.05,"max_insts":10000},
 "axes": [
  {"name":"iq","points":[{"name":"iq16","patch":{"iq_size":16}},{"name":"iq32","patch":{"iq_size":32}},
                         {"name":"iq48","patch":{"iq_size":48}},{"name":"iq64","patch":{"iq_size":64}}]},
  {"name":"rob","points":[{"name":"rob96","patch":{"rob_size":96}},{"name":"rob128","patch":{"rob_size":128}},
                          {"name":"rob160","patch":{"rob_size":160}},{"name":"rob192","patch":{"rob_size":192}}]},
  {"name":"seed","replicate":true,"points":[{"name":"s1","patch":{"seed":1}},{"name":"s2","patch":{"seed":2}}]}
 ]
}`

// groupBody is the grouped campaign: 12 cycle cells of one kernel
// over one warm region — a single batch group, six times as wide as a
// worker's -parallel 2.
const groupBody = `{
 "base": {"workload":"hashprobe","scale":0.2,"warm_insts":1000000,"max_insts":50000},
 "axes": [
  {"name":"iq","points":[{"name":"iq16","patch":{"iq_size":16}},{"name":"iq32","patch":{"iq_size":32}},
                         {"name":"iq64","patch":{"iq_size":64}}]},
  {"name":"rob","points":[{"name":"rob96","patch":{"rob_size":96}},{"name":"rob128","patch":{"rob_size":128}},
                          {"name":"rob160","patch":{"rob_size":160}},{"name":"rob192","patch":{"rob_size":192}}]}
 ]
}`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fabricsmoke: FAIL:", err)
		daemon.DumpStderr()
		os.Exit(1)
	}
	fmt.Println("fabricsmoke: PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "ltpfabric-smoke")
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

	// Three workers...
	var workers []*daemon.Daemon
	var urls []string
	for i := 0; i < 3; i++ {
		w, err := daemon.Boot(bin, fmt.Sprintf("worker%d", i), "-addr", "127.0.0.1:0", "-q", "-parallel", "2")
		if err != nil {
			return err
		}
		defer w.Kill()
		workers = append(workers, w)
		urls = append(urls, w.Base)
	}
	// ...and the coordinator fronting them, tuned to notice faults fast.
	coord, err := daemon.Boot(bin, "coordinator",
		"-coordinator", "-workers", strings.Join(urls, ","),
		"-addr", "127.0.0.1:0", "-retries", "5", "-poll", "300ms")
	if err != nil {
		return err
	}
	defer coord.Kill()
	fmt.Printf("fabricsmoke: coordinator at %s fronting %d workers\n", coord.Base, len(workers))
	if err := runGroup(coord.Base); err != nil {
		return err
	}

	start := time.Now()
	resp, err := http.Post(coord.Base+"/v1/sweep?stream=1", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		return fmt.Errorf("submitting sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return fmt.Errorf("sweep submit status %d; body: %s", resp.StatusCode, bytes.TrimSpace(body))
	}

	// Read the cell stream; at the third cell — campaign demonstrably
	// mid-flight — SIGKILL worker 0 outright.
	type cellView struct {
		Index int    `json:"index"`
		Phase string `json:"phase"`
		Hash  string `json:"hash"`
		Error string `json:"error"`
	}
	type event struct {
		Type string    `json:"type"`
		Cell *cellView `json:"cell"`
		Job  *struct {
			Status   string `json:"status"`
			Hash     string `json:"hash"`
			Progress struct {
				TotalRuns    int `json:"total_runs"`
				DoneRuns     int `json:"done_runs"`
				CanceledRuns int `json:"canceled_runs"`
			} `json:"progress"`
		} `json:"job"`
		Error string `json:"error"`
	}
	seen := make(map[string]bool)
	cells, killed := 0, false
	var last event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Type != "cell" {
			last = ev
			continue
		}
		cells++
		if ev.Cell.Error != "" {
			return fmt.Errorf("cell %d failed: %s", ev.Cell.Index, ev.Cell.Error)
		}
		key := fmt.Sprintf("%d/%s", ev.Cell.Index, ev.Cell.Phase)
		if seen[key] {
			return fmt.Errorf("cell %s delivered twice", key)
		}
		seen[key] = true
		if cells == 3 && !killed {
			killed = true
			fmt.Println("fabricsmoke: SIGKILLing worker0 mid-campaign")
			workers[0].Kill()
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stream: %w", err)
	}
	if !killed {
		return fmt.Errorf("stream ended after %d cells without reaching the kill point", cells)
	}
	if last.Type != "result" {
		return fmt.Errorf("campaign did not survive the worker loss: final event %q (%s)", last.Type, last.Error)
	}
	p := last.Job.Progress
	if cells != p.TotalRuns || p.DoneRuns != p.TotalRuns || p.CanceledRuns != 0 {
		return fmt.Errorf("campaign incomplete after recovery: %d cells streamed, progress %+v", cells, p)
	}
	wall := time.Since(start)
	fmt.Printf("fabricsmoke: campaign of %d runs survived the kill in %.3fs (every cell exactly once)\n",
		p.TotalRuns, wall.Seconds())

	// The poll loop must have noticed the corpse.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var health struct {
			Workers        int `json:"workers"`
			HealthyWorkers int `json:"healthy_workers"`
		}
		if err := daemon.Get(coord.Base+"/healthz", &health); err != nil {
			return fmt.Errorf("healthz: %w", err)
		}
		if health.Workers == 3 && health.HealthyWorkers == 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator never noticed the dead worker: %+v", health)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Equivalence: a surviving worker, asked directly, must agree on the
	// campaign's content address.
	var direct struct {
		Job struct {
			Hash   string `json:"hash"`
			Status string `json:"status"`
		} `json:"job"`
	}
	dresp, err := http.Post(workers[1].Base+"/v1/sweep?wait=1", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		return fmt.Errorf("direct sweep: %w", err)
	}
	defer dresp.Body.Close()
	if err := json.NewDecoder(dresp.Body).Decode(&direct); err != nil {
		return fmt.Errorf("decoding direct sweep: %w", err)
	}
	if direct.Job.Status != "done" || direct.Job.Hash != last.Job.Hash {
		return fmt.Errorf("direct submission disagrees: status %q, hash %s vs %s",
			direct.Job.Status, direct.Job.Hash, last.Job.Hash)
	}
	fmt.Printf("fabricsmoke: fleet and single-node agree on %s\n", last.Job.Hash)
	return nil
}

// runGroup runs the grouped campaign through the coordinator, once
// every worker has reported its parallelism, and prints its wall time.
func runGroup(base string) error {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var roster struct {
			Workers []struct {
				Parallelism int `json:"parallelism"`
			} `json:"workers"`
		}
		if err := daemon.Get(base+"/v1/workers", &roster); err != nil {
			return fmt.Errorf("workers: %w", err)
		}
		reported := 0
		for _, w := range roster.Workers {
			if w.Parallelism > 0 {
				reported++
			}
		}
		if reported == 3 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of 3 workers reported their parallelism", reported)
		}
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/sweep?wait=1", "application/json", strings.NewReader(groupBody))
	if err != nil {
		return fmt.Errorf("submitting grouped sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return fmt.Errorf("grouped sweep status %d; body: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		Job struct {
			Status   string `json:"status"`
			Error    string `json:"error"`
			Progress struct {
				TotalRuns int `json:"total_runs"`
				DoneRuns  int `json:"done_runs"`
			} `json:"progress"`
		} `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decoding grouped sweep: %w", err)
	}
	if p := out.Job.Progress; out.Job.Status != "done" || p.DoneRuns != p.TotalRuns || p.TotalRuns != 12 {
		return fmt.Errorf("grouped campaign %q (%s): progress %+v", out.Job.Status, out.Job.Error, p)
	}
	fmt.Printf("fabricsmoke: grouped campaign of 12 runs (one warm group) in %.3fs\n", time.Since(start).Seconds())
	return nil
}
