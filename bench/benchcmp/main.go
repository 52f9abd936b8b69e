// Command benchcmp compares two sets of ltpbench runs. Given two
// directories of bench-results.json files (one file per run, the same
// benchmark code and settings on both sides, runs alternated between
// the sides), it prints each side's median and quartiles for every
// (metric, workload) pair and a verdict:
//
//	benchcmp old/ new/
//
// The verdict is "better" when the new side wins at least nine in ten
// of the run pairs (the i-th file of each side, by name; ties count for
// neither) and the medians differ by more than the old side's
// interquartile range. It is "worse" when the new median is worse than
// the old one by more than the metric's bound: the larger of its
// relative bound times the old median and its absolute bound.
// Per-layer metrics have no bound and are worse by the mirror of the
// better rule. It is "unresolved" when either side's interquartile
// range is wider than the bound and not every new run reads better than
// every old run, and "unchanged" otherwise.
//
// The bounds come from the result files, which carry ltpbench's metric
// dictionary (the one BENCHMARK.json lists for the gated metrics). The
// exit status is 1 when any pair is worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ltp/bench/internal/benchstat"
)

// resultsFile is the part of bench-results.json the comparison reads.
type resultsFile struct {
	Schema    string `json:"schema"`
	Workloads []struct {
		Name    string `json:"name"`
		Metrics []struct {
			Name     string  `json:"name"`
			Unit     string  `json:"unit"`
			Better   string  `json:"better"`
			Bound    float64 `json:"bound"`
			AbsBound float64 `json:"abs_bound"`
			Layer    bool    `json:"layer"`
			Value    float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

const schema = "ltpbench/1"

// series is one (metric, workload) pair across a side's runs: one value
// per file, NaN where a run did not report it.
type series struct {
	metric, workload string
	unit, better     string
	bound, absBound  float64
	layer            bool
	old, new         []float64
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcmp <old-dir> <new-dir>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	all, err := load(flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if report(os.Stdout, all) {
		os.Exit(1)
	}
}

// load reads both sides' result files into series, in first-seen order.
func load(oldDir, newDir string) ([]*series, error) {
	var order []*series
	index := map[[2]string]*series{}
	for side, dir := range []string{oldDir, newDir} {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no result files in %s", dir)
		}
		sort.Strings(files)
		for i, path := range files {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			var f resultsFile
			if err := json.Unmarshal(b, &f); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if f.Schema != schema {
				return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
			}
			for _, w := range f.Workloads {
				for _, m := range w.Metrics {
					k := [2]string{m.Name, w.Name}
					s := index[k]
					if s == nil {
						s = &series{
							metric: m.Name, workload: w.Name, unit: m.Unit, better: m.Better,
							bound: m.Bound, absBound: m.AbsBound, layer: m.Layer,
						}
						index[k] = s
						order = append(order, s)
					}
					vals := &s.old
					if side == 1 {
						vals = &s.new
					}
					for len(*vals) <= i {
						*vals = append(*vals, math.NaN())
					}
					(*vals)[i] = m.Value
				}
			}
		}
	}
	return order, nil
}

// present drops the runs that did not report the metric.
func present(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// report prints one line per (metric, workload) and says whether any
// is worse.
func report(w io.Writer, all []*series) (anyWorse bool) {
	fmt.Fprintf(w, "%-28s %-11s %-32s %-32s %8s  %s\n", "metric", "workload", "old median [q1, q3]", "new median [q1, q3]", "delta", "verdict")
	for _, s := range all {
		old, cur := present(s.old), present(s.new)
		if len(old) == 0 || len(cur) == 0 {
			fmt.Fprintf(w, "%-28s %-11s only on one side\n", s.metric, s.workload)
			continue
		}
		v := verdict(s)
		anyWorse = anyWorse || v == "worse"
		om, nm := benchstat.Median(old), benchstat.Median(cur)
		delta := "-"
		if om != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(nm-om)/math.Abs(om))
		}
		fmt.Fprintf(w, "%-28s %-11s %-32s %-32s %8s  %s\n", s.metric, s.workload, spread(old, s.unit), spread(cur, s.unit), delta, v)
	}
	return anyWorse
}

func spread(xs []float64, unit string) string {
	q1, q2, q3 := benchstat.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", q2, q1, q3, unit)
}

// verdict classifies the new side against the old one.
func verdict(s *series) string {
	old, cur := present(s.old), present(s.new)
	sign := 1.0 // positive differences are worse
	if s.better == "higher" {
		sign = -1
	}
	om, nm := benchstat.Median(old), benchstat.Median(cur)
	worsening := sign * (nm - om)
	oq1, _, oq3 := benchstat.Quartiles(old)
	nq1, _, nq3 := benchstat.Quartiles(cur)
	oiqr, niqr := oq3-oq1, nq3-nq1

	wins, losses, pairs := 0, 0, 0
	for i := 0; i < len(s.old) && i < len(s.new); i++ {
		if math.IsNaN(s.old[i]) || math.IsNaN(s.new[i]) {
			continue
		}
		pairs++
		switch d := sign * (s.new[i] - s.old[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	beyondNoise := math.Abs(nm-om) > oiqr
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && beyondNoise && worsening < 0:
		return "better"
	case s.layer:
		if pairs > 0 && 10*losses >= 9*pairs && beyondNoise && worsening > 0 {
			return "worse"
		}
		return "unchanged"
	}
	allow := math.Max(s.bound*math.Abs(om), s.absBound)
	switch {
	case worsening > allow:
		return "worse"
	case math.Max(oiqr, niqr) > allow && !allBetter(old, cur, sign):
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every new run reads better than every old
// run.
func allBetter(old, cur []float64, sign float64) bool {
	worstNew, bestOld := math.Inf(-1), math.Inf(1)
	for _, v := range cur {
		worstNew = math.Max(worstNew, sign*v)
	}
	for _, v := range old {
		bestOld = math.Min(bestOld, sign*v)
	}
	return worstNew < bestOld
}
