// Package experiment regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each runner
// returns text tables whose rows/series correspond one-to-one with the
// paper's plots; EXPERIMENTS.md records the paper-versus-measured
// comparison.
package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/workload"
)

// Suite holds the shared experiment parameters, the MLP-group
// classification every group figure reuses, and the engine every
// figure's simulations run on.
type Suite struct {
	// Scale shrinks workload working sets (1.0 = full size).
	Scale float64
	// WarmInsts / DetailInsts per run (the paper: 250 M warm, 10 M
	// detailed per simulation point; scale to your compute budget).
	WarmInsts   uint64
	DetailInsts uint64
	// WarmMode selects fast functional or detailed pipeline warming
	// (default ltp.WarmFast; the campaign's wall-clock depends on it).
	WarmMode ltp.WarmMode
	// Backend selects the execution backend for every run ("" or
	// ltp.BackendCycle = the reference pipeline; ltp.BackendSampled =
	// checkpointed interval sampling, measured-fidelity at a fraction
	// of the wall-clock; ltp.BackendModel = fast first-order estimates
	// for quick sensitivity passes — oracle-based experiments require
	// the cycle backend).
	Backend string
	// Intervals is the sampled backend's measured interval count K
	// (0 = ltp.DefaultSampledIntervals; ignored by other backends).
	Intervals int
	// Parallelism bounds concurrent simulations (0 = NumCPU). It sizes
	// the suite's engine when the first figure runs.
	Parallelism int
	// Quiet suppresses progress output.
	Quiet bool

	mu     sync.Mutex
	groups *Groups
	eng    *ltp.Engine
}

// NewSuite returns a Suite with the given budgets.
func NewSuite(scale float64, warm, detail uint64) *Suite {
	return &Suite{Scale: scale, WarmInsts: warm, DetailInsts: detail}
}

// DefaultSuite is sized for a full experiment campaign on a laptop.
func DefaultSuite() *Suite { return NewSuite(1.0, 100_000, 300_000) }

// QuickSuite is sized for tests and benches.
func QuickSuite() *Suite {
	s := NewSuite(0.1, 20_000, 60_000)
	s.Quiet = true
	return s
}

func (s *Suite) logf(format string, args ...interface{}) {
	if !s.Quiet {
		fmt.Printf(format+"\n", args...)
	}
}

// limitConfig is the limit-study core (§4): Table 1 widths/ROB, unlimited
// MSHRs, late LQ/SQ allocation for parked memory operations, and the four
// scaled resources.
func limitConfig(iq, rf, lq, sq int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.IQSize, cfg.IntRegs, cfg.FPRegs = iq, rf, rf
	cfg.LQSize, cfg.SQSize = lq, sq
	cfg.Hier.L1DMSHRs = 0
	cfg.Hier.L2MSHRs = 0
	cfg.LateLSQAlloc = true
	return cfg
}

// realisticConfig is the implementation-study core (§5): Table 1 MSHRs,
// LQ/SQ allocated at dispatch.
func realisticConfig(iq, rf int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.IQSize, cfg.IntRegs, cfg.FPRegs = iq, rf, rf
	return cfg
}

// engine returns the suite's engine, starting it on first use. Its
// content-addressed cache is what lets figures share cells (every
// group figure's IQ:64/RF:128 baseline simulates once).
func (s *Suite) engine() *ltp.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng == nil {
		e, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: s.Parallelism})
		if err != nil {
			panic(err) // unreachable: only a store path can fail NewEngine
		}
		s.eng = e
	}
	return s.eng
}

// Close stops the suite's engine, if a figure started one. A figure
// run after Close starts a fresh engine with an empty result cache.
func (s *Suite) Close() {
	s.mu.Lock()
	e := s.eng
	s.eng = nil
	s.mu.Unlock()
	if e != nil {
		e.Close()
	}
}

// cell is one simulation of a figure: what the figures vary on top of
// the suite's budgets.
type cell struct {
	wl     string
	pcfg   pipeline.Config
	useLTP bool
	lcfg   core.Config
}

// base is the spec every figure cell starts from: the suite's budgets
// and backend.
func (s *Suite) base() ltp.RunSpec {
	return ltp.RunSpec{
		Scale:     s.Scale,
		WarmInsts: s.WarmInsts,
		WarmMode:  s.WarmMode,
		MaxInsts:  s.DetailInsts,
		Backend:   s.Backend,
		Intervals: s.Intervals,
	}
}

// run simulates cells as one sweep on the suite's engine — one axis,
// one point per distinct simulation — and returns their results in
// order. oracle gives the LTP cells the limit study's perfect
// classification (the no-LTP cells canonicalize it away). Cells that
// are the same simulation become one point, since a sweep may not
// enumerate a simulation twice.
func (s *Suite) run(oracle bool, cells []cell) []ltp.RunResult {
	base := s.base()
	base.Oracle = oracle
	axis := ltp.SweepAxis{Name: "cell"}
	point := make([]int, len(cells)) // cell -> axis point
	byHash := make(map[string]int, len(cells))
	for i, c := range cells {
		spec := base
		spec.Workload, spec.Pipeline, spec.UseLTP = c.wl, &c.pcfg, c.useLTP
		if c.useLTP {
			spec.LTP = &c.lcfg
		}
		h, err := spec.Hash()
		if err != nil {
			panic(fmt.Sprintf("experiment: %v", err))
		}
		p, ok := byHash[h]
		if !ok {
			p = len(axis.Points)
			byHash[h] = p
			axis.Points = append(axis.Points, ltp.SweepPoint{
				Name:  strconv.Itoa(p),
				Patch: ltp.RunPatch{Workload: &c.wl, Pipeline: spec.Pipeline, UseLTP: &c.useLTP, LTP: spec.LTP},
			})
		}
		point[i] = p
	}
	res := s.sweep(ltp.SweepSpec{Base: base, Axes: []ltp.SweepAxis{axis}})
	out := make([]ltp.RunResult, len(cells))
	for i, p := range point {
		out[i] = res[p]
	}
	return out
}

// sweep runs a sweep on the suite's engine and returns every run's
// result by enumeration index. A failed run panics: the figure runners
// have no error path.
func (s *Suite) sweep(spec ltp.SweepSpec) []ltp.RunResult {
	job, err := s.engine().Submit(context.Background(), spec)
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	res := make([]ltp.RunResult, job.TotalRuns())
	for c := range job.Cells() {
		if c.Err != nil {
			panic(fmt.Sprintf("experiment: cell %v: %v", c.Coords, c.Err))
		}
		res[c.Index] = c.Result
	}
	if _, err := job.Wait(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	return res
}

// Groups is the §4.1 MLP-sensitivity split of the workload suite.
type Groups struct {
	Sensitive   []string
	Insensitive []string
	// Detail holds the classification inputs per workload.
	Detail map[string]GroupDetail
}

// GroupDetail records the classification criteria values.
type GroupDetail struct {
	SpeedupPct float64 // IQ 32 -> 256 speedup
	MLPGainPct float64 // outstanding-requests growth
	AvgLoadLat float64
	Sensitive  bool
}

// Classify applies the paper's §4.1 criteria to every workload: with
// infinite RF/LQ/SQ/MSHRs and the prefetcher on, a point is MLP-sensitive
// when the 32→256 IQ speedup exceeds 5%, outstanding requests grow by more
// than 10%, and the average memory latency exceeds the L2 latency.
func (s *Suite) Classify() *Groups {
	s.mu.Lock()
	if s.groups != nil {
		g := s.groups
		s.mu.Unlock()
		return g
	}
	s.mu.Unlock()

	names := workload.Names()
	cells := make([]cell, 0, 2*len(names))
	for _, n := range names {
		cells = append(cells,
			cell{wl: n, pcfg: limitConfig(32, pipeline.Inf, pipeline.Inf, pipeline.Inf)},
			cell{wl: n, pcfg: limitConfig(256, pipeline.Inf, pipeline.Inf, pipeline.Inf)})
	}
	res := s.run(false, cells)

	g := &Groups{Detail: make(map[string]GroupDetail)}
	l2lat := float64(pipeline.DefaultConfig().Hier.L2Latency)
	for i, n := range names {
		r32, r256 := res[2*i], res[2*i+1]
		d := GroupDetail{
			SpeedupPct: (float64(r32.Cycles)/float64(r256.Cycles) - 1) * 100,
			AvgLoadLat: r32.AvgLoadLatency,
		}
		if r32.MLP > 0 {
			d.MLPGainPct = (r256.MLP/r32.MLP - 1) * 100
		} else if r256.MLP > 0 {
			d.MLPGainPct = 100
		}
		d.Sensitive = d.SpeedupPct > 5 && d.MLPGainPct > 10 && d.AvgLoadLat > l2lat
		g.Detail[n] = d
		if d.Sensitive {
			g.Sensitive = append(g.Sensitive, n)
		} else {
			g.Insensitive = append(g.Insensitive, n)
		}
	}
	sort.Strings(g.Sensitive)
	sort.Strings(g.Insensitive)

	s.mu.Lock()
	s.groups = g
	s.mu.Unlock()
	s.logf("groups: sensitive=%v insensitive=%v", g.Sensitive, g.Insensitive)
	return g
}

// geomeanRatio returns the geometric mean of a/b pairs (used for group
// averages of normalized performance).
func geomeanRatio(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 1
	}
	sum := 0.0
	for _, r := range ratios {
		if r <= 0 {
			r = 1e-9
		}
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Table is a printable result table.
type Table struct {
	Title string
	Cols  []string
	Rows  []RowData
	Notes []string
}

// RowData is one labelled row of float cells.
type RowData struct {
	Label string
	Cells []float64
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	fmt.Fprintf(&b, "%-26s", "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-26s", r.Label)
		for _, v := range r.Cells {
			switch {
			case math.IsInf(v, 0) || math.IsNaN(v):
				fmt.Fprintf(&b, "%14s", "-")
			case math.Abs(v) >= 1000:
				fmt.Fprintf(&b, "%14.0f", v)
			default:
				fmt.Fprintf(&b, "%14.2f", v)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// sizeLabel renders a swept structure size, using ∞ for Inf.
func sizeLabel(v int) string {
	if v >= pipeline.Inf {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}
