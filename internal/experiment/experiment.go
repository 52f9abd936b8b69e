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
	"strings"
	"sync"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
	"ltp/internal/sched"
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
// the suite's budgets. It is comparable, so a runner reads each result
// back by the cell value it listed, built by the same constructor.
type cell struct {
	wl       string // kernel name ("" = scenario)
	scenario string // scenario family, when wl is empty
	pcfg     pipeline.Config
	useLTP   bool
	lcfg     core.Config
	corunner string // co-running scenario family ("" = solo)
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

// run simulates cells as one batch on the suite's engine at the
// campaign tier and returns each cell's result keyed by the cell.
// oracle gives the LTP cells the limit study's perfect classification
// (the no-LTP cells canonicalize it away). A cell listed twice
// simulates once: the engine joins the repeat to the first. A failed
// cell panics with a *CellError: the figure runners have no error path.
func (s *Suite) run(oracle bool, cells []cell) map[cell]ltp.RunResult {
	specs := make([]ltp.RunSpec, len(cells))
	for i, c := range cells {
		spec := s.base()
		spec.Workload, spec.Scenario, spec.Pipeline = c.wl, c.scenario, &c.pcfg
		spec.UseLTP, spec.LTP, spec.Oracle = c.useLTP, &c.lcfg, oracle
		if c.corunner != "" {
			spec.Corunners = []ltp.Corunner{{Scenario: c.corunner}}
		}
		specs[i] = spec
	}
	res, _, _, errs := s.engine().RunBatchCached(context.Background(), sched.TierCampaign, specs)
	out := make(map[cell]ltp.RunResult, len(cells))
	for i, c := range cells {
		if errs[i] != nil {
			name := c.wl
			if name == "" {
				name = c.scenario
			}
			panic(&CellError{Cell: name, Err: errs[i]})
		}
		out[c] = res[i]
	}
	return out
}

// CellError is the panic value of a figure runner whose cell failed.
type CellError struct {
	Cell string // the cell's kernel or scenario
	Err  error  // the engine's refusal or the run's failure
}

func (e *CellError) Error() string { return "experiment: cell " + e.Cell + ": " + e.Err.Error() }

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
	at := func(wl string, iq int) cell {
		return cell{wl: wl, pcfg: limitConfig(iq, pipeline.Inf, pipeline.Inf, pipeline.Inf)}
	}
	cells := make([]cell, 0, 2*len(names))
	for _, n := range names {
		cells = append(cells, at(n, 32), at(n, 256))
	}
	res := s.run(false, cells)

	g := &Groups{Detail: make(map[string]GroupDetail)}
	l2lat := float64(pipeline.DefaultConfig().Hier.L2Latency)
	for _, n := range names {
		r32, r256 := res[at(n, 32)], res[at(n, 256)]
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
