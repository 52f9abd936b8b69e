package experiment

import (
	"fmt"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/energy"
	"ltp/internal/pipeline"
)

// Table1 renders the baseline configuration (the paper's Table 1).
func Table1() string {
	cfg := pipeline.DefaultConfig()
	h := cfg.Hier
	return fmt.Sprintf(`## Table 1: Baseline processor configuration
Frequency                  3.4 GHz (cycle-accurate; absolute time not modelled)
Width F/D/R/I/W/C          %d / %d / %d / %d / %d / %d
ROB / IQ / LQ / SQ         %d / %d / %d / %d
Int / FP registers         %d / %d (available, beyond architectural)
L1I / L1D                  %d kB, 64 B, %d-way, LRU, %d cycles
L2 unified                 %d kB, 64 B, %d-way, LRU, %d cycles + stride prefetcher degree %d
L3 shared                  %d MB, 64 B, %d-way, LRU, %d cycles
DRAM                       %d cycles (DDR3-1600 11-11-11 class)
LTP proposal               IQ 32, RF 96, 128-entry 4-port queue LTP, 256-entry UIT
`,
		cfg.FetchWidth, cfg.DecodeWidth, cfg.RenameWidth, cfg.IssueWidth, cfg.CommitWidth, cfg.CommitWidth,
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize,
		cfg.IntRegs, cfg.FPRegs,
		h.L1ISize>>10, h.L1IWays, h.L1Latency,
		h.L2Size>>10, h.L2Ways, h.L2Latency, h.PrefetchDegree,
		h.L3Size>>20, h.L3Ways, h.L3Latency,
		h.DRAMLatency)
}

// ltpLimitCfg is the limit study's ideal LTP: oracle classification,
// unlimited entries and ports.
func ltpLimitCfg(mode core.Mode) core.Config {
	return core.Config{Mode: mode, Entries: 0, Ports: 0, Tickets: 128,
		UITEntries: 0, UITWays: 4}
}

// Fig1 reproduces Figure 1: CPI (a) and average outstanding memory
// requests (b) for IQ:32, IQ:32+LTP, IQ:256 on the MLP-sensitive and
// -insensitive groups, and average resources in use at IQ:256 (c). All
// other resources are unlimited; the prefetcher is on.
func (s *Suite) Fig1() []*Table {
	g := s.Classify()

	type cfg struct {
		name   string
		iq     int
		useLTP bool
	}
	cfgs := []cfg{{"IQ:32", 32, false}, {"IQ:32+LTP", 32, true}, {"IQ:256", 256, false}}

	wls := append(append([]string{}, g.Sensitive...), g.Insensitive...)
	at := func(c cfg, wl string) cell {
		return cell{wl: wl, pcfg: limitConfig(c.iq, pipeline.Inf, pipeline.Inf, pipeline.Inf),
			useLTP: c.useLTP, lcfg: ltpLimitCfg(core.ModeNRNU)}
	}
	var cells []cell
	for _, c := range cfgs {
		for _, wl := range wls {
			cells = append(cells, at(c, wl))
		}
	}
	res := s.run(true, cells)

	// vals gathers one metric over a group's workloads under c.
	vals := func(c cfg, group []string, get func(ltp.RunResult) float64) []float64 {
		var out []float64
		for _, wl := range group {
			out = append(out, get(res[at(c, wl)]))
		}
		return out
	}
	cpiOf := func(r ltp.RunResult) float64 { return r.CPI }
	mlpOf := func(r ltp.RunResult) float64 { return r.MLP }

	cpi := &Table{Title: "Figure 1a: CPI (geomean)", Cols: []string{"MLP", "NMLP"}}
	out := &Table{Title: "Figure 1b: avg outstanding requests", Cols: []string{"MLP", "NMLP"}}
	for _, c := range cfgs {
		// CPI uses the geometric mean so a single pathological kernel
		// (pure pointer chasing) does not drown the group.
		cpi.Rows = append(cpi.Rows, RowData{Label: c.name, Cells: []float64{
			geomeanRatio(vals(c, g.Sensitive, cpiOf)),
			geomeanRatio(vals(c, g.Insensitive, cpiOf)),
		}})
		out.Rows = append(out.Rows, RowData{Label: c.name, Cells: []float64{
			mean(vals(c, g.Sensitive, mlpOf)),
			mean(vals(c, g.Insensitive, mlpOf)),
		}})
	}

	use := &Table{Title: "Figure 1c: avg resources in use per cycle (IQ:256)",
		Cols: []string{"MLP", "NMLP"}}
	for _, m := range []struct {
		name string
		get  func(ltp.RunResult) float64
	}{
		{"RF (int+fp)", func(r ltp.RunResult) float64 { return r.AvgIntRF + r.AvgFPRF }},
		{"IQ", func(r ltp.RunResult) float64 { return r.AvgIQ }},
		{"LQ", func(r ltp.RunResult) float64 { return r.AvgLQ }},
		{"SQ", func(r ltp.RunResult) float64 { return r.AvgSQ }},
	} {
		use.Rows = append(use.Rows, RowData{Label: m.name, Cells: []float64{
			mean(vals(cfgs[2], g.Sensitive, m.get)),
			mean(vals(cfgs[2], g.Insensitive, m.get)),
		}})
	}
	return []*Table{cpi, out, use}
}

// Fig3 reproduces the Figure 3 scenario quantitatively: on the paper's own
// example loop (the `indirect` kernel) with a tiny 8-entry IQ, LTP keeps
// Non-Ready instructions out of the IQ, raising MLP.
func (s *Suite) Fig3() *Table {
	pc := limitConfig(8, pipeline.Inf, pipeline.Inf, pipeline.Inf)
	plain := cell{wl: "indirect", pcfg: pc}
	parked := cell{wl: "indirect", pcfg: pc, useLTP: true, lcfg: ltpLimitCfg(core.ModeNRNU)}
	res := s.run(true, []cell{plain, parked})
	t := &Table{Title: "Figure 3: tiny-IQ behaviour on the example loop (indirect)",
		Cols: []string{"CPI", "MLP", "avgIQ"}}
	row := func(label string, c cell) RowData {
		return RowData{Label: label, Cells: []float64{res[c].CPI, res[c].MLP, res[c].AvgIQ}}
	}
	t.Rows = append(t.Rows, row("traditional IQ(8)", plain), row("IQ(8)+LTP", parked))
	t.Notes = append(t.Notes,
		"the paper's Fig. 3 is a worked example: with LTP the IQ holds ready work instead of stalled NR instructions")
	return t
}

// fig6Panels returns the four panels of Figure 6: the two featured
// checkpoints (astar-like, milc-like) and the two group averages.
func (s *Suite) fig6Panels() []struct {
	Name string
	Wls  []string
} {
	g := s.Classify()
	return []struct {
		Name string
		Wls  []string
	}{
		{"chains(astar-like)", []string{"chains"}},
		{"fpstream(milc-like)", []string{"fpstream"}},
		{"mlp-sensitive", g.Sensitive},
		{"mlp-insensitive", g.Insensitive},
	}
}

// fig6Row describes one resource sweep of Figure 6.
type fig6Row struct {
	Name     string
	Sizes    []int
	BaseSize int
	Cfg      func(size int) pipeline.Config
}

func fig6Rows() []fig6Row {
	inf := pipeline.Inf
	return []fig6Row{
		{"IQ", []int{inf, 128, 64, 32, 16}, 64,
			func(n int) pipeline.Config { return limitConfig(n, inf, inf, inf) }},
		{"RF", []int{inf, 128, 96, 64, 32}, 128,
			func(n int) pipeline.Config { return limitConfig(inf, n, inf, inf) }},
		{"LQ", []int{inf, 64, 32, 16, 8}, 64,
			func(n int) pipeline.Config { return limitConfig(inf, inf, n, inf) }},
		{"SQ", []int{inf, 64, 32, 16, 8}, 32,
			func(n int) pipeline.Config { return limitConfig(inf, inf, inf, n) }},
	}
}

// fig6Configs are the four lines of each Figure 6 plot.
var fig6Configs = []struct {
	Name string
	LTP  bool
	Mode core.Mode
}{
	{"NoLTP", false, core.ModeOff},
	{"LTP(NR)", true, core.ModeNR},
	{"LTP(NU)", true, core.ModeNU},
	{"LTP(NR+NU)", true, core.ModeNRNU},
}

// Fig6 runs the limit study: for each resource (IQ, RF, LQ, SQ), sweep its
// size with everything else unlimited, for the four parking configurations
// with oracle classification and an unlimited LTP. Values are percent
// performance versus the no-LTP run at the baseline (underlined) size,
// exactly as the paper normalizes. All four rows run as one batch.
func (s *Suite) Fig6() []*Table {
	panels := s.fig6Panels()
	rows := fig6Rows()
	at := func(row fig6Row, size, ci int, wl string) cell {
		c := fig6Configs[ci]
		return cell{wl: wl, pcfg: row.Cfg(size), useLTP: c.LTP, lcfg: ltpLimitCfg(c.Mode)}
	}
	var cells []cell
	for _, row := range rows {
		for _, panel := range panels {
			for ci := range fig6Configs {
				for _, size := range row.Sizes {
					for _, wl := range panel.Wls {
						cells = append(cells, at(row, size, ci, wl))
					}
				}
			}
		}
	}
	res := s.run(true, cells)

	var tables []*Table
	for _, row := range rows {
		for _, panel := range panels {
			t := &Table{
				Title: fmt.Sprintf("Figure 6 [%s sweep, panel %s]: perf %% vs NoLTP %s:%d",
					row.Name, panel.Name, row.Name, row.BaseSize),
			}
			for _, size := range row.Sizes {
				t.Cols = append(t.Cols, row.Name+":"+sizeLabel(size))
			}
			for ci, c := range fig6Configs {
				r := RowData{Label: c.Name}
				for _, size := range row.Sizes {
					ratios := make([]float64, len(panel.Wls))
					for wi, wl := range panel.Wls {
						// Baseline: NoLTP at the underlined size.
						ratios[wi] = float64(res[at(row, row.BaseSize, 0, wl)].Cycles) /
							float64(res[at(row, size, ci, wl)].Cycles)
					}
					r.Cells = append(r.Cells, (geomeanRatio(ratios)-1)*100)
				}
				t.Rows = append(t.Rows, r)
			}
			s.logf("fig6: %s / %s done", row.Name, panel.Name)
			tables = append(tables, t)
		}
	}
	return tables
}

// Fig7 reports average LTP occupancy by resource type and the enabled
// fraction, for the NR / NU / NR+NU designs on an IQ:32 / RF:96 core.
func (s *Suite) Fig7() []*Table {
	panels := s.fig6Panels()
	modes := []core.Mode{core.ModeNR, core.ModeNU, core.ModeNRNU}

	at := func(m core.Mode, wl string) cell {
		pc := limitConfig(32, 96, pipeline.DefaultConfig().LQSize, pipeline.DefaultConfig().SQSize)
		return cell{wl: wl, pcfg: pc, useLTP: true, lcfg: ltpLimitCfg(m)}
	}
	var cells []cell
	for _, panel := range panels {
		for _, m := range modes {
			for _, wl := range panel.Wls {
				cells = append(cells, at(m, wl))
			}
		}
	}
	res := s.run(true, cells)

	metrics := []struct {
		name string
		get  func(r ltp.RunResult) float64
	}{
		{"insts in LTP", func(r ltp.RunResult) float64 { return r.LTP.AvgInsts }},
		{"regs in LTP", func(r ltp.RunResult) float64 { return r.LTP.AvgRegs }},
		{"loads in LTP", func(r ltp.RunResult) float64 { return r.LTP.AvgLoads }},
		{"stores in LTP", func(r ltp.RunResult) float64 { return r.LTP.AvgStores }},
		{"enabled %", func(r ltp.RunResult) float64 { return r.LTP.EnabledFrac * 100 }},
	}

	var tables []*Table
	for _, panel := range panels {
		t := &Table{Title: "Figure 7 [" + panel.Name + "]: LTP utilization"}
		for _, m := range modes {
			t.Cols = append(t.Cols, m.String())
		}
		for _, met := range metrics {
			row := RowData{Label: met.name}
			for _, m := range modes {
				var vals []float64
				for _, wl := range panel.Wls {
					vals = append(vals, met.get(res[at(m, wl)]))
				}
				row.Cells = append(row.Cells, mean(vals))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// realisticLTP returns the §5 implementation: NU-only with a finite UIT
// and LL predictor.
func realisticLTP(entries, ports int) core.Config {
	c := core.DefaultConfig()
	c.Entries = entries
	c.Ports = ports
	return c
}

// Fig10 evaluates the realistic design: performance and IQ/RF ED²P versus
// LTP entries {inf,128,64,32,16} and ports {1,2,4,8} for the LTP/IQ:32/
// RF:96 design relative to the IQ:64/RF:128 baseline, with the no-LTP
// IQ:32/RF:96 point as the paper's red line.
func (s *Suite) Fig10() []*Table {
	g := s.Classify()
	panels := []struct {
		Name string
		Wls  []string
	}{
		{"mlp-sensitive", g.Sensitive},
		{"mlp-insensitive", g.Insensitive},
	}
	entriesSweep := []int{0, 128, 64, 32, 16} // 0 = unlimited
	portsSweep := []int{1, 2, 4, 8}
	base := func(wl string) cell { return cell{wl: wl, pcfg: realisticConfig(64, 128)} }
	red := func(wl string) cell { return cell{wl: wl, pcfg: realisticConfig(32, 96)} }
	parked := func(wl string, entries, ports int) cell {
		return cell{wl: wl, pcfg: realisticConfig(32, 96), useLTP: true, lcfg: realisticLTP(entries, ports)}
	}
	var cells []cell
	for _, panel := range panels {
		for _, wl := range panel.Wls {
			cells = append(cells, base(wl), red(wl))
			for _, entries := range entriesSweep {
				for _, ports := range portsSweep {
					cells = append(cells, parked(wl, entries, ports))
				}
			}
		}
	}
	res := s.run(false, cells)

	var tables []*Table
	for _, panel := range panels {
		// pct returns the group's geomean perf and IQ/RF ED²P of the
		// design at(wl), in percent versus the base design.
		pct := func(at func(wl string) cell) (perf, ed2p float64) {
			var perfRatios, ed2pRatios []float64
			for _, wl := range panel.Wls {
				b, r := res[base(wl)], res[at(wl)]
				perfRatios = append(perfRatios, float64(b.Cycles)/float64(r.Cycles))
				ed2pRatios = append(ed2pRatios,
					energy.ED2P(r.Energy.IQRF, r.Cycles)/energy.ED2P(b.Energy.IQRF, b.Cycles))
			}
			return (geomeanRatio(perfRatios) - 1) * 100, (geomeanRatio(ed2pRatios) - 1) * 100
		}

		perf := &Table{Title: "Figure 10 [" + panel.Name + "]: perf % vs base IQ:64/RF:128"}
		ed2p := &Table{Title: "Figure 10 [" + panel.Name + "]: IQ/RF ED2P % vs base IQ:64/RF:128"}
		for _, e := range entriesSweep {
			lbl := "LTP:inf"
			if e > 0 {
				lbl = fmt.Sprintf("LTP:%d", e)
			}
			perf.Cols = append(perf.Cols, lbl)
			ed2p.Cols = append(ed2p.Cols, lbl)
		}
		for _, ports := range portsSweep {
			pr := RowData{Label: fmt.Sprintf("%dp", ports)}
			er := RowData{Label: fmt.Sprintf("%dp", ports)}
			for _, entries := range entriesSweep {
				p, e := pct(func(wl string) cell { return parked(wl, entries, ports) })
				pr.Cells = append(pr.Cells, p)
				er.Cells = append(er.Cells, e)
			}
			perf.Rows = append(perf.Rows, pr)
			ed2p.Rows = append(ed2p.Rows, er)
		}
		// The red line: IQ 32 / RF 96 without LTP.
		p, e := pct(red)
		perf.Rows = append(perf.Rows, RowData{Label: "no-LTP 32/96 (red)", Cells: repeat(p, len(entriesSweep))})
		ed2p.Rows = append(ed2p.Rows, RowData{Label: "no-LTP 32/96 (red)", Cells: repeat(e, len(entriesSweep))})
		tables = append(tables, perf, ed2p)
		s.logf("fig10: %s done", panel.Name)
	}
	return tables
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Fig11 sweeps the number of Non-Ready tickets for the NR+NU realistic
// design (128-entry, 4-port LTP), against the no-LTP 32/96 point (red) and
// the NU-only 128/4 design (green).
func (s *Suite) Fig11() []*Table {
	g := s.Classify()
	panels := []struct {
		Name string
		Wls  []string
	}{
		{"mlp-sensitive", g.Sensitive},
		{"mlp-insensitive", g.Insensitive},
	}
	tickets := []int{128, 64, 32, 16, 8, 4}
	base := func(wl string) cell { return cell{wl: wl, pcfg: realisticConfig(64, 128)} }
	red := func(wl string) cell { return cell{wl: wl, pcfg: realisticConfig(32, 96)} }
	green := func(wl string) cell {
		return cell{wl: wl, pcfg: realisticConfig(32, 96), useLTP: true, lcfg: realisticLTP(128, 4)}
	}
	nrnu := func(wl string, tk int) cell {
		lc := realisticLTP(128, 4)
		lc.Mode = core.ModeNRNU
		lc.Tickets = tk
		return cell{wl: wl, pcfg: realisticConfig(32, 96), useLTP: true, lcfg: lc}
	}
	var cells []cell
	for _, panel := range panels {
		for _, wl := range panel.Wls {
			cells = append(cells, base(wl), red(wl), green(wl))
			for _, tk := range tickets {
				cells = append(cells, nrnu(wl, tk))
			}
		}
	}
	res := s.run(false, cells)

	var tables []*Table
	for _, panel := range panels {
		perfPct := func(at func(wl string) cell) float64 {
			ratios := make([]float64, len(panel.Wls))
			for i, wl := range panel.Wls {
				ratios[i] = float64(res[base(wl)].Cycles) / float64(res[at(wl)].Cycles)
			}
			return (geomeanRatio(ratios) - 1) * 100
		}

		t := &Table{Title: "Figure 11 [" + panel.Name + "]: perf % vs base IQ:64/RF:128 by #tickets"}
		row := RowData{Label: "LTP(NR+NU)"}
		for _, tk := range tickets {
			t.Cols = append(t.Cols, fmt.Sprintf("%d", tk))
			row.Cells = append(row.Cells, perfPct(func(wl string) cell { return nrnu(wl, tk) }))
		}
		t.Rows = append(t.Rows, row)
		t.Rows = append(t.Rows, RowData{Label: "no-LTP 32/96 (red)", Cells: repeat(perfPct(red), len(tickets))})
		t.Rows = append(t.Rows, RowData{Label: "LTP(NU) 128/4p (green)", Cells: repeat(perfPct(green), len(tickets))})
		tables = append(tables, t)
		s.logf("fig11: %s done", panel.Name)
	}
	return tables
}

// UITSweep quantifies §5.6's UIT-size sensitivity on the MLP-sensitive
// group: unlimited vs 512/256/128/64 entries.
func (s *Suite) UITSweep() *Table {
	g := s.Classify()
	// The paper sweeps 128..unlimited and loses ~4 points at 128; our
	// kernels have far smaller static code footprints than SPEC (tens of
	// PCs, not thousands), so the sweep extends down to 4 entries to
	// reach the capacity-conflict regime.
	sizes := []int{0, 256, 64, 16, 8, 4} // 0 = unlimited

	base := func(wl string) cell { return cell{wl: wl, pcfg: realisticConfig(64, 128)} }
	sized := func(wl string, uit int) cell {
		lc := realisticLTP(128, 4)
		lc.UITEntries = uit
		return cell{wl: wl, pcfg: realisticConfig(32, 96), useLTP: true, lcfg: lc}
	}
	var cells []cell
	for _, wl := range g.Sensitive {
		cells = append(cells, base(wl))
		for _, sz := range sizes {
			cells = append(cells, sized(wl, sz))
		}
	}
	res := s.run(false, cells)

	t := &Table{Title: "UIT size sweep (§5.6) [mlp-sensitive]: perf % vs base IQ:64/RF:128"}
	row := RowData{Label: "LTP(NU) 128/4p"}
	for _, sz := range sizes {
		lbl := "UIT:inf"
		if sz > 0 {
			lbl = fmt.Sprintf("UIT:%d", sz)
		}
		t.Cols = append(t.Cols, lbl)
		var ratios []float64
		for _, wl := range g.Sensitive {
			ratios = append(ratios, float64(res[base(wl)].Cycles)/float64(res[sized(wl, sz)].Cycles))
		}
		row.Cells = append(row.Cells, (geomeanRatio(ratios)-1)*100)
	}
	t.Rows = append(t.Rows, row)
	return t
}

// GroupsTable renders the §4.1 classification with its criteria values.
func (s *Suite) GroupsTable() *Table {
	g := s.Classify()
	t := &Table{Title: "Workload classification (§4.1 criteria)",
		Cols: []string{"speedup%", "MLP gain%", "loadLat", "sensitive"}}
	for _, name := range append(append([]string{}, g.Sensitive...), g.Insensitive...) {
		d := g.Detail[name]
		sens := 0.0
		if d.Sensitive {
			sens = 1
		}
		t.Rows = append(t.Rows, RowData{Label: name,
			Cells: []float64{d.SpeedupPct, d.MLPGainPct, d.AvgLoadLat, sens}})
	}
	return t
}
