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

	var cells []cell
	var order []string
	for _, c := range cfgs {
		for _, wl := range append(append([]string{}, g.Sensitive...), g.Insensitive...) {
			pc := limitConfig(c.iq, pipeline.Inf, pipeline.Inf, pipeline.Inf)
			cells = append(cells, cell{wl: wl, pcfg: pc, useLTP: c.useLTP, lcfg: ltpLimitCfg(core.ModeNRNU)})
			order = append(order, c.name+"/"+wl)
		}
	}
	res := s.run(true, cells)
	byKey := map[string]ltp.RunResult{}
	for i, k := range order {
		byKey[k] = res[i]
	}

	groupVals := func(cfgName string, group []string, get func(ltp.RunResult) float64) float64 {
		var vals []float64
		for _, wl := range group {
			vals = append(vals, get(byKey[cfgName+"/"+wl]))
		}
		return mean(vals)
	}
	// CPI uses the geometric mean so a single pathological kernel (pure
	// pointer chasing) does not drown the group.
	groupCPI := func(cfgName string, group []string) float64 {
		var vals []float64
		for _, wl := range group {
			vals = append(vals, byKey[cfgName+"/"+wl].CPI)
		}
		return geomeanRatio(vals)
	}

	cpi := &Table{Title: "Figure 1a: CPI (geomean)", Cols: []string{"MLP", "NMLP"}}
	out := &Table{Title: "Figure 1b: avg outstanding requests", Cols: []string{"MLP", "NMLP"}}
	for _, c := range cfgs {
		cpi.Rows = append(cpi.Rows, RowData{Label: c.name, Cells: []float64{
			groupCPI(c.name, g.Sensitive),
			groupCPI(c.name, g.Insensitive),
		}})
		out.Rows = append(out.Rows, RowData{Label: c.name, Cells: []float64{
			groupVals(c.name, g.Sensitive, func(r ltp.RunResult) float64 { return r.MLP }),
			groupVals(c.name, g.Insensitive, func(r ltp.RunResult) float64 { return r.MLP }),
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
			groupVals("IQ:256", g.Sensitive, m.get),
			groupVals("IQ:256", g.Insensitive, m.get),
		}})
	}
	return []*Table{cpi, out, use}
}

// Fig3 reproduces the Figure 3 scenario quantitatively: on the paper's own
// example loop (the `indirect` kernel) with a tiny 8-entry IQ, LTP keeps
// Non-Ready instructions out of the IQ, raising MLP.
func (s *Suite) Fig3() *Table {
	pc := limitConfig(8, pipeline.Inf, pipeline.Inf, pipeline.Inf)
	res := s.run(true, []cell{
		{wl: "indirect", pcfg: pc},
		{wl: "indirect", pcfg: pc, useLTP: true, lcfg: ltpLimitCfg(core.ModeNRNU)},
	})
	t := &Table{Title: "Figure 3: tiny-IQ behaviour on the example loop (indirect)",
		Cols: []string{"CPI", "MLP", "avgIQ"}}
	t.Rows = append(t.Rows,
		RowData{Label: "traditional IQ(8)", Cells: []float64{res[0].CPI, res[0].MLP, res[0].AvgIQ}},
		RowData{Label: "IQ(8)+LTP", Cells: []float64{res[1].CPI, res[1].MLP, res[1].AvgIQ}})
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
// exactly as the paper normalizes.
func (s *Suite) Fig6() []*Table {
	panels := s.fig6Panels()

	var tables []*Table
	for _, row := range fig6Rows() {
		// One sweep per row: cells of panel k start at first[k],
		// config-major, then size, then workload.
		var cells []cell
		var first []int
		for _, panel := range panels {
			first = append(first, len(cells))
			for _, c := range fig6Configs {
				for _, size := range row.Sizes {
					for _, wl := range panel.Wls {
						cells = append(cells, cell{wl: wl, pcfg: row.Cfg(size),
							useLTP: c.LTP, lcfg: ltpLimitCfg(c.Mode)})
					}
				}
			}
		}
		res := s.run(true, cells)

		for k, panel := range panels {
			off, nw, ns := first[k], len(panel.Wls), len(row.Sizes)
			cycles := func(ci, si, wi int) float64 {
				return float64(res[off+(ci*ns+si)*nw+wi].Cycles)
			}
			// Baseline: NoLTP at the underlined size.
			baseSizeIdx := -1
			for si, v := range row.Sizes {
				if v == row.BaseSize {
					baseSizeIdx = si
				}
			}

			t := &Table{
				Title: fmt.Sprintf("Figure 6 [%s sweep, panel %s]: perf %% vs NoLTP %s:%d",
					row.Name, panel.Name, row.Name, row.BaseSize),
			}
			for _, size := range row.Sizes {
				t.Cols = append(t.Cols, row.Name+":"+sizeLabel(size))
			}
			for ci, c := range fig6Configs {
				r := RowData{Label: c.Name}
				for si := range row.Sizes {
					ratios := make([]float64, nw)
					for wi := range panel.Wls {
						ratios[wi] = cycles(0, baseSizeIdx, wi) / cycles(ci, si, wi)
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

	var cells []cell
	for _, panel := range panels {
		for _, m := range modes {
			for _, wl := range panel.Wls {
				pc := limitConfig(32, 96, pipeline.DefaultConfig().LQSize, pipeline.DefaultConfig().SQSize)
				cells = append(cells, cell{wl: wl, pcfg: pc, useLTP: true, lcfg: ltpLimitCfg(m)})
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
	k := 0
	for _, panel := range panels {
		t := &Table{Title: "Figure 7 [" + panel.Name + "]: LTP utilization"}
		for _, m := range modes {
			t.Cols = append(t.Cols, m.String())
		}
		cells := make(map[string][]float64)
		for _, m := range modes {
			vals := make(map[string][]float64)
			for range panel.Wls {
				r := res[k]
				k++
				for _, met := range metrics {
					vals[met.name] = append(vals[met.name], met.get(r))
				}
			}
			_ = m
			for _, met := range metrics {
				cells[met.name] = append(cells[met.name], mean(vals[met.name]))
			}
		}
		for _, met := range metrics {
			t.Rows = append(t.Rows, RowData{Label: met.name, Cells: cells[met.name]})
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

	var tables []*Table
	for _, panel := range panels {
		var cells []cell
		type ref struct{ kind, ei, pi, wi int }
		var refs []ref
		for wi, wl := range panel.Wls {
			cells = append(cells, cell{wl: wl, pcfg: realisticConfig(64, 128)})
			refs = append(refs, ref{0, 0, 0, wi})
			cells = append(cells, cell{wl: wl, pcfg: realisticConfig(32, 96)})
			refs = append(refs, ref{1, 0, 0, wi})
			for ei, entries := range entriesSweep {
				for pi, ports := range portsSweep {
					cells = append(cells, cell{wl: wl, pcfg: realisticConfig(32, 96),
						useLTP: true, lcfg: realisticLTP(entries, ports)})
					refs = append(refs, ref{2, ei, pi, wi})
				}
			}
		}
		res := s.run(false, cells)

		type cell struct {
			perfRatios []float64
			ed2pRatios []float64
		}
		base := make([]ltp.RunResult, len(panel.Wls))
		red := make([]ltp.RunResult, len(panel.Wls))
		grid := make([][][]ltp.RunResult, len(entriesSweep))
		for ei := range grid {
			grid[ei] = make([][]ltp.RunResult, len(portsSweep))
			for pi := range grid[ei] {
				grid[ei][pi] = make([]ltp.RunResult, len(panel.Wls))
			}
		}
		for k, r := range refs {
			switch r.kind {
			case 0:
				base[r.wi] = res[k]
			case 1:
				red[r.wi] = res[k]
			default:
				grid[r.ei][r.pi][r.wi] = res[k]
			}
		}

		agg := func(rs []ltp.RunResult) cell {
			var c cell
			for wi, r := range rs {
				b := base[wi]
				c.perfRatios = append(c.perfRatios, float64(b.Cycles)/float64(r.Cycles))
				e := energy.ED2P(r.Energy.IQRF, r.Cycles) / energy.ED2P(b.Energy.IQRF, b.Cycles)
				c.ed2pRatios = append(c.ed2pRatios, e)
			}
			return c
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
		for pi, ports := range portsSweep {
			pr := RowData{Label: fmt.Sprintf("%dp", ports)}
			er := RowData{Label: fmt.Sprintf("%dp", ports)}
			for ei := range entriesSweep {
				c := agg(grid[ei][pi])
				pr.Cells = append(pr.Cells, (geomeanRatio(c.perfRatios)-1)*100)
				er.Cells = append(er.Cells, (geomeanRatio(c.ed2pRatios)-1)*100)
			}
			perf.Rows = append(perf.Rows, pr)
			ed2p.Rows = append(ed2p.Rows, er)
		}
		// The red line: IQ 32 / RF 96 without LTP.
		c := agg(red)
		perf.Rows = append(perf.Rows, RowData{Label: "no-LTP 32/96 (red)",
			Cells: repeat((geomeanRatio(c.perfRatios)-1)*100, len(entriesSweep))})
		ed2p.Rows = append(ed2p.Rows, RowData{Label: "no-LTP 32/96 (red)",
			Cells: repeat((geomeanRatio(c.ed2pRatios)-1)*100, len(entriesSweep))})
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

	var tables []*Table
	for _, panel := range panels {
		var cells []cell
		type ref struct{ kind, ti, wi int }
		var refs []ref
		for wi, wl := range panel.Wls {
			cells = append(cells, cell{wl: wl, pcfg: realisticConfig(64, 128)})
			refs = append(refs, ref{0, 0, wi})
			cells = append(cells, cell{wl: wl, pcfg: realisticConfig(32, 96)})
			refs = append(refs, ref{1, 0, wi})
			cells = append(cells, cell{wl: wl, pcfg: realisticConfig(32, 96),
				useLTP: true, lcfg: realisticLTP(128, 4)})
			refs = append(refs, ref{2, 0, wi})
			for ti, tk := range tickets {
				lc := realisticLTP(128, 4)
				lc.Mode = core.ModeNRNU
				lc.Tickets = tk
				cells = append(cells, cell{wl: wl, pcfg: realisticConfig(32, 96), useLTP: true, lcfg: lc})
				refs = append(refs, ref{3, ti, wi})
			}
		}
		res := s.run(false, cells)

		base := make([]uint64, len(panel.Wls))
		red := make([]uint64, len(panel.Wls))
		green := make([]uint64, len(panel.Wls))
		grid := make([][]uint64, len(tickets))
		for i := range grid {
			grid[i] = make([]uint64, len(panel.Wls))
		}
		for k, r := range refs {
			switch r.kind {
			case 0:
				base[r.wi] = res[k].Cycles
			case 1:
				red[r.wi] = res[k].Cycles
			case 2:
				green[r.wi] = res[k].Cycles
			default:
				grid[r.ti][r.wi] = res[k].Cycles
			}
		}
		perfPct := func(cycles []uint64) float64 {
			ratios := make([]float64, len(cycles))
			for i := range cycles {
				ratios[i] = float64(base[i]) / float64(cycles[i])
			}
			return (geomeanRatio(ratios) - 1) * 100
		}

		t := &Table{Title: "Figure 11 [" + panel.Name + "]: perf % vs base IQ:64/RF:128 by #tickets"}
		row := RowData{Label: "LTP(NR+NU)"}
		for _, tk := range tickets {
			t.Cols = append(t.Cols, fmt.Sprintf("%d", tk))
		}
		for ti := range tickets {
			row.Cells = append(row.Cells, perfPct(grid[ti]))
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

	var cells []cell
	for _, wl := range g.Sensitive {
		cells = append(cells, cell{wl: wl, pcfg: realisticConfig(64, 128)})
		for _, sz := range sizes {
			lc := realisticLTP(128, 4)
			lc.UITEntries = sz
			cells = append(cells, cell{wl: wl, pcfg: realisticConfig(32, 96), useLTP: true, lcfg: lc})
		}
	}
	res := s.run(false, cells)

	t := &Table{Title: "UIT size sweep (§5.6) [mlp-sensitive]: perf % vs base IQ:64/RF:128"}
	per := len(sizes) + 1
	row := RowData{Label: "LTP(NU) 128/4p"}
	for si, sz := range sizes {
		lbl := "UIT:inf"
		if sz > 0 {
			lbl = fmt.Sprintf("UIT:%d", sz)
		}
		t.Cols = append(t.Cols, lbl)
		var ratios []float64
		for wi := range g.Sensitive {
			base := res[wi*per].Cycles
			r := res[wi*per+1+si].Cycles
			ratios = append(ratios, float64(base)/float64(r))
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
