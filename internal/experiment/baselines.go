package experiment

import (
	"ltp/internal/mem"
	"ltp/internal/pipeline"
)

// WIBvsLTP compares LTP against the Waiting Instruction Buffer baseline
// (Lebeck et al., the paper's §6 related work) on the two resources that
// separate them: both relieve IQ pressure, but only LTP's front-end
// parking delays register allocation. Rows are percent performance versus
// the Table 1 baseline on the MLP-sensitive group.
func (s *Suite) WIBvsLTP() []*Table {
	g := s.Classify()

	type variant struct {
		Name string
		Cfg  func(iq, rf int) pipeline.Config
		LTP  bool
	}
	variants := []variant{
		{"NoLTP", func(iq, rf int) pipeline.Config { return realisticConfig(iq, rf) }, false},
		{"WIB(1024)", func(iq, rf int) pipeline.Config {
			c := realisticConfig(iq, rf)
			c.WIBSize = 1024
			c.WIBPorts = 4
			return c
		}, false},
		{"LTP(NU 128/4p)", func(iq, rf int) pipeline.Config { return realisticConfig(iq, rf) }, true},
	}

	rows := []struct {
		Name   string
		Prefix string
		Sizes  []int
		Core   func(size int) (iq, rf int)
	}{
		{"IQ sweep (RF:128)", "IQ:", []int{64, 32, 16}, func(n int) (int, int) { return n, 128 }},
		{"RF sweep (IQ:64)", "RF:", []int{128, 96, 64}, func(n int) (int, int) { return 64, n }},
	}
	base := func(wl string) cell { return cell{wl: wl, pcfg: realisticConfig(64, 128)} }
	at := func(v variant, iq, rf int, wl string) cell {
		return cell{wl: wl, pcfg: v.Cfg(iq, rf), useLTP: v.LTP, lcfg: realisticLTP(128, 4)}
	}
	var cells []cell
	for _, row := range rows {
		for _, wl := range g.Sensitive {
			cells = append(cells, base(wl))
			for _, v := range variants {
				for _, size := range row.Sizes {
					iq, rf := row.Core(size)
					cells = append(cells, at(v, iq, rf, wl))
				}
			}
		}
	}
	res := s.run(false, cells)

	var tables []*Table
	for _, row := range rows {
		t := &Table{Title: "WIB vs LTP [" + row.Name + ", mlp-sensitive]: perf % vs base IQ:64/RF:128"}
		for _, size := range row.Sizes {
			t.Cols = append(t.Cols, row.Prefix+sizeLabel(size))
		}
		for _, v := range variants {
			r := RowData{Label: v.Name}
			for _, size := range row.Sizes {
				iq, rf := row.Core(size)
				ratios := make([]float64, len(g.Sensitive))
				for wi, wl := range g.Sensitive {
					ratios[wi] = float64(res[base(wl)].Cycles) / float64(res[at(v, iq, rf, wl)].Cycles)
				}
				r.Cells = append(r.Cells, (geomeanRatio(ratios)-1)*100)
			}
			t.Rows = append(t.Rows, r)
		}
		t.Notes = append(t.Notes,
			"WIB drains miss-dependent instructions from the IQ but keeps their registers;",
			"LTP parks before allocation, so only LTP survives the RF shrink (paper §6)")
		tables = append(tables, t)
		s.logf("wibvsltp: %s done", row.Name)
	}
	return tables
}

// DRAMModelStudy compares the fixed-latency DRAM against the banked DDR3
// model (row buffers, bank queueing, bus contention) for the baseline and
// LTP designs — a substitution-sensitivity check for the reproduction.
func (s *Suite) DRAMModelStudy() *Table {
	g := s.Classify()
	ddr := mem.DefaultDRAMConfig()

	mkCfg := func(banked bool, iq, rf int) pipeline.Config {
		c := realisticConfig(iq, rf)
		if banked {
			c.Hier.DRAM = &ddr
		}
		return c
	}

	type variant struct {
		Name   string
		Banked bool
		IQ, RF int
		LTP    bool
	}
	variants := []variant{
		{"fixed: base 64/128", false, 64, 128, false},
		{"fixed: LTP 32/96", false, 32, 96, true},
		{"ddr3: base 64/128", true, 64, 128, false},
		{"ddr3: LTP 32/96", true, 32, 96, true},
	}

	at := func(v variant, wl string) cell {
		return cell{wl: wl, pcfg: mkCfg(v.Banked, v.IQ, v.RF), useLTP: v.LTP, lcfg: realisticLTP(128, 4)}
	}
	var cells []cell
	for _, wl := range g.Sensitive {
		for _, v := range variants {
			cells = append(cells, at(v, wl))
		}
	}
	res := s.run(false, cells)

	t := &Table{Title: "DRAM model study [mlp-sensitive]",
		Cols: []string{"CPI", "MLP", "loadLat"}}
	for _, v := range variants {
		var cpi, mlp, lat []float64
		for _, wl := range g.Sensitive {
			r := res[at(v, wl)]
			cpi = append(cpi, r.CPI)
			mlp = append(mlp, r.MLP)
			lat = append(lat, r.AvgLoadLatency)
		}
		t.Rows = append(t.Rows, RowData{Label: v.Name,
			Cells: []float64{geomeanRatio(cpi), mean(mlp), mean(lat)}})
	}
	t.Notes = append(t.Notes,
		"the LTP win must survive the memory-model substitution: compare the fixed and ddr3 pairs")
	return t
}
