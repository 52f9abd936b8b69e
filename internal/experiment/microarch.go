package experiment

// The microarchitectural-frontier experiment: the branch-predictor ×
// prefetcher cross on branch- and memory-bound scenarios, and the
// shared-hierarchy contention study (solo versus a memhog co-runner,
// LTP off versus on). Both tables run through the generalized sweep
// axes (RunPatch.Scenario / BranchPred / Prefetcher / Corunners), so
// every cell is content-addressed exactly like a service-submitted
// campaign cell.

import (
	"fmt"

	"ltp"
)

// Microarch produces the predictor × prefetcher cross and the
// co-runner contention comparison.
func (s *Suite) Microarch() []*Table {
	preds := ltp.BranchPredictors()
	prefs := ltp.Prefetchers()
	scenarios := []string{"branchy", "hashjoin", "ptrchase"}

	axis := func(name string, labels []string, patch func(i int) ltp.RunPatch) ltp.SweepAxis {
		ax := ltp.SweepAxis{Name: name}
		for i, l := range labels {
			ax.Points = append(ax.Points, ltp.SweepPoint{Name: l, Patch: patch(i)})
		}
		return ax
	}
	cross := s.sweep(ltp.SweepSpec{Base: s.base(), Axes: []ltp.SweepAxis{
		axis("scenario", scenarios, func(i int) ltp.RunPatch { return ltp.RunPatch{Scenario: &scenarios[i]} }),
		axis("bpred", preds, func(i int) ltp.RunPatch { return ltp.RunPatch{BranchPred: &preds[i]} }),
		axis("prefetcher", prefs, func(i int) ltp.RunPatch { return ltp.RunPatch{Prefetcher: &prefs[i]} }),
	}})

	// Contention grid: {solo, +memhog} × {no LTP, LTP NU}, on the
	// memory-bound chase scenario where parking matters most.
	hog := []ltp.Corunner{{Scenario: "memhog"}}
	onOff := []bool{false, true}
	chase := s.base()
	chase.Scenario = "ptrchase"
	contention := s.sweep(ltp.SweepSpec{Base: chase, Axes: []ltp.SweepAxis{
		axis("corunners", []string{"solo", "+memhog"}, func(i int) ltp.RunPatch {
			if i == 0 {
				return ltp.RunPatch{}
			}
			return ltp.RunPatch{Corunners: &hog}
		}),
		axis("ltp", []string{"no LTP", "LTP(NU)"}, func(i int) ltp.RunPatch { return ltp.RunPatch{UseLTP: &onOff[i]} }),
	}})

	var tables []*Table
	i := 0
	for _, scn := range scenarios {
		t := &Table{Title: fmt.Sprintf("predictor x prefetcher CPI [%s]", scn)}
		t.Cols = append(t.Cols, prefs...)
		for _, bp := range preds {
			row := RowData{Label: bp}
			for range prefs {
				row.Cells = append(row.Cells, cross[i].CPI)
				i++
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}

	ct := &Table{Title: "shared-hierarchy contention [ptrchase]: CPI solo vs +memhog co-runner"}
	ct.Cols = []string{"no LTP", "LTP(NU)"}
	for k, label := range []string{"solo", "+memhog"} {
		ct.Rows = append(ct.Rows, RowData{Label: label,
			Cells: []float64{contention[2*k].CPI, contention[2*k+1].CPI}})
	}
	tables = append(tables, ct)
	return tables
}
