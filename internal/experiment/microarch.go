package experiment

// The microarchitectural-frontier experiment: the branch-predictor ×
// prefetcher cross on branch- and memory-bound scenarios, and the
// shared-hierarchy contention study (solo versus a memhog co-runner,
// LTP off versus on). Both tables' cells run as one batch; a cell's
// predictor and prefetcher are spelled in its pipeline configuration,
// which canonicalizes exactly like the sweep axes' RunPatch.BranchPred
// and RunPatch.Prefetcher, so every cell is content-addressed like a
// service-submitted campaign cell.

import (
	"fmt"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
)

// Microarch produces the predictor × prefetcher cross and the
// co-runner contention comparison.
func (s *Suite) Microarch() []*Table {
	preds := ltp.BranchPredictors()
	prefs := ltp.Prefetchers()
	scenarios := []string{"branchy", "hashjoin", "ptrchase"}
	crossAt := func(scn, bp, pf string) cell {
		pc := pipeline.DefaultConfig()
		pc.BranchPred, pc.Hier.Prefetcher = bp, pf
		return cell{scenario: scn, pcfg: pc}
	}
	// Contention grid: {solo, +memhog} × {no LTP, LTP NU}, on the
	// memory-bound chase scenario where parking matters most.
	contendAt := func(corunner string, useLTP bool) cell {
		return cell{scenario: "ptrchase", pcfg: pipeline.DefaultConfig(),
			useLTP: useLTP, lcfg: core.DefaultConfig(), corunner: corunner}
	}
	var cells []cell
	for _, scn := range scenarios {
		for _, bp := range preds {
			for _, pf := range prefs {
				cells = append(cells, crossAt(scn, bp, pf))
			}
		}
	}
	for _, corunner := range []string{"", "memhog"} {
		cells = append(cells, contendAt(corunner, false), contendAt(corunner, true))
	}
	res := s.run(false, cells)

	var tables []*Table
	for _, scn := range scenarios {
		t := &Table{Title: fmt.Sprintf("predictor x prefetcher CPI [%s]", scn)}
		t.Cols = append(t.Cols, prefs...)
		for _, bp := range preds {
			row := RowData{Label: bp}
			for _, pf := range prefs {
				row.Cells = append(row.Cells, res[crossAt(scn, bp, pf)].CPI)
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}

	ct := &Table{Title: "shared-hierarchy contention [ptrchase]: CPI solo vs +memhog co-runner"}
	ct.Cols = []string{"no LTP", "LTP(NU)"}
	for _, r := range []struct{ label, corunner string }{{"solo", ""}, {"+memhog", "memhog"}} {
		ct.Rows = append(ct.Rows, RowData{Label: r.label,
			Cells: []float64{res[contendAt(r.corunner, false)].CPI, res[contendAt(r.corunner, true)].CPI}})
	}
	tables = append(tables, ct)
	return tables
}
