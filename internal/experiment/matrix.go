package experiment

// The scenario-matrix campaign surface: Suite.Matrix runs the
// ltp.NewMatrixSweep campaign with the suite's budgets on the suite's
// engine and renders the aggregate as a mean ± 95% CI table — the
// campaign's answer to single-seed figure points.

import (
	"context"
	"fmt"
	"strings"

	"ltp"
)

// Matrix runs the scenario-matrix campaign (scenarios × configs ×
// seeds; empty scenarios = every family, seeds <= 0 = 3) with the
// suite's budgets and returns the rendered table.
func (s *Suite) Matrix(scenarios []string, seeds int) (*Table, error) {
	res, err := s.matrix(s.base(), scenarios, seeds, nil)
	if err != nil {
		return nil, err
	}
	s.logf("matrix: %d scenario(s) x %d config(s) x %d seed(s)",
		len(res.Axes[0].Points), len(res.Axes[1].Points), len(res.Axes[2].Points))
	return MatrixTable(res), nil
}

// TriageMatrix runs the scenario matrix as a two-phase fidelity-triage
// sweep: the model backend estimates every cell, the topK best
// (lowest estimated mean CPI) cells re-run cycle-accurately, and both
// phases render as tables — the estimates with their backend column,
// the detailed selection below.
func (s *Suite) TriageMatrix(scenarios []string, seeds, topK int) ([]*Table, error) {
	base := s.base()
	// Triage schedules the model pre-pass itself; the cells are the
	// cycle-accurate re-runs.
	base.Backend, base.Intervals = ltp.BackendCycle, 0
	res, err := s.matrix(base, scenarios, seeds, &ltp.TriageSpec{TopK: topK})
	if err != nil {
		return nil, err
	}
	s.logf("triage: %d cells estimated on the model backend, top %d re-run cycle-accurately",
		len(res.Cells), topK)
	return []*Table{
		sweepCellTable(fmt.Sprintf("Triage estimates (model backend): %d cells", len(res.Cells)), res.Cells),
		sweepCellTable(fmt.Sprintf("Detailed top-%d (cycle backend)", topK), res.Triage.Detailed),
	}, nil
}

// matrix runs the default-config matrix over base on the suite's
// engine.
func (s *Suite) matrix(base ltp.RunSpec, scenarios []string, seeds int, triage *ltp.TriageSpec) (*ltp.SweepResult, error) {
	sweep, err := ltp.NewMatrixSweep(base, scenarios, nil, seeds)
	if err != nil {
		return nil, err
	}
	sweep.Triage = triage
	job, err := s.engine().Submit(context.Background(), sweep)
	if err != nil {
		return nil, err
	}
	return job.Wait()
}

// sweepCellTable renders sweep cells as a mean ± CI table, one row per
// cell in cell order.
func sweepCellTable(title string, cells []ltp.SweepCell) *Table {
	t := &Table{
		Title: title,
		Cols:  []string{"CPI", "CPI ±95", "IPC", "MLP", "loadLat", "parked", "parked ±95"},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, RowData{
			Label: strings.Join(c.Coords, " "),
			Cells: []float64{
				c.CPI.Mean, c.CPI.CI95,
				c.IPC.Mean, c.MLP.Mean, c.AvgLoadLat.Mean,
				c.Parked.Mean, c.Parked.CI95,
			},
		})
	}
	return t
}

// MatrixTable renders a finished matrix sweep (ltp.NewMatrixSweep's
// scenario, config and seed axes) as one row per scenario × config
// with mean and ±95% CI columns. A CI column of 0.00 with n >= 2 means
// the metric is seed-invariant; CI columns are the whole point of the
// matrix — single-seed campaigns cannot distinguish a real effect from
// seed luck.
func MatrixTable(res *ltp.SweepResult) *Table {
	t := sweepCellTable(fmt.Sprintf("Scenario matrix: %d scenario(s) x %d config(s), %d seed(s) per cell",
		len(res.Axes[0].Points), len(res.Axes[1].Points), len(res.Axes[2].Points)), res.Cells)
	t.Notes = append(t.Notes,
		"mean ± half-width of the 95% CI (Student-t) over seed replicates",
		"parked is the time-average of LTP-parked instructions (0 without LTP)")
	return t
}
