package experiment

import (
	"math"
	"strings"
	"testing"

	"ltp"
	"ltp/internal/stats"
)

// TestTableStringGolden pins the exact rendering of Table.String() —
// column alignment, the 2-decimal/integer split at |v| >= 1000, the "-"
// for NaN/Inf cells, and note lines — so refactors of the renderer cannot
// silently corrupt every paper table at once.
func TestTableStringGolden(t *testing.T) {
	tab := &Table{
		Title: "golden demo",
		Cols:  []string{"CPI", "MLP", "perf%"},
		Rows: []RowData{
			{Label: "baseline", Cells: []float64{1.5, 12.25, -45.53}},
			{Label: "big", Cells: []float64{2000, 999.994, 0}},
			{Label: "weird", Cells: []float64{math.NaN(), math.Inf(1), -0.005}},
		},
		Notes: []string{"first note", "second note"},
	}
	want := strings.Join([]string{
		"## golden demo",
		"                                     CPI           MLP         perf%",
		"baseline                            1.50         12.25        -45.53",
		"big                                 2000        999.99          0.00",
		"weird                                  -             -         -0.01",
		"note: first note",
		"note: second note",
		"",
	}, "\n")
	if got := tab.String(); got != want {
		t.Errorf("Table.String() drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTable1Golden pins the full Table 1 text: it is generated from the
// default configuration with no simulation, so any drift means either the
// baseline config or the renderer changed — both must be deliberate.
func TestTable1Golden(t *testing.T) {
	want := `## Table 1: Baseline processor configuration
Frequency                  3.4 GHz (cycle-accurate; absolute time not modelled)
Width F/D/R/I/W/C          8 / 8 / 8 / 6 / 8 / 8
ROB / IQ / LQ / SQ         256 / 64 / 64 / 32
Int / FP registers         128 / 128 (available, beyond architectural)
L1I / L1D                  32 kB, 64 B, 8-way, LRU, 4 cycles
L2 unified                 256 kB, 64 B, 8-way, LRU, 12 cycles + stride prefetcher degree 4
L3 shared                  1 MB, 64 B, 16-way, LRU, 36 cycles
DRAM                       200 cycles (DDR3-1600 11-11-11 class)
LTP proposal               IQ 32, RF 96, 128-entry 4-port queue LTP, 256-entry UIT
`
	if got := Table1(); got != want {
		t.Errorf("Table1() drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMatrixTableGolden pins the scenario-matrix rendering (row order,
// the mean ± CI column pairing, and the notes) against a hand-built
// matrix sweep result, so campaign output and EXPERIMENTS.md snippets
// cannot drift silently.
func TestMatrixTableGolden(t *testing.T) {
	sum := func(mean, ci float64) stats.Summary {
		return stats.Summary{N: 3, Mean: mean, CI95: ci}
	}
	res := &ltp.SweepResult{
		Axes: []ltp.SweepAxisInfo{
			{Name: "scenario", Points: []string{"hashjoin", "ptrchase"}},
			{Name: "config", Points: []string{"IQ64", "IQ32+LTP"}},
			{Name: "seed", Points: []string{"seed0", "seed1", "seed2"}, Replicate: true},
		},
		Cells: []ltp.SweepCell{
			{Coords: []string{"hashjoin", "IQ64"}, CPI: sum(2.5, 0.125), IPC: sum(0.4, 0.02), MLP: sum(3.25, 0.1), AvgLoadLat: sum(85, 4), Parked: sum(0, 0)},
			{Coords: []string{"hashjoin", "IQ32+LTP"}, CPI: sum(2.75, 0.25), IPC: sum(0.36, 0.03), MLP: sum(3, 0.2), AvgLoadLat: sum(90, 5), Parked: sum(41.5, 2.5)},
			{Coords: []string{"ptrchase", "IQ64"}, CPI: sum(6, 0), IPC: sum(0.17, 0), MLP: sum(7.5, 0.5), AvgLoadLat: sum(150, 10), Parked: sum(0, 0)},
			{Coords: []string{"ptrchase", "IQ32+LTP"}, CPI: sum(6.25, 0.5), IPC: sum(0.16, 0.01), MLP: sum(7, 0.25), AvgLoadLat: sum(155, 12), Parked: sum(60.25, 3.125)},
		},
	}
	want := strings.Join([]string{
		"## Scenario matrix: 2 scenario(s) x 2 config(s), 3 seed(s) per cell",
		"                                     CPI       CPI ±95           IPC           MLP       loadLat        parked    parked ±95",
		"hashjoin IQ64                       2.50          0.12          0.40          3.25         85.00          0.00          0.00",
		"hashjoin IQ32+LTP                   2.75          0.25          0.36          3.00         90.00         41.50          2.50",
		"ptrchase IQ64                       6.00          0.00          0.17          7.50        150.00          0.00          0.00",
		"ptrchase IQ32+LTP                   6.25          0.50          0.16          7.00        155.00         60.25          3.12",
		"note: mean ± half-width of the 95% CI (Student-t) over seed replicates",
		"note: parked is the time-average of LTP-parked instructions (0 without LTP)",
		"",
	}, "\n")
	if got := MatrixTable(res).String(); got != want {
		t.Errorf("MatrixTable rendering drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFigureTableShapes locks the titles, column sets and row labels the
// figure generators emit, without depending on simulated values: the
// bench harness and EXPERIMENTS.md both parse these by position.
func TestFigureTableShapes(t *testing.T) {
	s := tinySuite(t)

	fig3 := s.Fig3()
	if fig3.Title != "Figure 3: tiny-IQ behaviour on the example loop (indirect)" {
		t.Errorf("fig3 title drifted: %q", fig3.Title)
	}
	if got := strings.Join(fig3.Cols, ","); got != "CPI,MLP,avgIQ" {
		t.Errorf("fig3 cols drifted: %q", got)
	}
	if fig3.Rows[0].Label != "traditional IQ(8)" || fig3.Rows[1].Label != "IQ(8)+LTP" {
		t.Errorf("fig3 row labels drifted: %q, %q", fig3.Rows[0].Label, fig3.Rows[1].Label)
	}
	if len(fig3.Notes) != 1 {
		t.Errorf("fig3 notes drifted: %v", fig3.Notes)
	}

	groups := s.GroupsTable()
	if got := strings.Join(groups.Cols, ","); got != "speedup%,MLP gain%,loadLat,sensitive" {
		t.Errorf("groups cols drifted: %q", got)
	}
	if len(groups.Rows) != 14 {
		t.Errorf("groups rows: got %d workloads, want 14", len(groups.Rows))
	}
	for _, r := range groups.Rows {
		if len(r.Cells) != len(groups.Cols) {
			t.Errorf("groups row %q has %d cells, want %d", r.Label, len(r.Cells), len(groups.Cols))
		}
	}
}
