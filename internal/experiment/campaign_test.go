package experiment

import (
	"strings"
	"testing"
)

// microSuite uses the smallest budgets that still exercise every code
// path (classification, oracle builds, all four Fig. 6 rows, the energy
// model aggregation).
func microSuite(tb testing.TB) *Suite {
	s := NewSuite(0.05, 3_000, 10_000)
	s.Quiet = true
	tb.Cleanup(s.Close)
	return s
}

// TestCampaignSmoke regenerates every figure at micro budgets and sanity-
// checks the headline shapes. It is the integration test of the whole
// reproduction stack.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke is slow")
	}
	s := microSuite(t)

	t.Run("fig1", func(t *testing.T) {
		tables := s.Fig1()
		if len(tables) != 3 {
			t.Fatalf("fig1 returned %d tables", len(tables))
		}
		cpi := tables[0]
		// LTP must not slow the sensitive group versus plain IQ:32.
		if cpi.Rows[1].Cells[0] > cpi.Rows[0].Cells[0]*1.05 {
			t.Errorf("IQ:32+LTP CPI %.2f worse than IQ:32 %.2f",
				cpi.Rows[1].Cells[0], cpi.Rows[0].Cells[0])
		}
		// Insensitive group must be unaffected by IQ size (within noise).
		nmlp32, nmlp256 := cpi.Rows[0].Cells[1], cpi.Rows[2].Cells[1]
		if nmlp32 > nmlp256*1.25 {
			t.Errorf("insensitive group IQ-sensitive: %.2f vs %.2f", nmlp32, nmlp256)
		}
	})

	t.Run("fig6", func(t *testing.T) {
		tables := s.Fig6()
		if len(tables) != 16 {
			t.Fatalf("fig6 returned %d tables, want 16", len(tables))
		}
		// Find the IQ sweep for the sensitive group.
		var iqSens *Table
		for _, tab := range tables {
			if strings.Contains(tab.Title, "[IQ sweep, panel mlp-sensitive]") {
				iqSens = tab
			}
		}
		if iqSens == nil {
			t.Fatal("IQ/mlp-sensitive panel missing")
		}
		// NoLTP at IQ:16 (last col) must be clearly below LTP(NR+NU).
		noltp := iqSens.Rows[0].Cells[len(iqSens.Cols)-1]
		nrnu := iqSens.Rows[3].Cells[len(iqSens.Cols)-1]
		if nrnu <= noltp {
			t.Errorf("LTP(NR+NU) %.1f%% not above NoLTP %.1f%% at IQ:16", nrnu, noltp)
		}
	})

	t.Run("fig7", func(t *testing.T) {
		tables := s.Fig7()
		if len(tables) != 4 {
			t.Fatalf("fig7 returned %d tables", len(tables))
		}
		// NU parks at least as much as NR on the sensitive group (paper:
		// Non-Urgent dominates).
		var sens *Table
		for _, tab := range tables {
			if strings.Contains(tab.Title, "[mlp-sensitive]") {
				sens = tab
			}
		}
		nr, nu := sens.Rows[0].Cells[0], sens.Rows[0].Cells[1]
		if nu < nr {
			t.Errorf("NU parks %.1f < NR %.1f on sensitive group", nu, nr)
		}
	})

	t.Run("fig10", func(t *testing.T) {
		tables := s.Fig10()
		if len(tables) != 4 {
			t.Fatalf("fig10 returned %d tables", len(tables))
		}
		// ED2P of the 128-entry 4-port design (sensitive panel, row "4p",
		// col LTP:128) must improve on the baseline (negative %).
		ed2p := tables[1]
		got := ed2p.Rows[2].Cells[1]
		if got >= 0 {
			t.Errorf("LTP 128/4p ED2P %+.1f%%, want negative (improvement)", got)
		}
		// And beat the red line's performance (perf table, sensitive).
		perf := tables[0]
		ltpPerf := perf.Rows[2].Cells[1]
		red := perf.Rows[len(perf.Rows)-1].Cells[0]
		if ltpPerf <= red {
			t.Errorf("LTP 128/4p perf %.1f%% not above no-LTP red line %.1f%%", ltpPerf, red)
		}
	})

	t.Run("fig11", func(t *testing.T) {
		tables := s.Fig11()
		if len(tables) != 2 {
			t.Fatalf("fig11 returned %d tables", len(tables))
		}
		// NR+NU with max tickets must beat the no-LTP red line.
		sens := tables[0]
		if sens.Rows[0].Cells[0] <= sens.Rows[1].Cells[0] {
			t.Errorf("NR+NU %.1f%% not above red %.1f%%",
				sens.Rows[0].Cells[0], sens.Rows[1].Cells[0])
		}
	})

	t.Run("uit+ablation", func(t *testing.T) {
		uit := s.UITSweep()
		if len(uit.Rows) != 1 || len(uit.Cols) < 5 {
			t.Fatal("uit sweep malformed")
		}
		// A 4-entry UIT must hurt versus unlimited.
		if uit.Rows[0].Cells[len(uit.Cols)-1] >= uit.Rows[0].Cells[0] {
			t.Error("4-entry UIT not worse than unlimited")
		}
		abl := s.Ablation()
		if len(abl.Rows) < 5 {
			t.Fatal("ablation table malformed")
		}
		// The no-urgent-escape ablation must be the pathology it claims.
		var def, noesc float64
		for _, r := range abl.Rows {
			switch r.Label {
			case "paper design (proximity)":
				def = r.Cells[0]
			case "no urgent escape":
				noesc = r.Cells[0]
			}
		}
		if noesc >= def {
			t.Errorf("no-urgent-escape %.1f%% not below paper design %.1f%%", noesc, def)
		}
	})
}
