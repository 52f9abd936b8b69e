package experiment

import (
	"context"
	"strings"
	"testing"

	"ltp"
)

// tinySuite keeps experiment tests fast. Under -short (the CI race gate)
// the budgets shrink further: the shape assertions these tests make hold
// down to a few thousand instructions, and the race detector multiplies
// every simulated cycle's cost.
func tinySuite(tb testing.TB) *Suite {
	s := NewSuite(0.05, 5_000, 20_000)
	if testing.Short() {
		s = NewSuite(0.05, 2_000, 8_000)
	}
	s.Quiet = true
	tb.Cleanup(s.Close)
	return s
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"ROB / IQ / LQ / SQ", "256 / 64 / 64 / 32", "stride prefetcher"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestClassifyStable(t *testing.T) {
	s := tinySuite(t)
	g1 := s.Classify()
	g2 := s.Classify() // cached
	if len(g1.Sensitive)+len(g1.Insensitive) != 14 {
		t.Errorf("classified %d+%d workloads, want 14",
			len(g1.Sensitive), len(g1.Insensitive))
	}
	if &g1.Detail == nil || len(g2.Sensitive) != len(g1.Sensitive) {
		t.Error("classification not cached/stable")
	}
	// The pure compute kernel can never be MLP-sensitive.
	for _, n := range g1.Sensitive {
		if n == "compute" || n == "divloop" {
			t.Errorf("%s classified MLP-sensitive", n)
		}
	}
	if s.GroupsTable().String() == "" {
		t.Error("empty groups table")
	}
}

func TestFig3Shape(t *testing.T) {
	s := tinySuite(t)
	tab := s.Fig3()
	if len(tab.Rows) != 2 {
		t.Fatalf("fig3 has %d rows", len(tab.Rows))
	}
	noltp, withltp := tab.Rows[0], tab.Rows[1]
	// With LTP the tiny IQ must hold fewer instructions and the MLP must
	// not be lower.
	if withltp.Cells[2] >= noltp.Cells[2] {
		t.Errorf("LTP did not reduce IQ occupancy: %.2f vs %.2f", withltp.Cells[2], noltp.Cells[2])
	}
	if withltp.Cells[1] < noltp.Cells[1] {
		t.Errorf("LTP lowered MLP: %.2f vs %.2f", withltp.Cells[1], noltp.Cells[1])
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{
		Title: "demo", Cols: []string{"a", "b"},
		Rows:  []RowData{{Label: "x", Cells: []float64{1.5, 2000}}},
		Notes: []string{"n"},
	}
	out := tab.String()
	for _, want := range []string{"demo", "1.50", "2000", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q in %q", want, out)
		}
	}
}

// TestSuiteRunOrder verifies the suite's batch path returns each
// cell's own result under its cell, simulates a cell listed twice only
// once, and matches a standalone run.
func TestSuiteRunOrder(t *testing.T) {
	s := tinySuite(t)
	s.Parallelism = 2
	var cells []cell
	for _, iq := range []int{8, 64, 256} {
		for _, wl := range []string{"compute", "gather"} {
			cells = append(cells, cell{wl: wl, pcfg: limitConfig(iq, 128, 64, 32)})
		}
	}
	cells = append(cells, cells[1]) // the same simulation again
	out := s.run(false, cells)
	if len(out) != len(cells)-1 {
		t.Fatalf("got %d results for %d distinct cells", len(out), len(cells)-1)
	}
	for _, c := range cells {
		if got := out[c].Design.IQEntries; got != c.pcfg.IQSize {
			t.Errorf("cell (%s, IQ %d): result misplaced (IQ %d)", c.wl, c.pcfg.IQSize, got)
		}
	}
	if misses := s.engine().CacheStats().Misses; misses != uint64(len(cells)-1) {
		t.Errorf("%d simulations for %d distinct cells", misses, len(cells)-1)
	}

	c := cells[3]
	spec := s.base()
	spec.Workload, spec.Pipeline = c.wl, &c.pcfg
	ref, err := ltp.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[c]; got.Cycles != ref.Cycles || got.Committed != ref.Committed {
		t.Errorf("suite cell diverged from its standalone run: %d/%d vs %d/%d cycles/committed",
			got.Cycles, got.Committed, ref.Cycles, ref.Committed)
	}
}

func TestGeomeanRatio(t *testing.T) {
	if got := geomeanRatio([]float64{2, 8}); got != 4 {
		t.Errorf("geomean(2,8) = %v", got)
	}
	if got := geomeanRatio(nil); got != 1 {
		t.Errorf("geomean(nil) = %v", got)
	}
}

func TestSizeLabel(t *testing.T) {
	if sizeLabel(64) != "64" || sizeLabel(1<<20) != "inf" {
		t.Error("size labels wrong")
	}
}
