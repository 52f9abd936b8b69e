package ltp_test

import (
	"context"
	"reflect"
	"testing"

	"ltp"
)

// quickMatrixBase is the budget base of the smallest matrix campaigns
// that still exercise seed replication and the LTP config column.
func quickMatrixBase() ltp.RunSpec {
	return ltp.RunSpec{Scale: 0.05, WarmInsts: 3_000, MaxInsts: 8_000}
}

// runMatrix runs a matrix sweep on a fresh engine and returns its
// aggregate.
func runMatrix(tb testing.TB, base ltp.RunSpec, scenarios []string, configs []ltp.MatrixConfig, seeds, parallelism int) *ltp.SweepResult {
	tb.Helper()
	sweep, err := ltp.NewMatrixSweep(base, scenarios, configs, seeds)
	if err != nil {
		tb.Fatal(err)
	}
	e := newTestEngine(tb, ltp.EngineConfig{Parallelism: parallelism})
	defer e.Close()
	job, err := e.Submit(context.Background(), sweep)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestScenarioRunDeterminism pins the property the whole campaign
// layer rests on: the same RunSpec (same scenario, knobs, scale, seed,
// budgets) simulated twice yields an identical statistics struct.
func TestScenarioRunDeterminism(t *testing.T) {
	for _, scn := range []string{"branchy", "hashjoin", "ptrchase"} {
		spec := ltp.RunSpec{
			Scenario:  scn,
			Seed:      42,
			Scale:     0.05,
			WarmInsts: 3_000,
			MaxInsts:  8_000,
			UseLTP:    true,
		}
		a, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ltp.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Result != b.Result {
			t.Errorf("%s: identical specs diverged:\n a: %+v\n b: %+v", scn, a.Result, b.Result)
		}
		if *a.LTP != *b.LTP {
			t.Errorf("%s: LTP stats diverged across identical runs", scn)
		}
	}
}

// TestMatrixSeedSpread runs one cell with three seeds and asserts the
// aggregation sees real seed-to-seed variation: CI width > 0. This is
// the single-seed blind spot the matrix exists to catch — a campaign
// whose replicates are secretly identical would report CI 0.
func TestMatrixSeedSpread(t *testing.T) {
	scenarios := []string{"branchy", "hashjoin"}
	res := runMatrix(t, quickMatrixBase(), scenarios, []ltp.MatrixConfig{{Name: "IQ64"}}, 3, 4)
	for _, scn := range scenarios {
		cell := res.Cell(scn, "IQ64")
		if cell == nil {
			t.Fatalf("cell %s/IQ64 missing", scn)
		}
		if cell.CPI.N != 3 {
			t.Errorf("%s: N = %d, want 3", scn, cell.CPI.N)
		}
		if cell.CPI.CI95 <= 0 {
			t.Errorf("%s: CPI CI95 = %v, want > 0 (seeds produced identical CPI?)", scn, cell.CPI.CI95)
		}
		if cell.CPI.Mean <= 0 {
			t.Errorf("%s: CPI mean %v", scn, cell.CPI.Mean)
		}
	}
}

// TestMatrixDeterminism asserts a whole matrix is reproducible: two
// identical campaigns on separate engines (no shared cache) aggregate
// to identical cells — the worker pool's dispatch order must not leak
// into results.
func TestMatrixDeterminism(t *testing.T) {
	run := func() *ltp.SweepResult {
		return runMatrix(t, quickMatrixBase(), []string{"prodcons"}, nil, 2, 4)
	}
	a, b := run(), run()
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i], b.Cells[i]) {
			t.Errorf("cell %d diverged:\n a: %+v\n b: %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// TestMatrixFullCrossRace drives the full default cross-product
// (every family × all three default configs) through the worker pool
// with ≥ 4 workers. Under `go test -race` (the CI gate) this is the
// scenario-matrix race coverage; it also checks cell bookkeeping and
// that the LTP column actually parks somewhere.
func TestMatrixFullCrossRace(t *testing.T) {
	res := runMatrix(t, quickMatrixBase(), nil, nil, 2, 6)
	nFams := len(ltp.Scenarios())
	if nFams < 6 {
		t.Fatalf("only %d scenario families", nFams)
	}
	if want := nFams * 3; len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	parkedSomewhere := false
	for _, c := range res.Cells {
		if c.CPI.N != 2 || c.CPI.Mean <= 0 {
			t.Errorf("cell %v malformed: %+v", c.Coords, c.CPI)
		}
		if c.Coords[1] == "IQ32+LTP" && c.Parked.Mean > 0 {
			parkedSomewhere = true
		}
	}
	if !parkedSomewhere {
		t.Error("no scenario parked any instructions under IQ32+LTP")
	}
}

// TestMatrixUnknownScenario pins the validation path.
func TestMatrixUnknownScenario(t *testing.T) {
	if _, err := ltp.NewMatrixSweep(quickMatrixBase(), []string{"no-such-family"}, nil, 0); err == nil {
		t.Error("unknown scenario accepted")
	}
}
