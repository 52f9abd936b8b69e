package experiment

import (
	"strings"
	"testing"
)

// tinyMatrixSuite keeps the end-to-end matrix test inside the -short
// budget.
func tinyMatrixSuite(tb testing.TB) *Suite {
	s := NewSuite(0.05, 2_000, 6_000)
	s.Quiet = true
	s.Parallelism = 4
	tb.Cleanup(s.Close)
	return s
}

// TestSuiteMatrixEndToEnd runs a two-family matrix through the suite
// entry point and sanity-checks the rendered table: header, one row
// per scenario × config, and the CI note. Under `go test -race` this
// doubles as race coverage of the campaign path the CLI uses.
func TestSuiteMatrixEndToEnd(t *testing.T) {
	s := tinyMatrixSuite(t)
	tab, err := s.Matrix([]string{"branchy", "gemmblock"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Title, "2 scenario(s) x 3 config(s), 2 seed(s)") {
		t.Errorf("title drifted: %q", tab.Title)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Cells) != len(tab.Cols) {
			t.Errorf("row %q has %d cells, want %d", r.Label, len(r.Cells), len(tab.Cols))
		}
		if cpi := r.Cells[0]; cpi <= 0 {
			t.Errorf("row %q CPI %v", r.Label, cpi)
		}
	}
	if got := tab.String(); !strings.Contains(got, "95% CI") {
		t.Error("CI note missing from rendering")
	}

	if _, err := s.Matrix([]string{"nope"}, 2); err == nil {
		t.Error("unknown scenario accepted")
	}
}
