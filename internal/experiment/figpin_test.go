package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// pinnedFigures maps each figure runner to the SHA-256 of its rendered
// tables at pinSuite's budgets. Every value is deterministic in the
// budgets, so a change that moves any digest changes a paper figure:
// that is a bug unless the change is meant to move results (then
// re-record from the test's failure output and say why).
var pinnedFigures = map[string]string{
	"groups":    "548038dc1fc4512fcb617e5b65d020a84ed96f15840d7c9031e988695d7d8f56",
	"fig1":      "258302fc69b54816f9931932a38fef9d81c15e0f35d7f00baac398565f95e5fa",
	"fig3":      "5eaf157733975247b7d6a5ab14bb97e5ab12d6ac19fe4b9f66634d0edcb70d70",
	"fig6":      "30da07afd21d831ff41387b0d98397fc06c61fe3860f2981bf6f10c84b93aee7",
	"fig7":      "931bac2a43229d71ba9ffa3d3bb057521b4a12b5bab428133257075ce46536b3",
	"fig10":     "825a35bbb316b1e6cccdaf4de91bab2fbc5a0530b3d002fdc50e88bc31268672",
	"fig11":     "fd02b0aceafb6e84031f8bf3621597df42e5c5fe47df3aabb3b5b940f09a8172",
	"uit":       "d98c8eecf4e57d2817c3f7e938704d20cbafaa6871d4d1af8b60930a0c57cbdc",
	"ablation":  "996780959a27c22630f017d57e850f2cec22b7355c9a32771e4ac4c69ed22d7d",
	"wibvsltp":  "8abc13849dcdc76ab1244e5b798fa4a538a42fd98cb601933dee61a78b8fc15c",
	"dram":      "2e0fde8fb8f51c4d9a63776b9f1c20507d1a69cddab5d8ad911227ea1d6bdb9e",
	"microarch": "1e026d6db0e46cad35312402f1711e1e00b3b393c897ad22f849d30f0890a7de",
	"matrix":    "adf20eac0b9a8a55b99b9e73af5fe3da78c6e02f3f93541321d830744238ae6d",
}

// pinSuite has the smallest budgets at which every runner still
// simulates something: the pin guards plumbing (which cells run, how
// results map back to rows), not the figures' values at paper scale.
func pinSuite(tb testing.TB) *Suite {
	s := NewSuite(0.02, 500, 1_000)
	s.Parallelism = 2
	s.Quiet = true
	tb.Cleanup(s.Close)
	return s
}

// TestFiguresPinned renders every figure runner of the paper
// reproduction at tiny budgets and compares each one's table digest
// against pinnedFigures, so a refactor of how the figures execute
// cannot silently change a single reported number.
func TestFiguresPinned(t *testing.T) {
	s := pinSuite(t)
	one := func(tab *Table) []*Table { return []*Table{tab} }
	runners := []struct {
		name string
		run  func() ([]*Table, error)
	}{
		{"groups", func() ([]*Table, error) { return one(s.GroupsTable()), nil }},
		{"fig1", func() ([]*Table, error) { return s.Fig1(), nil }},
		{"fig3", func() ([]*Table, error) { return one(s.Fig3()), nil }},
		{"fig6", func() ([]*Table, error) { return s.Fig6(), nil }},
		{"fig7", func() ([]*Table, error) { return s.Fig7(), nil }},
		{"fig10", func() ([]*Table, error) { return s.Fig10(), nil }},
		{"fig11", func() ([]*Table, error) { return s.Fig11(), nil }},
		{"uit", func() ([]*Table, error) { return one(s.UITSweep()), nil }},
		{"ablation", func() ([]*Table, error) { return one(s.Ablation()), nil }},
		{"wibvsltp", func() ([]*Table, error) { return s.WIBvsLTP(), nil }},
		{"dram", func() ([]*Table, error) { return one(s.DRAMModelStudy()), nil }},
		{"microarch", func() ([]*Table, error) { return s.Microarch(), nil }},
		{"matrix", func() ([]*Table, error) {
			tab, err := s.Matrix([]string{"branchy", "ptrchase"}, 2)
			return []*Table{tab}, err
		}},
	}
	for _, r := range runners {
		tables, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		h := sha256.New()
		for _, tab := range tables {
			h.Write([]byte(tab.String()))
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := pinnedFigures[r.name]; got != want {
			t.Errorf("%s digest %s, pinned %s", r.name, got, want)
		}
	}
}

// TestRefusedCellPanicsWithCellError requires a figure runner whose
// cell the engine refuses to panic with a *CellError naming the cell's
// kernel and carrying the refusal, the value ltpexperiments recovers to
// report the failure in one line.
func TestRefusedCellPanicsWithCellError(t *testing.T) {
	s := pinSuite(t)
	s.Backend = "model" // the limit study's oracle cells need the cycle backend
	defer func() {
		ce, ok := recover().(*CellError)
		if !ok {
			t.Fatal("Fig6 on the model backend did not panic with a *CellError")
		}
		if ce.Cell == "" || !strings.Contains(ce.Err.Error(), "cycle backend") {
			t.Errorf("cell %q, error %v: want a kernel name and the oracle refusal", ce.Cell, ce.Err)
		}
	}()
	s.Fig6()
}
