package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Max() != 0 || a.Cycles() != 0 {
		t.Error("zero accumulator must report zeros")
	}
	for _, v := range []float64{1, 2, 3, 10} {
		a.Add(v)
	}
	if a.Mean() != 4 {
		t.Errorf("mean %v, want 4", a.Mean())
	}
	if a.Max() != 10 {
		t.Errorf("max %v, want 10", a.Max())
	}
	if a.Cycles() != 4 {
		t.Errorf("cycles %v", a.Cycles())
	}
}

// TestAccumulatorAddN: recording a run of equal integer samples at once
// is exactly the same as recording them one by one.
func TestAccumulatorAddN(t *testing.T) {
	f := func(runs []struct {
		V uint16
		N uint8
	}) bool {
		var one, bulk Accumulator
		for _, r := range runs {
			for i := 0; i < int(r.N); i++ {
				one.Add(float64(r.V))
			}
			bulk.AddN(float64(r.V), uint64(r.N))
		}
		return one == bulk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean is bounded by min and max of the samples.
func TestAccumulatorBoundsProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var a Accumulator
		lo, hi := float64(vals[0]), float64(vals[0])
		for _, v := range vals {
			fv := float64(v)
			a.Add(fv)
			if fv < lo {
				lo = fv
			}
			if fv > hi {
				hi = fv
			}
		}
		return a.Mean() >= lo && a.Mean() <= hi && a.Max() == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.CI95 != 0 {
		t.Errorf("empty summary %+v", s)
	}
	if s := Summarize([]float64{3.5}); s.N != 1 || s.Mean != 3.5 || s.CI95 != 0 {
		t.Errorf("single-sample summary %+v: CI must be 0 at N=1", s)
	}

	// Hand-checked: {2, 4, 6} has mean 4, stddev 2, t(df=2)=4.303,
	// CI half-width = 4.303 * 2 / sqrt(3) = 4.9686...
	s := Summarize([]float64{2, 4, 6})
	if s.Mean != 4 || s.Min != 2 || s.Max != 6 || s.StdDev != 2 {
		t.Errorf("summary %+v", s)
	}
	if want := 4.303 * 2 / 1.7320508075688772; absDiff(s.CI95, want) > 1e-9 {
		t.Errorf("CI95 %v, want %v", s.CI95, want)
	}

	// Identical samples: mean exact, CI exactly 0.
	if s := Summarize([]float64{7, 7, 7, 7}); s.CI95 != 0 || s.Mean != 7 {
		t.Errorf("constant summary %+v", s)
	}

	// Spread samples: CI strictly positive, shrinking with N.
	small := Summarize([]float64{1, 2, 3})
	big := Summarize([]float64{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3})
	if small.CI95 <= 0 || big.CI95 <= 0 || big.CI95 >= small.CI95 {
		t.Errorf("CI scaling broken: n=3 %v, n=12 %v", small.CI95, big.CI95)
	}

	if got := Summarize([]float64{2, 4, 6}).String(); !strings.Contains(got, "n=3") {
		t.Errorf("String() = %q", got)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Property: mean within [min, max], CI non-negative and 0 for N < 2.
func TestSummarizeProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		fv := make([]float64, len(vals))
		for i, v := range vals {
			fv[i] = float64(v)
		}
		s := Summarize(fv)
		if s.N != len(vals) || s.CI95 < 0 {
			return false
		}
		if s.N == 0 {
			return true
		}
		return s.Mean >= s.Min && s.Mean <= s.Max && (s.N >= 2 || s.CI95 == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSummarizeDegenerate pins the degenerate-input contract: n = 1 and
// zero-variance sample sets must summarize with CI95 = 0 — never NaN,
// never negative — because campaign tables print the value and the
// service marshals it to JSON (json.Marshal rejects NaN outright).
func TestSummarizeDegenerate(t *testing.T) {
	// A single sample has no dispersion estimate.
	s := Summarize([]float64{3.14})
	if s.N != 1 || s.Mean != 3.14 || s.CI95 != 0 || s.StdDev != 0 {
		t.Fatalf("n=1 summary %+v, want mean 3.14 with zero CI and stddev", s)
	}

	// Zero variance across replicates (deterministic metrics).
	s = Summarize([]float64{2, 2, 2, 2})
	if s.Mean != 2 || s.CI95 != 0 || s.StdDev != 0 {
		t.Fatalf("zero-variance summary %+v, want mean 2 with zero CI", s)
	}
	if math.IsNaN(s.CI95) || math.IsNaN(s.StdDev) {
		t.Fatalf("zero-variance summary produced NaN: %+v", s)
	}

	// Huge identical values: the sum-of-squares path must not round
	// into a negative and NaN out of Sqrt.
	big := 1e15 + 1.0/3.0
	s = Summarize([]float64{big, big, big})
	if math.IsNaN(s.CI95) || s.CI95 < 0 {
		t.Fatalf("large zero-variance summary produced invalid CI: %+v", s)
	}

	// A poisoned sample (NaN metric from a degenerate run) corrupts the
	// mean — the caller's bug to notice — but must not leak NaN into
	// the dispersion fields the renderers divide and marshal.
	s = Summarize([]float64{1, math.NaN()})
	if math.IsNaN(s.CI95) || math.IsNaN(s.StdDev) {
		t.Fatalf("NaN sample leaked into CI/StdDev: %+v", s)
	}

	// Empty input stays the zero summary.
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary %+v, want zero value", s)
	}
}
