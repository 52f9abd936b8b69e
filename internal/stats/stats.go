package stats

import (
	"fmt"
	"math"
)

// Accumulator integrates a per-cycle quantity so its time average can be
// reported (e.g. "average IQ entries in use per cycle").
type Accumulator struct {
	sum    float64
	cycles uint64
	max    float64
}

// Add records the quantity's value for one cycle.
func (a *Accumulator) Add(v float64) {
	a.sum += v
	a.cycles++
	if v > a.max {
		a.max = v
	}
}

// AddN records the same value for n cycles. It equals n calls to Add
// exactly while v and the running sum are integers below 2^53, which
// holds for every per-cycle occupancy the simulator samples.
func (a *Accumulator) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	a.sum += v * float64(n)
	a.cycles += n
	if v > a.max {
		a.max = v
	}
}

// Mean returns the time average.
func (a *Accumulator) Mean() float64 {
	if a.cycles == 0 {
		return 0
	}
	return a.sum / float64(a.cycles)
}

// Max returns the maximum observed value.
func (a *Accumulator) Max() float64 { return a.max }

// Reset discards all samples (warm-up/measured-region boundaries).
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Cycles returns the number of samples.
func (a *Accumulator) Cycles() uint64 { return a.cycles }

// Summary condenses seed-replicated samples of one metric into the
// form campaign tables report: mean ± half-width of the 95% confidence
// interval. Single-sample "results" — the blind spot the scenario
// matrix exists to remove — show up as N=1 with CI95 = 0.
type Summary struct {
	N        int     // sample count
	Mean     float64 // arithmetic mean
	CI95     float64 // half-width of the 95% CI (0 when N < 2)
	Min, Max float64 // sample extremes
	StdDev   float64 // sample standard deviation (Bessel-corrected)
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom; beyond that the normal 1.96 is close enough.
var tCrit95 = [31]float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// Summarize computes the mean and 95% confidence interval of vals
// using the Student-t distribution (the sample counts of a seed-
// replicated campaign are far too small for a normal approximation).
func Summarize(vals []float64) Summary {
	s := Summary{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = vals[0], vals[0]
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		// A single sample has no dispersion estimate: the CI is 0 by
		// definition (and must never be NaN — campaign tables and the
		// service's JSON both consume it).
		return s
	}
	ss := 0.0
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.N-1))
	df := s.N - 1
	t := 1.960
	if df < len(tCrit95) {
		t = tCrit95[df]
	}
	s.CI95 = t * s.StdDev / math.Sqrt(float64(s.N))
	// Zero-variance replicates (deterministic metrics across seeds) and
	// pathological inputs must summarize with CI95 = 0, never NaN or a
	// negative width: json.Marshal rejects NaN outright, so one poisoned
	// metric would otherwise take down a whole campaign response.
	if math.IsNaN(s.CI95) || math.IsInf(s.CI95, 0) || s.CI95 < 0 {
		s.CI95 = 0
	}
	if math.IsNaN(s.StdDev) || math.IsInf(s.StdDev, 0) {
		s.StdDev = 0
	}
	return s
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95, s.N)
}
