// Package benchstat holds the order statistics the benchmark reports
// and compares by: the median, quartiles, and the tail percentile with
// ten samples beyond it.
package benchstat

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Min returns the smallest value of xs, or NaN for no values.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[0]
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), so spreads computed here match the ones
// an outside checker computes from the same values. One value is its
// own quartiles; no values give NaN.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// Tail returns the tail value of xs: the 99th percentile (nearest rank)
// when at least ten samples lie beyond it, otherwise the highest
// percentile that still has ten samples beyond it. With fewer than
// eleven samples no percentile qualifies and the maximum is returned.
func Tail(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n < 11 {
		return s[n-1]
	}
	rank := min(int(math.Ceil(0.99*float64(n))), n-10)
	return s[rank-1]
}
