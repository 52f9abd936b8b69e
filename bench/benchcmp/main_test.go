package main

import "testing"

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    series
		want string
	}{
		{"faster everywhere", series{better: "lower", bound: 0.1,
			old: []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10},
			new: []float64{9, 9.1, 8.9, 9.2, 8.8, 9, 9.1, 8.9, 9, 9}}, "better"},
		{"slower beyond the bound", series{better: "lower", bound: 0.1,
			old: []float64{10, 10.1, 9.9, 10, 10},
			new: []float64{12, 12.1, 11.9, 12, 12}}, "worse"},
		{"slower within the bound", series{better: "lower", bound: 0.1,
			old: []float64{10, 10.1, 9.9, 10, 10},
			new: []float64{10.4, 10.5, 10.3, 10.4, 10.4}}, "unchanged"},
		{"noise wider than the bound", series{better: "lower", bound: 0.1,
			old: []float64{6, 14, 10, 8, 12},
			new: []float64{7, 13, 10, 9, 11}}, "unresolved"},
		{"throughput drop", series{better: "higher", bound: 0.1,
			old: []float64{500, 505, 495, 500},
			new: []float64{400, 405, 395, 400}}, "worse"},
		{"exact count unchanged", series{better: "lower",
			old: []float64{0, 0, 0}, new: []float64{0, 0, 0}}, "unchanged"},
		{"exact count up by one", series{better: "lower",
			old: []float64{0, 0, 0}, new: []float64{1, 1, 1}}, "worse"},
		{"absolute bound absorbs a small rise", series{better: "lower", absBound: 0.25,
			old: []float64{2, 2, 2}, new: []float64{2.2, 2.2, 2.2}}, "unchanged"},
		{"per-layer drift is not a regression", series{better: "lower", layer: true,
			old: []float64{10, 11, 9, 10}, new: []float64{11, 10, 10, 12}}, "unchanged"},
		{"per-layer slower in every pair", series{better: "lower", layer: true,
			old: []float64{10, 10.1, 9.9, 10}, new: []float64{12, 12.1, 11.9, 12}}, "worse"},
	} {
		if got := verdict(&tc.s); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
