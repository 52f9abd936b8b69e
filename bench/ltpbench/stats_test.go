package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ltp"
	"ltp/bench/internal/benchstat"
	"ltp/internal/pipeline"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{6000, 5940}, // p99 itself: 60 samples beyond
		{1000, 990},  // p99 with exactly 10 beyond
		{500, 490},   // p99 would leave 5 beyond; p98 keeps 10
		{11, 1},      // only the lowest sample has ten beyond it
		{10, 10},     // no percentile qualifies: the maximum
	} {
		if got := benchstat.Tail(seq(tc.n)); got != tc.want {
			t.Errorf("Tail(1..%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if !math.IsNaN(benchstat.Tail(nil)) {
		t.Error("Tail of no samples is not NaN")
	}
}

func TestMedianEvenCount(t *testing.T) {
	if got := benchstat.Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median(4 values) = %v, want 2.5", got)
	}
	if got := benchstat.Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median(3 values) = %v, want 2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := benchstat.Quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestInversionsTieBand(t *testing.T) {
	cells := []rankCell{
		{group: "a", ref: 1.00, est: 2.0},
		{group: "a", ref: 1.01, est: 1.0}, // reversed, but within the 2% band
		{group: "a", ref: 1.10, est: 1.5}, // reversed against the first cell only
		{group: "b", ref: 5.00, est: 0.1}, // other scenario: never compared
	}
	if got := inversions(cells); got != 1 {
		t.Errorf("inversions = %d, want 1", got)
	}
}

func TestDigestStable(t *testing.T) {
	res := ltp.RunResult{Result: pipeline.Result{Cycles: 200, Committed: 100, CPI: 2, IPC: 0.5}}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	a := digest([][]byte{b, []byte("x")})
	if again := digest([][]byte{b, []byte("x")}); again != a {
		t.Fatalf("digest not repeatable: %s then %s", a, again)
	}
	if swapped := digest([][]byte{[]byte("x"), b}); swapped == a {
		t.Error("digest ignores part order")
	}
	// sha256("abc"), the FIPS 180-2 example: parts hash as one stream.
	if got := digest([][]byte{[]byte("a"), []byte("bc")}); got != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("digest(a, bc) = %s", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric dictionary in
// step: the file lists exactly the gated metrics, with the same units,
// directions and bounds, and exactly the workloads, in run order.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	gated := func(defs []metricDef, withBound bool) []metric {
		var out []metric
		for _, d := range defs {
			if !ungated[d.name] {
				m := metric{Name: d.name, Unit: d.unit, Better: d.better}
				if withBound {
					m.Bound = d.bound
				}
				out = append(out, m)
			}
		}
		return out
	}
	if want := gated(endToEnd, true); !reflect.DeepEqual(doc.EndToEnd, want) {
		t.Errorf("end_to_end = %+v, want %+v", doc.EndToEnd, want)
	}
	if want := gated(perLayer, false); !reflect.DeepEqual(doc.PerLayer, want) {
		t.Errorf("per_layer = %+v, want %+v", doc.PerLayer, want)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, want %v", names, want)
	}
}
