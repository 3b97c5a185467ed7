package main

import (
	"math"
	"testing"
)

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false},
		{100, 0.5, true},
		{499, 0.5, true},
		{500, 0.9, true},
		{985, 0.9, true},  // figures: p90
		{1260, 0.9, true}, // oovrd_miss, fleet_sweep: p90
		{2900, 0.9, true}, // oovrd_hit passes: p90
		{5000, 0.99, true},
		{27862, 0.99, true}, // service_capacity: p99
		{50000, 0.999, true},
		{500000, 0.9999, true},
		{1 << 30, 0.9999, true},
	} {
		got, ok := tailLevel(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for q, want := range map[float64]float64{0: 1, 0.1: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(q=%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// spread the benchmark's acceptance is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{10, 20, 30, 40, 55}, 15, 47.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
