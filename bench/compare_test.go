package main

import (
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", tight, tight, true, "ok"},
		{"slower within bound", tight, scaled(tight, 1.05), true, "ok"},
		{"slower past bound", tight, scaled(tight, 1.2), true, "worse"},
		{"fewer ops past bound", tight, scaled(tight, 0.8), false, "worse"},
		{"faster in every pair", tight, scaled(tight, 0.9), true, "better"},
		{"more ops in every pair", tight, scaled(tight, 1.1), false, "better"},
		{"parent too noisy", noisy, noisy, true, "unresolved"},
		{"noisy parent, every change run better", noisy, scaled(tight, 0.5), true, "better"},
	} {
		if got := judge(tc.a, tc.b, tc.lower, 0.1, 0).call; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// Set-up times of tens of milliseconds wobble by more than a share of
// themselves; the absolute floor keeps that from reading as a regression.
func TestJudgeAbsoluteFloor(t *testing.T) {
	setup := []float64{0.040, 0.052, 0.045, 0.061, 0.048, 0.043, 0.057, 0.050, 0.046, 0.054}
	slower := scaled(setup, 1.3) // +15 ms at the median
	if got := judge(setup, setup, true, 0.25, 0).call; got != "ok" {
		t.Errorf("no floor, same runs: %q, want ok", got)
	}
	if got := judge(setup, slower, true, 0.25, 0).call; got != "worse" {
		t.Errorf("no floor, 30%% slower: %q, want worse", got)
	}
	if got := judge(setup, slower, true, 0.25, 0.025).call; got != "ok" {
		t.Errorf("25 ms floor, 15 ms slower: %q, want ok", got)
	}
	if got := judge(setup, scaled(setup, 1.7), true, 0.25, 0.025).call; got != "worse" {
		t.Errorf("25 ms floor, 35 ms slower: %q, want worse", got)
	}
}

func TestCompareCountsWorseAndUnresolvedRows(t *testing.T) {
	var bf benchmarkFile
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"figures"})
	for _, m := range []string{"ops_per_s", "op_p50_ms"} {
		bf.EndToEnd = append(bf.EndToEnd, struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m, map[string]string{"ops_per_s": "higher", "op_p50_ms": "lower"}[m], 0.1})
	}
	rec := func(ops, p50 float64) record {
		return record{Workload: "figures", Result: output{Metrics: map[string]metric{
			"ops_per_s": {ops, "1/s"}, "op_p50_ms": {p50, "ms"},
		}}}
	}
	var a, b []record
	for i := 0; i < 5; i++ {
		a = append(a, rec(100+float64(i)/10, 10))
		b = append(b, rec(50+float64(i)/10, 10)) // half the throughput, same latency
	}
	var out strings.Builder
	if bad := compare(&out, bf, a, b); bad != 1 {
		t.Errorf("compare found %d bad rows, want 1:\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse verdict printed:\n%s", out.String())
	}
}
