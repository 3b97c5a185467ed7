package obs

import (
	"strings"
	"testing"
)

// TestExpositionGolden pins the full /metrics output for a registry
// exercising every instrument kind: family ordering (sorted by name),
// HELP/TYPE lines, label rendering, histogram bucket cumulativity with the
// implicit +Inf bucket, _sum/_count, and function metrics.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("oovr_test_events_total", "Events seen.")
	g := r.NewGauge("oovr_test_depth", "Queue depth.")
	h := r.NewHistogram("oovr_test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	v := r.NewCounterVec("oovr_test_requests_total", "Requests.", "path", "status")
	r.NewGaugeFunc("oovr_test_alive", "Liveness.", func() float64 { return 1 })

	c.Add(3)
	c.Inc()
	g.Set(2.5)
	h.Observe(0.005) // bucket le=0.01
	h.Observe(0.05)  // bucket le=0.1
	h.Observe(0.05)
	h.Observe(42) // +Inf only
	v.With("/run", "2xx").Add(7)
	v.With("/batch", "5xx").Inc()

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP oovr_test_alive Liveness.
# TYPE oovr_test_alive gauge
oovr_test_alive 1
# HELP oovr_test_depth Queue depth.
# TYPE oovr_test_depth gauge
oovr_test_depth 2.5
# HELP oovr_test_events_total Events seen.
# TYPE oovr_test_events_total counter
oovr_test_events_total 4
# HELP oovr_test_latency_seconds Latency.
# TYPE oovr_test_latency_seconds histogram
oovr_test_latency_seconds_bucket{le="0.01"} 1
oovr_test_latency_seconds_bucket{le="0.1"} 3
oovr_test_latency_seconds_bucket{le="1"} 3
oovr_test_latency_seconds_bucket{le="+Inf"} 4
oovr_test_latency_seconds_sum 42.105
oovr_test_latency_seconds_count 4
# HELP oovr_test_requests_total Requests.
# TYPE oovr_test_requests_total counter
oovr_test_requests_total{path="/batch",status="5xx"} 1
oovr_test_requests_total{path="/run",status="2xx"} 7
`
	if got := sb.String(); got != want {
		t.Errorf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramCumulativity checks the cumulative-bucket invariant
// bucket(le_i) <= bucket(le_{i+1}) <= ... <= count on a spread of samples.
func TestHistogramCumulativity(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("oovr_test_dist_ms", "d", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 9, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	// Disjoint counts: [0.5,1]=2, (1,2]=1, (2,4]=1, (4,8]=1, +Inf=2.
	for _, line := range []string{
		`oovr_test_dist_ms_bucket{le="1"} 2`,
		`oovr_test_dist_ms_bucket{le="2"} 3`,
		`oovr_test_dist_ms_bucket{le="4"} 4`,
		`oovr_test_dist_ms_bucket{le="8"} 5`,
		`oovr_test_dist_ms_bucket{le="+Inf"} 7`,
		`oovr_test_dist_ms_count 7`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

// TestLabelEscaping pins backslash, quote and newline escaping in label
// values and HELP text.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewGaugeVec("oovr_test_weird", "multi\nline \\help", "name")
	v.With("a\"b\\c\nd").Set(1)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`# HELP oovr_test_weird multi\nline \\help`,
		`oovr_test_weird{name="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

// TestIncrementPathsDoNotAllocate pins the counter, gauge and histogram
// update paths at zero heap allocations — the contract that lets the
// simulator's hot loops stay instrumented under the 0 allocs/op benchmark
// gates.
func TestIncrementPathsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("oovr_test_hot_total", "")
	g := r.NewGauge("oovr_test_hot", "")
	h := r.NewHistogram("oovr_test_hot_seconds", "", DefBuckets)
	vc := r.NewCounterVec("oovr_test_hotvec_total", "", "k").With("v")
	for name, fn := range map[string]func(){
		"counter":     func() { c.Inc(); c.Add(2) },
		"gauge":       func() { g.Set(1); g.Add(0.5) },
		"histogram":   func() { h.Observe(0.004); h.Observe(99) },
		"vec-counter": func() { vc.Inc() },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s increment allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestNamingScheme exercises CheckName — the vet-style gate every
// registration passes through.
func TestNamingScheme(t *testing.T) {
	ok := []struct {
		name string
		kind Kind
	}{
		{"oovr_server_cache_hits_total", KindCounter},
		{"oovr_fleet_pending", KindGauge},
		{"oovr_server_run_duration_seconds", KindHistogram},
		{"oovr_service_frame_ms", KindHistogram},
	}
	for _, c := range ok {
		if err := CheckName(c.name, c.kind); err != nil {
			t.Errorf("CheckName(%q, %v): unexpected error %v", c.name, c.kind, err)
		}
	}
	bad := []struct {
		name string
		kind Kind
	}{
		{"server_cache_hits_total", KindCounter}, // missing oovr_ prefix
		{"oovr_server_cacheHits_total", KindCounter},
		{"oovr_server_cache_hits", KindCounter},     // counter without _total
		{"oovr_fleet_pending_total", KindGauge},     // gauge with _total
		{"oovr_server_run_duration", KindHistogram}, // histogram without unit
		{"oovr__double_underscore_total", KindCounter},
		{"oovr", KindGauge},
	}
	for _, c := range bad {
		if err := CheckName(c.name, c.kind); err == nil {
			t.Errorf("CheckName(%q, %v): want error, got nil", c.name, c.kind)
		}
	}
}

// TestRegistrationPanics pins that scheme violations and duplicates fail
// loudly at startup rather than shipping a misnamed metric.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewCounter("oovr_test_dup_total", "")
	mustPanic("duplicate", func() { r.NewCounter("oovr_test_dup_total", "") })
	mustPanic("bad name", func() { r.NewCounter("oovr_test_bad", "") })
	mustPanic("bad label", func() { r.NewCounterVec("oovr_test_v_total", "", "BadLabel") })
	mustPanic("unsorted buckets", func() { r.NewHistogram("oovr_test_h_ms", "", []float64{2, 1}) })
}
