package main

import (
	"math"
	"slices"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run prints, for every workload.
// An "op" is the workload's unit of requested work: a harness run
// (figures), a discrete event of a serving cell (service_capacity), a pass
// of 63 requests over the spec matrix (oovrd_hit), an HTTP request
// (oovrd_miss) or a swept spec (fleet_sweep). Host wall
// time is measured; simulated cycles are outputs, checked against pinned
// digests. op_tail_ms is taken at the workload's own tail quantile.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"alloc_kb_per_op", "kB"},
}

// cpuBuckets are the self-time buckets of the traced run's CPU profile:
// one per oovr/internal package, the benchmark's own code, and the runtime
// and standard-library costs an optimization is likely to move. They sum
// to 100%.
var cpuBuckets = []string{
	"core", "driver", "experiments", "fleet", "geom", "gpu", "link", "mem",
	"multigpu", "obs", "par", "pipeline", "render", "scene", "server",
	"service", "sim", "spec", "stats", "topo", "workload",
	"gc", "json", "sha256", "net", "bench", "other",
}

// cumFuncs are boundary functions whose cumulative profile share is
// reported as cum.<name>: the share of samples with any of the listed
// functions on the stack.
var cumFuncs = []struct {
	name  string
	funcs []string
}{
	{"system_build", []string{"oovr/internal/multigpu.New"}},
	{"scene_generate", []string{
		"oovr/internal/workload.Spec.Generate",
		"oovr/internal/workload.Spec.Stream",
		"oovr/internal/workload.(*Stream).NextInto",
	}},
	{"tsl_grouping", []string{"oovr/internal/core.Middleware.groupFrame"}},
	{"frame_run", []string{"oovr/internal/driver.(*FrameLoop).RunFrame"}},
	{"session_open", []string{"oovr/internal/service.(*Cell).arrive"}},
	{"spec_resolve", []string{"oovr/internal/spec.RunSpec.Resolve"}},
	{"spec_hash", []string{"oovr/internal/spec.RunSpec.Hash", "oovr/internal/spec.ServiceSpec.Hash"}},
	{"result_encode", []string{"oovr/internal/spec.Result.Encode"}},
	{"http_serve", []string{"net/http.(*conn).serve"}},
}

// boundaryMetrics are measured by the benchmark's own wrappers around each
// layer's public calls during the traced pass. A workload that never crosses
// a boundary reports 0 for it; none of them is a time, so every value that
// could read the same on every run is a share, a ratio or a count.
var boundaryMetrics = []metricDef{
	// figures: a timing Runner on experiments.Options and a timing
	// driver.Planner installed between Resolve and Execute.
	{"spec.hash_share", "%"},
	{"spec.resolve_share", "%"},
	{"spec.execute_share", "%"},
	{"driver.plan_share", "%"},
	{"experiments.runs", "count"},
	{"experiments.distinct_ratio", "ratio"},
	// service_capacity: OpenCell / Step / Report driven by the benchmark.
	{"service.open_cell_share", "%"},
	{"service.step_share", "%"},
	{"service.cells", "count"},
	{"service.sessions_admitted", "count"},
	// oovrd_hit, oovrd_miss: a timing middleware around Server.ServeHTTP;
	// handler time over client round trip.
	{"server.handler_share", "%"},
	// fleet_sweep: a timing wrapper around Worker.Exec and a timing
	// http.RoundTripper as Worker.HTTP. Shares are of wall × workers.
	{"fleet.worker_busy_share", "%"},
	{"fleet.lease_rpc_share", "%"},
	{"fleet.complete_rpc_share", "%"},
	{"fleet.useful_lease_ratio", "ratio"},
	{"fleet.idle_sleeps", "count"},
	{"fleet.rpc_retries", "count"},
	// Every workload.
	{"multigpu.frames", "count"},
	{"trace_overhead_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"runtime.max_rss_mb", "MB"},
}

// perLayer is the full list a traced run prints, in BENCHMARK.json order.
func perLayer() []metricDef {
	var out []metricDef
	for _, b := range cpuBuckets {
		out = append(out, metricDef{"cpu." + b, "%"})
	}
	for _, c := range cumFuncs {
		out = append(out, metricDef{"cum." + c.name, "%"})
	}
	return append(out, boundaryMetrics...)
}

// percentile is the nearest-rank q-quantile of xs (xs is not modified).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

// tailLevels are the percentiles a tail is reported at, highest last.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minTailSamples is how many samples a reported tail quantile must leave
// beyond it. With ten, p99 of the 1260 per-spec latencies of oovrd_miss and
// fleet_sweep spread by 23% across seeds, close to its 25% bound.
const minTailSamples = 50

// tailLevel returns the highest of tailLevels that leaves at least
// minTailSamples of n samples beyond it, and false when even the median
// does not.
func tailLevel(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= minTailSamples-1e-9 {
			best, ok = q, true
		}
	}
	return best, ok
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so spreads computed here
// agree with ones computed there.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
