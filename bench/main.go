// Command oovrbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in one process and prints every metric
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": 71.3, "unit": "1/s"}, ...}}
//
// Usage (bench/run.sh builds the binary and forwards its arguments):
//
//	oovrbench --workload NAME --seed S --seconds T --trace 0|1 [--append FILE]
//	oovrbench compare [-bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl
//	oovrbench pin > bench/expected.json
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then with layer-boundary wrappers and a CPU profile, and
// prints the per-layer metrics. Every output is checked: against the digests
// pinned in expected.json for seeds 1 and 2, and across execution paths for
// every seed. Any mismatch makes the run exit non-zero. README.md documents
// the workloads, the metrics and their bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"oovr/internal/experiments"
	"oovr/internal/spec"
	"oovr/internal/workload"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	// trace installs the layer-boundary wrappers (the traced pass).
	trace bool
	// smoke shrinks every input so the whole benchmark runs in a test.
	smoke bool
}

// bench is a workload after set-up: inputs built, servers listening,
// warm-up done. Set-up warms up on seed 1 whatever the run's seed, so that
// its time does not depend on the inputs.
type bench interface {
	// run is the timed phase: the workload's fixed work, or, for a
	// time-boxed workload, operations until its seconds have passed.
	run(rec *recorder)
	// verify checks, after the timing, some of the timed phase's outputs
	// against another execution path.
	verify(rec *recorder)
	// layers returns the traced pass's boundary metrics.
	layers(wall time.Duration) map[string]float64
	close()
}

type workloadDef struct {
	name  string
	setup func(c config, rec *recorder) (bench, error)
	// tail is the quantile op_tail_ms reports: the highest of p90, p99
	// and p99.9 that leaves at least minTailSamples of the workload's
	// operations beyond it at the --seconds BENCHMARK.json declares.
	tail float64
}

var workloads = []workloadDef{
	{"figures", setupFigures, 0.90},
	{"service_capacity", setupService, 0.99},
	{"oovrd_hit", setupOovrdHit, 0.90},
	{"oovrd_miss", setupOovrdMiss, 0.90},
	{"fleet_sweep", setupFleet, 0.90},
}

// Set-up runs at least minSetupReps times and setup_s is the median. Most
// set-ups take tens of milliseconds, where five samples left a spread of
// 30-50% across seeds, so a set-up repeats until setupBudget has been
// spent, at most maxSetupReps times.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = time.Second
)

// units sizes a fixed-work timed phase: one unit of work per nominal
// seconds of --seconds, at least one, where nominal is what one unit takes
// on the 2-vCPU reference host. The work thus depends on --seconds alone,
// never on how fast the code runs, and both sides of a comparison do the
// same operations.
func units(c config, nominal float64) int {
	return max(1, int(math.Round(c.seconds/nominal)))
}

// Matrix workloads (oovrd_miss, fleet_sweep) submit whole sweeps of
// experiments.SpecMatrix — the 7 schedulers × 9 cases `oovrsim -all
// -dump-spec` emits for oovrd — cycling over seeds S..S+sweepSeeds-1. One
// sweep takes about sweepSeconds on the reference host. Their set-up warms
// up on the first checkedSpecs specs of seed 1, and verify compares the
// result bodies of the run's first checkedSpecs specs with in-process
// execution.
const (
	sweepSeeds   = 16
	sweepSeconds = 0.6
	checkedSpecs = 4
)

// specSweeps returns the spec matrix at seeds S..S+n-1.
func specSweeps(c config, n int) [][]spec.RunSpec {
	opt := experiments.Options{}
	if c.smoke {
		opt.Frames = 1
		opt.Cases = workload.Cases()[:2]
	}
	var out [][]spec.RunSpec
	for k := 0; k < n; k++ {
		opt.Seed = c.seed + int64(k)
		out = append(out, experiments.SpecMatrix(opt, nil))
	}
	return out
}

// checkInProcess checks that each body is the Result in-process execution
// of the matching spec encodes.
func checkInProcess(rec *recorder, path string, specs []spec.RunSpec, bodies [][]byte) {
	for i, body := range bodies {
		rec.check(bytes.Equal(body, inProcessResult(specs[i])),
			"%s body of spec %d differs from in-process execution", path, i)
	}
}

// inProcessResult executes rs without any server: the canonical Result
// bytes every serving path must return for it (nil if it fails).
func inProcessResult(rs spec.RunSpec) []byte {
	m, err := rs.Run()
	if err != nil {
		return nil
	}
	res, err := spec.NewResult(rs, m)
	if err != nil {
		return nil
	}
	body, err := res.Encode()
	if err != nil {
		return nil
	}
	return body
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "pin":
			os.Exit(pinMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("oovrbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: figures, service_capacity, oovrd_hit, oovrd_miss, fleet_sweep")
	seed := fs.Int64("seed", 1, "input seed (1 and 2 are pinned in expected.json)")
	seconds := fs.Float64("seconds", 12, "time box of oovrd_hit; sizes the fixed work of the others")
	trace := fs.Int("trace", 0, "1: print the per-layer metrics of a traced run instead")
	appendPath := fs.String("append", "", "also append the result as a JSONL record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "oovrbench: usage: --workload NAME --seed S --seconds T --trace 0|1")
		return 2
	}
	c := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	// A hung simulation or server must not hang the benchmark: a traced run
	// takes 2⅓ timed phases plus set-ups, well inside this limit.
	limit := time.Duration((3*c.seconds + 120) * float64(time.Second))
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "oovrbench: %s: no result after %v\n", *name, limit)
		os.Exit(1)
	})
	out, err := run(*name, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oovrbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oovrbench:", err)
		return 1
	}
	if *appendPath != "" {
		if err := appendRecord(*appendPath, record{Workload: *name, Seed: *seed, Trace: c.trace, Result: out}); err != nil {
			fmt.Fprintln(os.Stderr, "oovrbench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// run executes one workload per c and returns its result line.
func run(name string, c config) (output, error) {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return output{}, fmt.Errorf("unknown workload %q", name)
	}
	var pins map[string]string // smoke inputs are never pinned
	if !c.smoke {
		if pins = pinsFor(name, c.seed); pins == nil {
			fmt.Fprintf(os.Stderr, "%s seed %d: unpinned, cross-path checks only\n", name, c.seed)
		}
	}
	if c.trace {
		return runTraced(*w, c, pins)
	}

	ref, err := newHostRef()
	if err != nil {
		return output{}, fmt.Errorf("reference: %w", err)
	}
	defer ref.close()
	rec := newRecorder(pins)
	rec.ref = ref
	// The host's speed before the set-ups, which setup_s is scaled by too.
	rec.pause()
	rec.pause()
	var b bench
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetupReps || (spent < setupBudget && len(setups) < maxSetupReps) {
		if b != nil {
			b.close()
		}
		// Each set-up starts from a collected heap, so none of them pays
		// for the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		if b, err = w.setup(c, rec); err != nil {
			return output{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	ph := measure(b, rec)
	b.verify(rec)
	b.close()
	if rec.ops == 0 || ph.wall <= 0 {
		return output{}, fmt.Errorf("%s: no operation completed", name)
	}
	summarize(*w, c, rec, ph.wall)
	ops := float64(rec.ops)
	// Times are scaled to the idle reference host (hostref.go).
	s := rec.speed()
	return finish(rec, map[string]float64{
		"setup_s":         median(setups) * s,
		"ops_per_s":       ops / ph.wall.Seconds() / s,
		"op_p50_ms":       percentile(rec.lat, 0.50) * s,
		"op_tail_ms":      percentile(rec.lat, w.tail) * s,
		"alloc_kb_per_op": float64(ph.alloc) / 1024 / ops,
	}, endToEnd)
}

// runTraced runs the workload three times in one process: a short untraced
// pass that warms the process (heap growth and first-touch page faults
// would otherwise slow the reference and make tracing look free), the
// untraced reference, and the traced pass. It checks that every pass
// produced the same outputs and reports the per-layer metrics.
func runTraced(w workloadDef, c config, pins map[string]string) (output, error) {
	plain := c
	plain.trace = false
	warm := plain
	warm.seconds = c.seconds / 3
	var recs []*recorder
	var phases []phase
	var vals map[string]float64
	var prof bytes.Buffer
	for _, pc := range []config{warm, plain, c} {
		// No reference slices: they would show in the CPU profile.
		rec := newRecorder(pins)
		b, err := w.setup(pc, rec)
		if err != nil {
			return output{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if pc.trace {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				b.close()
				return output{}, err
			}
		}
		ph := measure(b, rec)
		if pc.trace {
			pprof.StopCPUProfile()
			vals = b.layers(ph.wall)
		}
		b.verify(rec)
		b.close()
		if rec.ops == 0 || ph.wall <= 0 {
			return output{}, fmt.Errorf("%s: no operation completed", w.name)
		}
		recs, phases = append(recs, rec), append(phases, ph)
	}
	rec, ph := recs[2], phases[2]
	summarize(w, c, rec, ph.wall)
	// The untraced passes count as checks of the traced one.
	for _, r := range recs[:2] {
		rec.check(sameOutputs(r, rec), "traced outputs differ from untraced ones")
		rec.checks += r.attempted()
		rec.checksFailed += r.failures()
		rec.notes = append(r.notes, rec.notes...)
	}

	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return output{}, err
	}
	for k, v := range shares {
		vals[k] = v
	}
	refRate := float64(recs[1].ops) / phases[1].wall.Seconds()
	rate := float64(rec.ops) / ph.wall.Seconds()
	vals["multigpu.frames"] = float64(rec.frames)
	vals["trace_overhead_pct"] = (refRate/rate - 1) * 100
	vals["runtime.gc_cycles"] = float64(ph.gcs)
	vals["runtime.max_rss_mb"] = maxRSSMB()
	return finish(rec, vals, perLayer())
}

// phase is what measure observed of one timed phase.
type phase struct {
	wall  time.Duration
	alloc uint64 // bytes allocated
	gcs   uint32 // garbage collections
}

// measure runs the timed phase, from a freshly collected heap. Its wall
// time and collections leave out the reference slices' pauses.
func measure(b bench, rec *recorder) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec.mu.Lock()
	spent0, slices0 := rec.refSpent, rec.refSlices
	rec.mu.Unlock()
	t0 := time.Now()
	b.run(rec)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rec.mu.Lock()
	wall -= rec.refSpent - spent0
	forced := uint32(rec.refSlices - slices0)
	rec.mu.Unlock()
	return phase{wall, m1.TotalAlloc - m0.TotalAlloc, m1.NumGC - m0.NumGC - forced}
}

// finish assembles the result line: every metric in defs, 0 for those vals
// lacks.
func finish(rec *recorder, vals map[string]float64, defs []metricDef) (output, error) {
	out := output{
		Attempted: rec.attempted(),
		Failed:    rec.failures(),
		Metrics:   map[string]metric{},
	}
	out.Correct = out.Failed == 0
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return output{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, n := range rec.notes {
		fmt.Fprintln(os.Stderr, "FAIL:", n)
	}
	return out, nil
}

// summarize prints a human-readable line to stderr: the median and the
// workload's tail quantile with the sample count, flagging a tail that has
// fewer than minTailSamples beyond it.
func summarize(w workloadDef, c config, rec *recorder, wall time.Duration) {
	n := len(rec.lat)
	tail := fmt.Sprintf("p%g %.3fms", w.tail*100, percentile(rec.lat, w.tail))
	if q, ok := tailLevel(n); !ok || q < w.tail {
		tail += fmt.Sprintf(" (fewer than %d samples beyond it)", minTailSamples)
	}
	mode := ""
	if c.trace {
		mode = " (traced)"
	}
	fmt.Fprintf(os.Stderr, "%s%s seed %d: %d ops in %.2fs (%.1f/s), %d frames; op p50 %.3fms, %s, n=%d; host speed %.3f (times as measured)\n",
		w.name, mode, c.seed, rec.ops, wall.Seconds(), float64(rec.ops)/wall.Seconds(), rec.frames,
		percentile(rec.lat, 0.5), tail, n, rec.speed())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// record is one archived run: the result line plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   output `json:"result"`
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
