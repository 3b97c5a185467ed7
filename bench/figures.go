package main

import (
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"time"

	"oovr/internal/experiments"
	"oovr/internal/multigpu"
	"oovr/internal/spec"
	"oovr/internal/stats"
	"oovr/internal/workload"
)

// figureExperiment is one experiment `oovrfigures -exp all` prints. It
// requests perCase×cases+extra harness runs; that count, not the number of
// simulations the harness ends up executing, is the workload's op count, so
// a harness that memoizes duplicate runs shows as a gain.
type figureExperiment struct {
	id             string
	perCase, extra int
	fn             func(experiments.Options) stats.Figure
}

// figureExperiments is `oovrfigures -exp all` minus FS (the
// service_capacity workload) and the tables that simulate nothing, in the
// order the command prints them. With the paper's nine cases they request
// 985 runs, 661 of them distinct.
var figureExperiments = []figureExperiment{
	{"E0", 2, 4, experiments.E0SMPValidation},
	{"F4", 5, 0, experiments.F4Bandwidth},
	{"F7", 2, 0, experiments.F7AFR},
	{"F8", 4, 0, experiments.F8SFRPerformance},
	{"F9", 4, 0, experiments.F9SFRTraffic},
	{"F10", 1, 0, experiments.F10Imbalance},
	{"F15", 6, 0, experiments.F15Speedup},
	{"F16", 3, 0, experiments.F16Traffic},
	{"F17", 13, 0, experiments.F17BandwidthScaling},
	{"F18", 13, 0, experiments.F18GPMScaling},
	{"FT", 30, 0, experiments.FTopology},
	{"BRK", 1, 0, experiments.TrafficBreakdown},
	{"A1", 3, 0, experiments.A1NoBatching},
	{"A2", 3, 0, experiments.A2NoPredictor},
	{"A3", 3, 0, experiments.A3NoDHC},
	{"A4", 16, 0, experiments.A4TSLSweep},
}

// figuresNominal is what one cycle of figureExperiments takes on the
// reference host, in seconds.
const figuresNominal = 15

// figuresBench runs whole cycles of the experiments, at default frames,
// Parallel 1 and the run's seed, through the public
// experiments.Options.Runner seam.
type figuresBench struct {
	trace  bool
	rec    *recorder
	opt    experiments.Options
	exps   []figureExperiment
	cycles int
	// metrics collects the distinct Metrics of every run of the timed
	// phase: figures print rounded numbers, so the text alone would miss
	// small changes. A set over the whole phase, so that a harness which
	// skips duplicate runs, within or across experiments, still produces
	// the same digest.
	metrics map[string]bool

	// Traced-pass boundary totals.
	hash, resolve, execute, plan time.Duration
	runs                         int
	distinct                     map[string]bool
}

func setupFigures(c config, rec *recorder) (bench, error) {
	b := &figuresBench{
		trace: c.trace, rec: rec, exps: figureExperiments, cycles: units(c, figuresNominal),
		metrics: map[string]bool{}, distinct: map[string]bool{},
	}
	// Cases spelled out are the harness's defaults; the op count needs them.
	b.opt = experiments.Options{Seed: c.seed, Parallel: 1, Cases: workload.Cases()}
	if c.smoke {
		b.opt.Frames = 1
		b.opt.Cases = workload.Cases()[:2]
		b.exps = []figureExperiment{figureExperiments[0], figureExperiments[5], figureExperiments[11]} // E0, F10, BRK
	}
	// Warm-up: E0 at seed 1 through the Runner seam.
	warm := b.opt
	warm.Seed = 1
	warm.Runner = func(rs spec.RunSpec) (multigpu.Metrics, error) { return rs.Run() }
	experiments.E0SMPValidation(warm)
	b.opt.Runner = b.runSpec
	return b, nil
}

func (b *figuresBench) run(rec *recorder) {
	for k := 0; k < b.cycles; k++ {
		for _, e := range b.exps {
			fig := e.fn(b.opt)
			n := int64(e.perCase*len(b.opt.Cases) + e.extra)
			rec.output(e.id, []byte(fig.Render()), n)
			rec.done(n)
			rec.pause()
		}
	}
	rec.output("runs", []byte(strings.Join(slices.Sorted(maps.Keys(b.metrics)), "\n")), 0)
}

// verify runs E0 through the harness's default path, which must print the
// figure the timed phase printed through the Runner seam.
func (b *figuresBench) verify(rec *recorder) {
	e := b.exps[0]
	opt := b.opt
	opt.Runner = nil
	fig := e.fn(opt)
	rec.check(digest([]byte(fig.Render())) == rec.digestOf(e.id),
		"%s through the Runner seam differs from the in-process path", e.id)
}

// runSpec is the Runner: the same resolve-and-execute the harness does by
// default, timed per run. The traced pass splits it at the layer
// boundaries and wraps the planner.
func (b *figuresBench) runSpec(rs spec.RunSpec) (multigpu.Metrics, error) {
	t0 := time.Now()
	var m multigpu.Metrics
	if b.trace {
		h, err := rs.Hash()
		if err != nil {
			return m, err
		}
		t1 := time.Now()
		r, err := rs.Resolve()
		if err != nil {
			return m, err
		}
		t2 := time.Now()
		var planned time.Duration
		r.Planner = timedPlanner{Planner: r.Planner, spent: &planned}
		m = r.Execute()
		t3 := time.Now()
		b.hash += t1.Sub(t0)
		b.resolve += t2.Sub(t1)
		b.execute += t3.Sub(t2)
		b.plan += planned
		b.runs++
		b.distinct[h] = true
	} else {
		var err error
		if m, err = rs.Run(); err != nil {
			return m, err
		}
	}
	b.rec.latency(t0, time.Now())
	b.rec.addFrames(int64(m.Frames))
	js, err := json.Marshal(m)
	if err != nil {
		return m, err
	}
	b.metrics[string(js)] = true
	return m, nil
}

func (b *figuresBench) layers(wall time.Duration) map[string]float64 {
	share := func(d time.Duration) float64 { return 100 * d.Seconds() / wall.Seconds() }
	out := map[string]float64{
		"spec.hash_share":    share(b.hash),
		"spec.resolve_share": share(b.resolve),
		"spec.execute_share": share(b.execute),
		"driver.plan_share":  share(b.plan),
		"experiments.runs":   float64(b.runs),
	}
	if b.runs > 0 {
		out["experiments.distinct_ratio"] = float64(len(b.distinct)) / float64(b.runs)
	}
	return out
}

func (b *figuresBench) close() {}
