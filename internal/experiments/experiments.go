// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulator: the Section 3 SMP validation, the Figure 4
// bandwidth sensitivity, the Section 4 characterization (Figures 7-10), and
// the Section 6 evaluation of OO-VR (Figures 15-18), plus the Section 5.4
// overhead analysis and the ablations DESIGN.md adds.
//
// Every function returns a stats.Figure whose series carry the same labels
// the paper's plots use, so cmd/oovrfigures and the benchmarks in the repo
// root can print paper-vs-measured tables directly.
package experiments

import (
	"encoding/json"
	"fmt"
	"slices"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/par"
	"oovr/internal/pipeline"
	"oovr/internal/scene"
	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/stats"
	"oovr/internal/workload"
)

// Options configure a harness run.
type Options struct {
	// Frames rendered per run. Two frames capture both the cold first
	// frame and the steady state; the figures average over them.
	Frames int
	// Seed drives the deterministic workload synthesis.
	Seed int64
	// Cases are the benchmark/resolution points to evaluate (default: the
	// paper's nine).
	Cases []workload.Case
	// System overrides the default multi-GPU configuration.
	System *multigpu.Options
	// Parallel is the number of worker goroutines evaluating independent
	// simulation cases (0 or 1 runs serially). Every case binds its own
	// multigpu.System and results are assembled by index, so any Parallel
	// value produces output identical to a serial run.
	Parallel int
	// Runner, when set, executes each case's RunSpec instead of the
	// in-process spec layer — the seam that lets cmd/oovrfigures shard a
	// figure across a fleet (fleet.Client.RunOne) without the figure code
	// knowing. Runs are content-addressed, so a remote Runner returns
	// bit-identical metrics to a local one.
	Runner func(spec.RunSpec) (multigpu.Metrics, error)
	// ServiceRunner is Runner's serving-simulator twin: when set, the FS
	// capacity figure executes its ServiceSpecs through it (e.g.
	// fleet.Client.RunService, which shards the sweep one cell per worker)
	// instead of in-process service.Run. Reports are content-addressed, so
	// either path yields byte-identical figures.
	ServiceRunner func(spec.ServiceSpec) (service.Report, error)
}

// Defaults fills unset fields.
func (o Options) defaults() Options {
	if o.Frames == 0 {
		o.Frames = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Cases) == 0 {
		o.Cases = workload.Cases()
	}
	return o
}

// sysOptions returns the system options to use.
func (o Options) sysOptions() multigpu.Options {
	if o.System != nil {
		return *o.System
	}
	return multigpu.DefaultOptions()
}

func (o Options) caseNames() []string {
	names := make([]string, len(o.Cases))
	for i, c := range o.Cases {
		names[i] = c.Name
	}
	return names
}

// caseSpec describes one harness run as a declarative RunSpec: the
// scheduler by registered name (plus factory params), the workload inline
// (harness cases are not always registered — sweeps and validation scenes
// ride along as self-contained recipes), and the explicit system options.
// Every run the harness performs is therefore submittable as-is to the
// oovrd job server.
func caseSpec(c workload.Case, scheduler string, params json.RawMessage, sysOpt multigpu.Options, frames int, seed int64) spec.RunSpec {
	return spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: c.Name, Width: c.Width, Height: c.Height, Inline: &c.Spec},
		Scheduler: spec.SchedulerRef{Name: scheduler, Params: params},
		Hardware:  &sysOpt,
		Frames:    frames,
		Seed:      seed,
	}
}

// perCase renders every case of o under one scheduler, factory params and
// system option set, at o.Frames and o.Seed, and returns the Metrics by
// case index. It is the figures' one execution funnel: o.Runner (a fleet, a
// recorder) when set, the in-process spec layer otherwise. The cases spread
// across o.Parallel workers; each binds its own multigpu.System — workload
// generation and the simulator share no mutable state across cases — and
// lands at its own index, so any Parallel value produces output identical
// to a serial run. A failure panics: the harness submits only specs it
// built itself, so the remaining causes (fleet quarantine, integrity
// mismatch, a dead coordinator) all invalidate the figure.
func (o Options) perCase(scheduler string, params json.RawMessage, sysOpt multigpu.Options) []multigpu.Metrics {
	run := o.Runner
	if run == nil {
		run = spec.RunSpec.Run
	}
	ms := make([]multigpu.Metrics, len(o.Cases))
	par.ForEach(o.Parallel, len(o.Cases), func(ci int) {
		m, err := run(caseSpec(o.Cases[ci], scheduler, params, sysOpt, o.Frames, o.Seed))
		if err != nil {
			panic(err)
		}
		ms[ci] = m
	})
	return ms
}

// each reads one metric off every run.
func each(ms []multigpu.Metrics, metric func(multigpu.Metrics) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = metric(m)
	}
	return out
}

// ratio divides num by den index by index. It is plain division, unlike
// stats.Normalize: a zero base (no inter-GPM bytes on a one-GPM template)
// prints as Inf or NaN instead of panicking.
func ratio(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i]
	}
	return out
}

func totalCycles(m multigpu.Metrics) float64   { return m.TotalCycles }
func interGPMBytes(m multigpu.Metrics) float64 { return m.InterGPMBytes }

// plannerLabel resolves a registered scheduler to its figure label.
func plannerLabel(name string) string {
	p, err := spec.NewPlanner(name, nil)
	if err != nil {
		panic(err)
	}
	return p.Name()
}

// ComparisonSchedulers are the seven evaluated schemes in the figures'
// order — the default scope of SpecMatrix (deliberately not the whole
// registry: the "single" validation vehicle and user-registered policies
// only enter a matrix when asked for by name).
func ComparisonSchedulers() []string {
	return []string{"baseline", "afr", "tilev", "tileh", "object", "ooapp", "oovr"}
}

// FigureSchedulers returns the scheme set a case-level experiment
// evaluates, for scoping a -dump-spec job matrix; it lives beside the
// figure functions so a changed figure updates its matrix in the same
// file. Nil means the experiment runs no flat scheduler-by-case matrix:
// the tables (T1-T3, O1) simulate nothing, E0's validation sweep
// (paired SMP/sequential modes on single-GPU hardware over extra scenes)
// is not expressible this way, and FS submits ServiceSpecs rather than
// RunSpecs (its job list is service.CellSpecs over the fsSpec grid). Two documented approximations: the
// hardware sweeps (F4/F17/F18, and FT's topology x bandwidth grid) report
// their scheme set evaluated at the caller's template hardware only, and
// the ablations (A1-A4) list their
// default-configured schemes — the parameter variants (disabled
// mechanisms, threshold/cap sweeps) stay inside the figure functions.
func FigureSchedulers(id string) []string {
	return map[string][]string{
		"F4":  {"baseline"},
		"F7":  {"baseline", "afr"},
		"F8":  {"baseline", "tilev", "tileh", "object"},
		"F9":  {"baseline", "tilev", "tileh", "object"},
		"F10": {"object"},
		"F15": {"baseline", "object", "afr", "ooapp", "oovr"},
		"F16": {"baseline", "object", "oovr"},
		"F17": {"baseline", "object", "oovr"},
		"F18": {"baseline", "object", "oovr"},
		"FT":  {"baseline", "oovr"},
		"BRK": {"oovr"},
		"A1":  {"baseline", "oovr"},
		"A2":  {"baseline", "oovr"},
		"A3":  {"baseline", "oovr"},
		"A4":  {"baseline", "oovr"},
	}[id]
}

// SpecMatrix enumerates the harness's standing job list as RunSpecs: every
// named scheduler (default configuration) over every case of o, at o's
// frames/seed/system options. cmd/oovrfigures -dump-spec emits it, and a
// POST of the encoded array to oovrd's /batch endpoint computes the raw
// per-scheme metrics the comparison figures normalize (see
// FigureSchedulers for what the matrix approximates per experiment).
func SpecMatrix(o Options, schedulers []string) []spec.RunSpec {
	o = o.defaults()
	if len(schedulers) == 0 {
		schedulers = ComparisonSchedulers()
	}
	var out []spec.RunSpec
	for _, s := range schedulers {
		for _, c := range o.Cases {
			out = append(out, caseSpec(c, s, nil, o.sysOptions(), o.Frames, o.Seed))
		}
	}
	return out
}

// E0SMPValidation reproduces the Section 3 validation: on a single GPU,
// SMP-enabled stereo rendering versus sequentially rendering the two views.
// The paper measures a 27% speedup. Values are speedups (sequential cycles
// over SMP cycles), one per scene, including the VRWorks stand-ins.
func E0SMPValidation(o Options) stats.Figure {
	o = o.defaults()
	sysOpt := o.sysOptions()
	sysOpt.Config = sysOpt.Config.WithGPMs(1)

	o.Cases = append([]workload.Case(nil), o.Cases...)
	for _, name := range []string{"Sponza", "SanMiguel"} {
		sp := workload.ValidationSpec(name)
		r := sp.Resolutions[0]
		o.Cases = append(o.Cases, workload.Case{Name: name, Spec: sp, Width: r[0], Height: r[1]})
	}
	fig := stats.Figure{
		ID:      "Section 3 (SMP validation)",
		Caption: "single-GPU speedup of SMP stereo over sequential stereo (paper: 1.27x)",
		XLabels: o.caseNames(),
	}
	seq := o.perCase("single", json.RawMessage(`{"Mode": "sequential"}`), sysOpt)
	smp := o.perCase("single", json.RawMessage(`{"Mode": "smp"}`), sysOpt)
	fig.AddSeries("SMP speedup", ratio(each(seq, totalCycles), each(smp, totalCycles)))
	return fig
}

// singleGPU renders every object in one task on GPM0 with the given stereo
// mode — the Section 3 validation vehicle. It registers like any other
// policy ("single", Mode: smp|sequential), so validation runs are
// expressible as RunSpecs too.
type singleGPU struct{ mode pipeline.Mode }

func init() {
	spec.RegisterPlanner("single", func(params json.RawMessage) (driver.Planner, error) {
		p := struct{ Mode string }{Mode: "smp"}
		if err := spec.DecodeParams(params, &p); err != nil {
			return nil, err
		}
		switch p.Mode {
		case "smp":
			return singleGPU{mode: pipeline.ModeBothSMP}, nil
		case "sequential":
			return singleGPU{mode: pipeline.ModeBothSequential}, nil
		default:
			return nil, fmt.Errorf("single: unknown Mode %q (smp, sequential)", p.Mode)
		}
	})
}

func (s singleGPU) Name() string { return "Single-GPU(" + s.mode.String() + ")" }

// Begin implements driver.Planner.
func (s singleGPU) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	var parts []multigpu.TaskPart // per-run scratch, rebuilt every frame
	subs := make([]driver.Submission, 1)
	return driver.PlanFunc(func(f *scene.Frame, fi int) driver.Plan {
		parts = slices.Grow(parts[:0], len(f.Objects))
		for oi := range f.Objects {
			parts = append(parts, multigpu.TaskPart{
				Object: &f.Objects[oi], Mode: s.mode, GeomFrac: 1, FragFrac: 1,
			})
		}
		subs[0] = driver.Submission{GPM: 0, Task: multigpu.Task{Color: multigpu.ColorStriped, Parts: parts}}
		return driver.Plan{Submissions: subs}
	}), driver.Profile{}
}

// F4Bandwidth reproduces Figure 4: baseline performance as the inter-GPM
// link bandwidth drops from 1 TB/s to 32 GB/s, normalized to 1 TB/s
// (paper: 128 GB/s -22%, 64 GB/s -42%, 32 GB/s -65% on average).
func F4Bandwidth(o Options) stats.Figure {
	o = o.defaults()
	fig := stats.Figure{
		ID:      "Figure 4",
		Caption: "baseline performance vs inter-GPM bandwidth, normalized to 1TB/s links",
		XLabels: o.caseNames(),
	}
	bws := []float64{1024, 256, 128, 64, 32}
	var ref []float64
	for _, bw := range bws {
		sysOpt := o.sysOptions()
		sysOpt.Config = sysOpt.Config.WithLinkGBs(bw)
		cycles := each(o.perCase("baseline", nil, sysOpt), totalCycles)
		if ref == nil {
			ref = cycles
		}
		fig.AddSeries(bwLabel(bw), ratio(ref, cycles))
	}
	return fig
}

func bwLabel(gbs float64) string {
	if gbs >= 1024 {
		return fmt.Sprintf("%gTB/s", gbs/1024)
	}
	return fmt.Sprintf("%gGB/s", gbs)
}

// F7AFR reproduces Figure 7: AFR's overall frame-rate speedup over the
// baseline (paper: 1.67x) and its single-frame latency increase (paper:
// +59%).
func F7AFR(o Options) stats.Figure {
	o = o.defaults()
	// AFR pipelines frames across GPMs; a short run never amortizes the
	// pipeline fill, so this experiment renders more frames than the rest.
	if o.Frames < 12 {
		o.Frames = 12
	}
	fig := stats.Figure{
		ID:      "Figure 7",
		Caption: "AFR vs baseline: overall performance (paper 1.67x) and single-frame latency (paper 1.59x)",
		XLabels: o.caseNames(),
	}
	base := o.perCase("baseline", nil, o.sysOptions())
	afr := o.perCase("afr", nil, o.sysOptions())
	fps, lat := multigpu.Metrics.FPSCycles, multigpu.Metrics.AvgFrameLatency
	fig.AddSeries("Overall performance", ratio(each(base, fps), each(afr, fps)))
	fig.AddSeries("Single frame latency", ratio(each(afr, lat), each(base, lat)))
	return fig
}

// F8SFRPerformance reproduces Figure 8: overall performance of the SFR
// schemes normalized to the baseline (paper averages: TileV 1.28x, TileH
// 1.03x, Object 1.60x).
func F8SFRPerformance(o Options) stats.Figure {
	o = o.defaults()
	fig := stats.Figure{
		ID:      "Figure 8",
		Caption: "SFR performance normalized to baseline (paper: V 1.28x, H 1.03x, Object 1.60x)",
		XLabels: o.caseNames(),
	}
	base := each(o.perCase("baseline", nil, o.sysOptions()), multigpu.Metrics.FPSCycles)
	for _, s := range []string{"tilev", "tileh", "object"} {
		fig.AddSeries(plannerLabel(s), ratio(base, each(o.perCase(s, nil, o.sysOptions()), multigpu.Metrics.FPSCycles)))
	}
	return fig
}

// F9SFRTraffic reproduces Figure 9: total inter-GPM memory traffic of the
// SFR schemes normalized to the baseline (paper averages: V 1.50x, H 1.44x,
// Object 0.60x).
func F9SFRTraffic(o Options) stats.Figure {
	o = o.defaults()
	fig := stats.Figure{
		ID:      "Figure 9",
		Caption: "SFR inter-GPM traffic normalized to baseline (paper: V 1.50x, H 1.44x, Object 0.60x)",
		XLabels: o.caseNames(),
	}
	base := each(o.perCase("baseline", nil, o.sysOptions()), interGPMBytes)
	for _, s := range []string{"tilev", "tileh", "object"} {
		fig.AddSeries(plannerLabel(s), ratio(each(o.perCase(s, nil, o.sysOptions()), interGPMBytes), base))
	}
	return fig
}

// F10Imbalance reproduces Figure 10: the best-to-worst per-GPM busy-time
// ratio under round-robin object-level SFR (paper: up to ~2.4).
func F10Imbalance(o Options) stats.Figure {
	o = o.defaults()
	fig := stats.Figure{
		ID:      "Figure 10",
		Caption: "object-level SFR best-to-worst GPM busy ratio (paper: 1.2-2.4)",
		XLabels: o.caseNames(),
	}
	fig.AddSeries("Best-to-worst ratio", each(o.perCase("object", nil, o.sysOptions()), multigpu.Metrics.BestToWorstBusyRatio))
	return fig
}

// F15Speedup reproduces Figure 15: single-frame speedup of each design
// point over the baseline (paper averages: Object 1.60x, 1TB/s-BW ~1.55x,
// OO_APP 1.99x, OO-VR 2.58x; Frame-level wins on throughput but loses ~40%
// on single-frame latency).
func F15Speedup(o Options) stats.Figure {
	o = o.defaults()
	fig := stats.Figure{
		ID:      "Figure 15",
		Caption: "single-frame speedup over baseline (paper: OO_APP ~1.99x, OOVR ~2.58x)",
		XLabels: o.caseNames(),
	}
	base := baselineLatencies(o)
	addNormalized := func(name, sched string, sysOpt multigpu.Options) {
		fig.AddSeries(name, ratio(base, each(o.perCase(sched, nil, sysOpt), multigpu.Metrics.AvgFrameLatency)))
	}
	addNormalized("Object-Level", "object", o.sysOptions())
	addNormalized("Frame-Level", "afr", o.sysOptions())
	tb := o.sysOptions()
	tb.Config = tb.Config.WithLinkGBs(1024)
	addNormalized("1TB/s-BW", "baseline", tb)
	addNormalized("OO_APP", "ooapp", o.sysOptions())
	addNormalized("OOVR", "oovr", o.sysOptions())
	return fig
}

// F16Traffic reproduces Figure 16: inter-GPM traffic of Object-level SFR
// and OO-VR normalized to the baseline (paper: OO-VR saves 76% vs baseline
// and 36% vs object-level).
func F16Traffic(o Options) stats.Figure {
	o = o.defaults()
	fig := stats.Figure{
		ID:      "Figure 16",
		Caption: "inter-GPM traffic normalized to baseline (paper: Object 0.60x, OOVR 0.24x)",
		XLabels: o.caseNames(),
	}
	base := each(o.perCase("baseline", nil, o.sysOptions()), interGPMBytes)
	fig.AddSeries("Baseline", stats.Normalize(base, base))
	for _, s := range []string{"object", "oovr"} {
		fig.AddSeries(plannerLabel(s), ratio(each(o.perCase(s, nil, o.sysOptions()), interGPMBytes), base))
	}
	return fig
}

// F17BandwidthScaling reproduces Figure 17: average speedup of Baseline,
// Object-level and OO-VR across inter-GPM bandwidths, normalized to the
// 64 GB/s baseline. The paper's OO-VR is nearly flat (link-insensitive).
func F17BandwidthScaling(o Options) stats.Figure {
	o = o.defaults()
	bws := []float64{32, 64, 128, 256}
	fig := stats.Figure{
		ID:      "Figure 17",
		Caption: "speedup vs inter-GPM bandwidth, normalized to 64GB/s baseline (OO-VR should be flat)",
		XLabels: []string{"32GB/s", "64GB/s", "128GB/s", "256GB/s"},
	}
	// Reference: baseline at 64 GB/s, averaged over cases.
	refOpt := o.sysOptions()
	refOpt.Config = refOpt.Config.WithLinkGBs(64)
	ref := each(o.perCase("baseline", nil, refOpt), totalCycles)
	for _, s := range []string{"baseline", "object", "oovr"} {
		vals := make([]float64, len(bws))
		for bi, bw := range bws {
			sysOpt := o.sysOptions()
			sysOpt.Config = sysOpt.Config.WithLinkGBs(bw)
			vals[bi] = stats.GeoMean(ratio(ref, each(o.perCase(s, nil, sysOpt), totalCycles)))
		}
		fig.AddSeries(plannerLabel(s), vals)
	}
	return fig
}

// F18GPMScaling reproduces Figure 18: average speedup over a single GPU as
// the GPM count grows 1→8 (paper: Baseline 2.08x@8, Object 3.47x@8, OO-VR
// 3.64x@4 and 6.27x@8).
func F18GPMScaling(o Options) stats.Figure {
	o = o.defaults()
	counts := []int{1, 2, 4, 8}
	fig := stats.Figure{
		ID:      "Figure 18",
		Caption: "speedup vs #GPMs over single GPU (paper: OOVR 3.64x@4, 6.27x@8)",
		XLabels: []string{"1", "2", "4", "8"},
	}
	// Single-GPU reference per case (SMP rendering on one GPM).
	oneOpt := o.sysOptions()
	oneOpt.Config = oneOpt.Config.WithGPMs(1)
	ref := each(o.perCase("single", nil, oneOpt), totalCycles)
	for _, s := range []string{"baseline", "object", "oovr"} {
		vals := make([]float64, len(counts))
		for ni, n := range counts {
			sysOpt := o.sysOptions()
			sysOpt.Config = sysOpt.Config.WithGPMs(n)
			vals[ni] = stats.GeoMean(ratio(ref, each(o.perCase(s, nil, sysOpt), totalCycles)))
		}
		fig.AddSeries(plannerLabel(s), vals)
	}
	return fig
}

// O1Overhead reproduces the Section 5.4 overhead analysis.
func O1Overhead() stats.Figure {
	b := core.EngineOverhead(4)
	fig := stats.Figure{
		ID:      "Section 5.4",
		Caption: "distribution engine overhead (paper: 960 bits, 0.59mm², 0.3W)",
		XLabels: []string{"counter bits", "batch-id bits", "register bits", "total bits", "area mm2", "power W"},
	}
	fig.AddSeries("engine", []float64{
		float64(b.CounterBits), float64(b.BatchIDBits), float64(b.RegisterBits),
		float64(b.TotalBits()), core.PaperAreaMM2, core.PaperPowerW,
	})
	return fig
}

// TrafficBreakdown reports OO-VR's residual inter-GPM traffic by kind
// (Section 6.2 attributes it to composition, command transmit and Z-test).
func TrafficBreakdown(o Options) stats.Figure {
	o = o.defaults()
	fig := stats.Figure{
		ID:      "Section 6.2",
		Caption: "OO-VR residual inter-GPM bytes by class (fraction of scheme total)",
		XLabels: []string{"texture", "vertex", "depth", "composition", "command"},
	}
	var sums [5]float64
	for _, m := range o.perCase("oovr", nil, o.sysOptions()) {
		tot := m.InterGPMBytes
		if tot == 0 {
			continue
		}
		sums[0] += m.RemoteTextureBytes / tot
		sums[1] += m.RemoteVertexBytes / tot
		sums[2] += m.RemoteDepthBytes / tot
		sums[3] += m.RemoteCompositionBytes / tot
		sums[4] += m.RemoteCommandBytes / tot
	}
	n := float64(len(o.Cases))
	fig.AddSeries("OOVR", []float64{sums[0] / n, sums[1] / n, sums[2] / n, sums[3] / n, sums[4] / n})
	return fig
}
