package oovr_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section. Each benchmark regenerates its
// figure/table through the experiment harness and reports the headline
// number(s) as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints paper-comparable values
// (EXPERIMENTS.md archives a full run of cmd/oovrfigures with the same
// harness at full scale; the benchmarks use a reduced case set to keep
// iteration times reasonable).

import (
	"strings"
	"testing"

	"oovr"
	"oovr/internal/link"
	"oovr/internal/mem"
	"oovr/internal/scene"
	"oovr/internal/service"
	"oovr/internal/sim"
	"oovr/internal/spec"
	"oovr/internal/topo"
)

// benchOptions keeps per-iteration cost low: two representative cases
// (one low-resolution, one high-draw-count) and the default frame counts.
func benchOptions() oovr.ExperimentOptions {
	all := oovr.BenchmarkCases()
	return oovr.ExperimentOptions{
		Frames: 4,
		Seed:   1,
		Cases:  []oovr.BenchmarkCase{all[0] /* DM3-640 */, all[4] /* HL2-1280 */},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func reportSeries(b *testing.B, fig oovr.Figure, metricSuffix string) {
	b.Helper()
	for _, s := range fig.Series {
		// testing.B metric units must be whitespace-free.
		name := strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(s.Name)
		b.ReportMetric(mean(s.Values), name+metricSuffix)
	}
}

// BenchmarkTable3WorkloadSynthesis measures generating the paper's nine
// benchmark traces (Table 3).
func BenchmarkTable3WorkloadSynthesis(b *testing.B) {
	cases := oovr.BenchmarkCases()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			sc := c.Spec.Generate(c.Width, c.Height, 1, 1)
			if len(sc.Frames) != 1 {
				b.Fatal("bad scene")
			}
		}
	}
}

// BenchmarkE0SMPValidation regenerates the Section 3 SMP validation
// (paper: 1.27x speedup over sequential stereo).
func BenchmarkE0SMPValidation(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.SMPValidation(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkF4BandwidthSensitivity regenerates Figure 4 (paper: 64 GB/s
// links cost the baseline 42% versus 1 TB/s).
func BenchmarkF4BandwidthSensitivity(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure4(benchOptions())
	}
	reportSeries(b, fig, ":perf")
}

// BenchmarkF7AFR regenerates Figure 7 (paper: AFR 1.67x overall, 1.59x
// single-frame latency).
func BenchmarkF7AFR(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure7(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkF8SFRPerformance regenerates Figure 8 (paper: TileV 1.28x,
// TileH 1.03x, Object 1.60x over baseline).
func BenchmarkF8SFRPerformance(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure8(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkF9SFRTraffic regenerates Figure 9 (paper: TileV 1.50x, TileH
// 1.44x, Object 0.60x of baseline inter-GPM traffic).
func BenchmarkF9SFRTraffic(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure9(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkF10Imbalance regenerates Figure 10 (paper: best-to-worst GPM
// ratios of 1.2-2.4 under round-robin object SFR).
func BenchmarkF10Imbalance(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure10(benchOptions())
	}
	reportSeries(b, fig, ":ratio")
}

// BenchmarkF15Speedup regenerates Figure 15 (paper: OO_APP 1.99x, OO-VR
// 2.58x single-frame speedup over baseline).
func BenchmarkF15Speedup(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure15(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkF16Traffic regenerates Figure 16 (paper: OO-VR saves 76% of the
// baseline's inter-GPM traffic).
func BenchmarkF16Traffic(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure16(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkF17BandwidthScaling regenerates Figure 17 (paper: OO-VR is
// nearly insensitive to link bandwidth).
func BenchmarkF17BandwidthScaling(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure17(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkF18GPMScaling regenerates Figure 18 (paper: OO-VR 3.64x at 4
// GPMs and 6.27x at 8 GPMs over a single GPU).
func BenchmarkF18GPMScaling(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.Figure18(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkO1Overhead regenerates the Section 5.4 overhead analysis
// (960 bits of distribution-engine storage).
func BenchmarkO1Overhead(b *testing.B) {
	var bits int
	for i := 0; i < b.N; i++ {
		bits = oovr.EngineOverheadBits(4)
	}
	b.ReportMetric(float64(bits), "bits")
}

// Ablation benchmarks (DESIGN.md §4): each isolates one OO-VR mechanism.

// BenchmarkAblationNoBatching isolates the Equation (1) TSL grouping.
func BenchmarkAblationNoBatching(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.AblationNoBatching(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkAblationNoPredictor isolates the Equation (3) distribution
// engine.
func BenchmarkAblationNoPredictor(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.AblationNoPredictor(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// BenchmarkAblationNoDHC isolates the distributed hardware composition.
func BenchmarkAblationNoDHC(b *testing.B) {
	var fig oovr.Figure
	for i := 0; i < b.N; i++ {
		fig = oovr.AblationNoDHC(benchOptions())
	}
	reportSeries(b, fig, ":x")
}

// Micro-benchmarks of the simulator's hot paths.

// BenchmarkSimulatorFrame measures one steady-state OO-VR frame on the
// HL2-1280 workload: a streaming session renders frame after frame, so the
// incremental caches — TSL grouping, flow decompositions, shipped
// residency — are warm and each op is the marginal cost of one more frame,
// the number a long-running service pays per frame. The first frames
// (grouping rebuild, predictor calibration, residency buildup) run before
// the timer starts; the allocs/op figure gates the frame loop's
// steady-state heap traffic (scripts/bench_check.sh).
func BenchmarkSimulatorFrame(b *testing.B) {
	spec, _ := oovr.BenchmarkByAbbr("HL2")
	st := spec.Stream(1280, 1024, 0, 1)
	sys := oovr.NewSystem(oovr.DefaultOptions(), st.Header())
	ses := oovr.Open(sys, oovr.NewOOVR())
	var f scene.Frame
	for i := 0; i < 8; i++ {
		if !st.NextInto(&f) {
			b.Fatal("stream ended")
		}
		ses.SubmitFrame(&f)
	}
	sys.ReserveFrames(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !st.NextInto(&f) {
			b.Fatal("stream ended")
		}
		ses.SubmitFrame(&f)
	}
}

// BenchmarkServiceTick measures one steady-state serving-simulator step:
// one frame of one resident session rendered through the discrete-event
// engine — heap pop, deadline bookkeeping, the warm streaming frame itself,
// and the next frame's event push. The cell is a single node holding a
// single long-lived DM3-640 session (capacity 1; the λ burst beyond it is
// rejected during warm-up), so after the warm-up steps every Step() is
// exactly the marginal cost a serving cell pays per frame at steady state.
// scripts/bench_check.sh gates both the ns/op and the allocs/op (budget 0:
// the event heap and latency log are presized by Reserve, and the frame
// path reuses the streaming machinery's warm caches).
func BenchmarkServiceTick(b *testing.B) {
	sp := spec.ServiceSpec{
		ServiceVersion: 1,
		Nodes:          []spec.NodeGroup{{Count: 1}},
		Sessions:       []spec.SessionMix{{Workload: "DM3-640"}},
		Lambda:         2000,
		HorizonMs:      0.5,
		// The mean is astronomical so the one admitted session (seed 4
		// draws exactly one admission) outlives any realistic b.N.
		MeanFrames:         1e8,
		MaxSessionsPerNode: 1,
		Seed:               4,
	}
	cell, err := service.OpenCell(sp)
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up: the arrival burst, the rejections, and the session's first
	// frames (cold caches, predictor calibration) all land here.
	for i := 0; i < 64; i++ {
		if !cell.Step() {
			b.Fatal("cell drained during warm-up")
		}
	}
	cell.Reserve(b.N + 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cell.Step() {
			b.Fatal("cell drained; raise MeanFrames")
		}
	}
}

// BenchmarkSimulatorColdStart measures the end-to-end cold cost the old
// frame benchmark captured: scene generation, system construction and one
// cache-cold frame.
func BenchmarkSimulatorColdStart(b *testing.B) {
	spec, _ := oovr.BenchmarkByAbbr("HL2")
	sched := oovr.NewOOVR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := spec.Generate(1280, 1024, 1, 1)
		sys := oovr.NewSystem(oovr.DefaultOptions(), sc)
		m := oovr.Run(sys, sched)
		if m.Frames != 1 {
			b.Fatal("bad run")
		}
	}
}

// BenchmarkFabricReserve measures the interconnect's hot path —
// ReserveFlow with hop-level traffic accounting, called for every memory
// flow of every task — on the paper's dedicated fullmesh (single-hop
// routes) and on the routed switch topology (three hops through a shared
// backplane). scripts/bench_check.sh gates both variants like the frame
// benchmark, so routing overhead cannot creep into the per-flow cost
// unnoticed.
func BenchmarkFabricReserve(b *testing.B) {
	for _, name := range []string{"fullmesh", "switch"} {
		b.Run(name, func(b *testing.B) {
			g, err := topo.Build(topo.Params{Name: name, NumGPMs: 4, LinkGBs: 64})
			if err != nil {
				b.Fatal(err)
			}
			f := link.New(g, 1)
			f.AccountHops(mem.NewTraffic(4))
			flow := mem.Flow{Requester: 0, RemoteBySrc: []float64{0, 256, 1024, 4096}}
			b.ReportAllocs()
			b.ResetTimer()
			var at sim.Time
			for i := 0; i < b.N; i++ {
				// Feed each flow in at the previous one's completion so the
				// FIFO queues stay shallow and steady.
				at = f.ReserveFlow(at, flow)
			}
		})
	}
}

// BenchmarkTSLGrouping measures the middleware's batching pass on the
// densest workload (WE: 1697 draws).
func BenchmarkTSLGrouping(b *testing.B) {
	spec, _ := oovr.BenchmarkByAbbr("WE")
	sc := spec.Generate(640, 480, 1, 1)
	mw := oovr.NewMiddleware()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches := mw.GroupFrame(sc, &sc.Frames[0])
		if len(batches) == 0 {
			b.Fatal("no batches")
		}
	}
}
