package oovr_test

// Microbenchmarks of the simulator's layers, for profiling: the warm frame
// loop under OO-VR and under Baseline (whose accesses are striped across
// every GPM, so it stresses the one-pass split and fabric booking most),
// the serving-simulator tick, a cold start, the fabric's per-source
// reservation and TSL grouping. They are not a gate. Allocation budgets are ordinary tests
// (TestSteadyStateOOVRSessionDoesNotAllocate,
// TestSteadyStateServiceTickDoesNotAllocate, TestColdRunAllocBudget), and
// speed is judged end to end by scripts/bench_ab.sh, a same-host A/B of
// bench/run.sh. For example:
//
//	go test -run '^$' -bench 'BenchmarkSimulatorFrame$' -benchmem -cpuprofile cpu.pprof .

import (
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

// BenchmarkSimulatorFrame measures one steady-state OO-VR frame on the
// HL2-1280 workload: a streaming session renders frame after frame, so the
// incremental caches — TSL grouping, flow decompositions, shipped
// residency — are warm and each op is the marginal cost of one more frame,
// the number a long-running service pays per frame. The first frames
// (grouping rebuild, predictor calibration, residency buildup) run before
// the timer starts; TestSteadyStateOOVRSessionDoesNotAllocate pins this
// loop at zero allocations.
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

// BenchmarkBaselineFrame measures one steady-state 4-GPM Baseline frame on
// HL2-1280, the costliest planner of the figure runs: every texture sample
// of its shared striped L2 is split across all four GPMs and booked on the
// links, so this is the memory split and fabric booking under the heaviest
// load. Warm-up frames run before the timer starts;
// TestSteadyStateBaselineSessionDoesNotAllocate pins this loop at zero
// allocations.
func BenchmarkBaselineFrame(b *testing.B) {
	spec, _ := oovr.BenchmarkByAbbr("HL2")
	st := spec.Stream(1280, 1024, 0, 1)
	sys := oovr.NewSystem(oovr.DefaultOptions(), st.Header())
	ses := oovr.Open(sys, oovr.Baseline{})
	var f scene.Frame
	for i := 0; i < 4; i++ {
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
// TestSteadyStateServiceTickDoesNotAllocate pins it at zero allocations:
// the event heap and latency log are presized by Reserve, and the frame
// path reuses the streaming machinery's warm caches.
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

// BenchmarkSimulatorColdStart measures one cold run on the path every
// /run, fleet job, figure run and benchmark operation takes: a one-frame
// HL2-1280 OO-VR RunSpec, which streams its scene, builds the system and
// renders one cache-cold frame. The scene prefix (header and frame 0) is
// a process-cache hit after the first iteration, as it is for every run
// of a figure after the first of its case.
func BenchmarkSimulatorColdStart(b *testing.B) {
	s := oovr.RunSpec{
		Workload:  oovr.WorkloadRef{Name: "HL2-1280"},
		Scheduler: oovr.SchedulerRef{Name: "oovr"},
		Frames:    1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := s.Run()
		if err != nil || m.Frames != 1 {
			b.Fatal("bad run", err)
		}
	}
}

// BenchmarkFabricReserve measures the interconnect's hot path — the
// per-source Reserve the memory system calls for each remote share of
// every access — on the paper's dedicated fullmesh (single-hop routes) and
// on the routed switch topology (three hops through a shared backplane).
// Each op is one access of GPM 0 with remote bytes from the three other
// GPMs, booked in ascending source order.
func BenchmarkFabricReserve(b *testing.B) {
	for _, name := range []string{"fullmesh", "switch"} {
		b.Run(name, func(b *testing.B) {
			g, err := topo.Build(topo.Params{Name: name, NumGPMs: 4, LinkGBs: 64})
			if err != nil {
				b.Fatal(err)
			}
			f := link.New(g, 1)
			bySrc := []float64{0, 256, 1024, 4096}
			b.ReportAllocs()
			b.ResetTimer()
			var at sim.Time
			for i := 0; i < b.N; i++ {
				// Feed each access in at the previous one's completion so
				// the FIFO queues stay shallow and steady.
				end := at
				for src := 1; src < len(bySrc); src++ {
					end = max(end, f.Reserve(at, mem.GPMID(src), 0, bySrc[src]))
				}
				at = end
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
