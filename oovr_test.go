package oovr_test

import (
	"encoding/json"
	"math"
	"testing"

	"oovr"
)

// The public-API tests double as integration tests: they exercise the whole
// stack (workload synthesis → NUMA simulator → schedulers → metrics) the
// way a downstream user would.

func smallScene(t *testing.T, frames int) *oovr.Scene {
	t.Helper()
	spec, ok := oovr.BenchmarkByAbbr("DM3")
	if !ok {
		t.Fatal("DM3 benchmark missing")
	}
	return spec.Generate(640, 480, frames, 1)
}

func TestQuickstartFlow(t *testing.T) {
	sc := smallScene(t, 2)
	sys := oovr.NewSystem(oovr.DefaultOptions(), sc)
	m := oovr.Run(sys, oovr.NewOOVR())
	if m.Frames != 2 || m.TotalCycles <= 0 {
		t.Fatalf("OOVR render failed: %+v", m)
	}
}

func TestAllSchedulersRunViaPublicAPI(t *testing.T) {
	schedulers := []oovr.Planner{
		oovr.Baseline{},
		oovr.DefaultAFR(),
		oovr.TileV{},
		oovr.TileH{},
		oovr.ObjectSFR{},
		oovr.NewOOApp(),
		oovr.NewOOVR(),
	}
	for _, s := range schedulers {
		sys := oovr.NewSystem(oovr.DefaultOptions(), smallScene(t, 2))
		m := oovr.Run(sys, s)
		if m.Frames != 2 {
			t.Errorf("%s: frames = %d", s.Name(), m.Frames)
		}
		if m.TotalCycles <= 0 {
			t.Errorf("%s: no cycles", s.Name())
		}
	}
}

// TestStreamingSessionViaPublicAPI renders a scene incrementally through
// the façade's Session API and checks it matches batch mode.
func TestStreamingSessionViaPublicAPI(t *testing.T) {
	spec, _ := oovr.BenchmarkByAbbr("DM3")
	batch := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), spec.Generate(640, 480, 3, 1)), oovr.NewOOVR())

	st := spec.Stream(640, 480, 3, 1)
	ses := oovr.Open(oovr.NewSystem(oovr.DefaultOptions(), st.Header()), oovr.NewOOVR())
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		ses.SubmitFrame(f)
	}
	m := ses.Close()
	if m.TotalCycles != batch.TotalCycles || m.InterGPMBytes != batch.InterGPMBytes || m.Frames != batch.Frames {
		t.Errorf("streamed session diverged from batch: %+v vs %+v", m, batch)
	}
}

// TestSteadyStateOOVRSessionDoesNotAllocate pins the whole warm OO-VR
// frame path at zero allocations per frame: the workload stream's NextInto,
// the OO-VR planner with its TSL grouping and distribution engine, and
// driver.FrameLoop over the multi-GPU system. The setup is
// BenchmarkSimulatorFrame's: 8 frames warm the Grouper, the predictor and
// shipped residency before the count starts.
func TestSteadyStateOOVRSessionDoesNotAllocate(t *testing.T) {
	steadyStateAllocs(t, oovr.NewOOVR(), 8)
}

// TestSteadyStateBaselineSessionDoesNotAllocate pins the warm Baseline
// frame path, BenchmarkBaselineFrame's, at zero allocations per frame:
// every access is split across all GPMs and booked on the fabric.
func TestSteadyStateBaselineSessionDoesNotAllocate(t *testing.T) {
	steadyStateAllocs(t, oovr.Baseline{}, 4)
}

// steadyStateAllocs streams warm frames of 4-GPM HL2-1280 through p, then
// fails unless further frames allocate nothing.
func steadyStateAllocs(t *testing.T, p oovr.Planner, warm int) {
	if raceEnabled {
		t.Skip("the race runtime changes allocation counts")
	}
	spec, _ := oovr.BenchmarkByAbbr("HL2")
	st := spec.Stream(1280, 1024, 0, 1)
	sys := oovr.NewSystem(oovr.DefaultOptions(), st.Header())
	ses := oovr.Open(sys, p)
	var f oovr.Frame
	frame := func() {
		if !st.NextInto(&f) {
			t.Fatal("stream ended")
		}
		ses.SubmitFrame(&f)
	}
	for i := 0; i < warm; i++ {
		frame()
	}
	const runs = 100
	sys.ReserveFrames(runs + 1) // AllocsPerRun adds one warm-up call
	if avg := testing.AllocsPerRun(runs, frame); avg != 0 {
		t.Errorf("steady-state %s frame allocated %.2f times per frame, want 0", p.Name(), avg)
	}
}

// TestCustomPlannerViaPublicAPI exercises the open Planner contract the
// way examples/custom_scheduler does.
func TestCustomPlannerViaPublicAPI(t *testing.T) {
	m := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), smallScene(t, 2)), everythingOnGPM0{})
	if m.Frames != 2 || m.Scheme != "GPM0" {
		t.Errorf("planner run failed: %+v", m)
	}
}

type everythingOnGPM0 struct{}

func (everythingOnGPM0) Name() string { return "GPM0" }

func (everythingOnGPM0) Begin(sys *oovr.System) (oovr.FramePlanner, oovr.Profile) {
	return oovr.PlanFunc(func(f *oovr.Frame, fi int) oovr.Plan {
		task := oovr.Task{Color: oovr.ColorStriped}
		for oi := range f.Objects {
			task.Parts = append(task.Parts, oovr.TaskPart{
				Object: &f.Objects[oi], Mode: oovr.ModeBothSMP, GeomFrac: 1, FragFrac: 1,
			})
		}
		return oovr.Plan{Submissions: []oovr.Submission{{GPM: 0, Task: task}}}
	}), oovr.Profile{}
}

func TestPaperHeadlineOrderings(t *testing.T) {
	// The paper's headline claims, on the real workload through the public
	// API: OO-VR beats the baseline on single-frame latency and cuts
	// inter-GPM traffic by more than half.
	sc4 := func() *oovr.Scene { return smallScene(t, 4) }
	base := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), sc4()), oovr.Baseline{})
	ovr := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), sc4()), oovr.NewOOVR())
	if ovr.AvgFrameLatency() >= base.AvgFrameLatency() {
		t.Errorf("OOVR latency %v not below baseline %v", ovr.AvgFrameLatency(), base.AvgFrameLatency())
	}
	if ovr.InterGPMBytes >= base.InterGPMBytes/2 {
		t.Errorf("OOVR traffic %v not <50%% of baseline %v", ovr.InterGPMBytes, base.InterGPMBytes)
	}
}

func TestHardwareSweepsViaPublicAPI(t *testing.T) {
	opt := oovr.DefaultOptions()
	opt.Config = oovr.Table2Config().WithGPMs(8).WithLinkGBs(128)
	sys := oovr.NewSystem(opt, smallScene(t, 1))
	m := oovr.Run(sys, oovr.NewOOVR())
	if len(m.GPMBusyCycles) != 8 {
		t.Errorf("expected 8 GPMs, got %d", len(m.GPMBusyCycles))
	}
}

// TestNaNLinkBandwidthPanics pins that NaN options are refused when the
// system is built. Before the NaN guards each of them ran: NaN hop end
// times lost every comparison, so no link time was charged; a NaN
// OverlapFactor made a Baseline run report 0 cycles; and a NaN remote-cache
// hit rate failed only later, as a NaN DRAM reservation.
func TestNaNLinkBandwidthPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*oovr.Options)
	}{
		{"link bandwidth", func(o *oovr.Options) { o.Config = o.Config.WithLinkGBs(math.NaN()) }},
		{"overlap factor", func(o *oovr.Options) { o.OverlapFactor = math.NaN() }},
		{"remote cache hit rate", func(o *oovr.Options) { o.RemoteCacheHitRate = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := oovr.DefaultOptions()
			tc.set(&opt)
			defer func() {
				if recover() == nil {
					t.Errorf("a NaN %s built a system", tc.name)
				}
			}()
			oovr.NewSystem(opt, smallScene(t, 1))
		})
	}
}

func TestTSLViaPublicAPI(t *testing.T) {
	sc := smallScene(t, 1)
	objs := sc.Frames[0].Objects
	v := oovr.TSL(sc, objs[0].Textures, objs[0].Textures)
	if v <= 0 || v > 1 {
		t.Errorf("self-TSL = %v, want (0,1]", v)
	}
}

func TestEngineOverheadBits(t *testing.T) {
	if got := oovr.EngineOverheadBits(4); got != 960 {
		t.Errorf("EngineOverheadBits(4) = %d, Section 5.4 says 960", got)
	}
}

func TestExperimentViaPublicAPI(t *testing.T) {
	cases := oovr.BenchmarkCases()[:1]
	fig := oovr.Figure10(oovr.ExperimentOptions{Frames: 1, Seed: 1, Cases: cases})
	if len(fig.Series) != 1 || len(fig.Series[0].Values) != 1 {
		t.Fatalf("Figure10 shape wrong: %+v", fig)
	}
	if fig.Series[0].Values[0] < 1 {
		t.Errorf("best-to-worst ratio below 1: %v", fig.Series[0].Values[0])
	}
}

func TestRunSpecViaPublicAPI(t *testing.T) {
	// A declarative run must match the imperative construction exactly.
	rs := oovr.RunSpec{
		Workload:  oovr.WorkloadRef{Name: "DM3-640"},
		Scheduler: oovr.SchedulerRef{Name: "oovr"},
		Frames:    2,
		Seed:      1,
	}
	got, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), smallScene(t, 2)), oovr.NewOOVR())
	if got.TotalCycles != want.TotalCycles || got.InterGPMBytes != want.InterGPMBytes {
		t.Errorf("spec run diverged from imperative run:\n %+v\nvs\n %+v", got, want)
	}
	if h, err := rs.Hash(); err != nil || len(h) != 64 {
		t.Errorf("spec hash %q, err %v", h, err)
	}
}

func TestRegisterCustomPlanner(t *testing.T) {
	// A user policy registered by name becomes addressable from specs —
	// the extension seam examples/custom_scheduler describes. The registry
	// is process-global and rejects duplicates, so guard for -count > 1.
	registered := false
	for _, n := range oovr.RegisteredPlanners() {
		registered = registered || n == "test-afr-alias"
	}
	if !registered {
		oovr.RegisterPlanner("test-afr-alias", func(params json.RawMessage) (oovr.Planner, error) {
			return oovr.DefaultAFR(), nil
		})
	}
	found := false
	for _, n := range oovr.RegisteredPlanners() {
		found = found || n == "test-afr-alias"
	}
	if !found {
		t.Fatalf("registered planner missing from %v", oovr.RegisteredPlanners())
	}
	rs := oovr.RunSpec{
		Workload:  oovr.WorkloadRef{Name: "DM3-640"},
		Scheduler: oovr.SchedulerRef{Name: "test-afr-alias"},
		Frames:    1,
	}
	m, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Scheme != "Frame-Level" {
		t.Errorf("custom-registered planner ran as %q", m.Scheme)
	}
}
