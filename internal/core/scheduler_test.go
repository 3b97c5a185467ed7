package core

import (
	"testing"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/render"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

func runOn(t *testing.T, s driver.Planner, frames int) multigpu.Metrics {
	t.Helper()
	sp, _ := workload.ByAbbr("HL2")
	sc := sp.Generate(1280, 1024, frames, 1)
	sys := multigpu.New(multigpu.DefaultOptions(), sc)
	m := driver.Run(sys, s)
	if m.Frames != frames {
		t.Fatalf("%s rendered %d frames, want %d", s.Name(), m.Frames, frames)
	}
	return m
}

// TestBatchQueueCapEngages pins the MaxBatchQueue regression: a frame with
// far more batches than 4×NumGPMs must drive the distribution engine's
// per-GPM queues to the cap, exercise the full-queue stall/fallback in the
// dispatch loop, and block data-affinity picks whose preferred GPM is full.
// (Before queue occupancy was tracked, QueuedBatches stayed 0 forever and
// the MaxBatchQueue limit plus the EarliestAvailable fallback were dead
// code.)
func TestBatchQueueCapEngages(t *testing.T) {
	v := NewOOVR()
	v.Stats = &EngineStats{}
	runOn(t, v, 4) // HL2: hundreds of batches per frame on 4 GPMs
	if v.Stats.MaxQueueDepth != MaxBatchQueue {
		t.Errorf("max queue depth %d, want the cap %d", v.Stats.MaxQueueDepth, MaxBatchQueue)
	}
	if v.Stats.FullQueueStalls == 0 {
		t.Error("deep scene never hit the full-queue stall path")
	}
	if v.Stats.AffinityBlocked == 0 {
		t.Error("deep scene never blocked an affinity pick on a full queue")
	}
}

// TestShallowSceneStaysUnderCap is the complement: with fewer batches than
// queue slots the engine must never stall.
func TestShallowSceneStaysUnderCap(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	// 640x480 DM3 has ~60 batches/frame; trim the frame to 8 objects so the
	// whole frame fits into the 4 GPMs' queues.
	sc := sp.Generate(640, 480, 2, 1)
	for fi := range sc.Frames {
		sc.Frames[fi].Objects = sc.Frames[fi].Objects[:8]
		for oi := range sc.Frames[fi].Objects {
			sc.Frames[fi].Objects[oi].DependsOn = scene.NoDependency
		}
	}
	v := NewOOVR()
	v.Stats = &EngineStats{}
	driver.Run(multigpu.New(multigpu.DefaultOptions(), sc), v)
	if v.Stats.FullQueueStalls != 0 {
		t.Errorf("shallow scene stalled %d times", v.Stats.FullQueueStalls)
	}
	if v.Stats.MaxQueueDepth > MaxBatchQueue {
		t.Errorf("queue depth %d exceeds cap %d", v.Stats.MaxQueueDepth, MaxBatchQueue)
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewOOApp().Name() != "OO_APP" || NewOOVR().Name() != "OOVR" {
		t.Errorf("names wrong: %q %q", NewOOApp().Name(), NewOOVR().Name())
	}
}

func TestOOVRBeatsBaselineOnLatencyAndTraffic(t *testing.T) {
	base := runOn(t, render.Baseline{}, 4)
	ovr := runOn(t, NewOOVR(), 4)
	if ovr.AvgFrameLatency() >= base.AvgFrameLatency() {
		t.Errorf("OOVR latency %v not below baseline %v", ovr.AvgFrameLatency(), base.AvgFrameLatency())
	}
	if ovr.InterGPMBytes >= base.InterGPMBytes {
		t.Errorf("OOVR traffic %v not below baseline %v", ovr.InterGPMBytes, base.InterGPMBytes)
	}
}

func TestOOVRBeatsOOApp(t *testing.T) {
	app := runOn(t, NewOOApp(), 4)
	ovr := runOn(t, NewOOVR(), 4)
	if ovr.TotalCycles >= app.TotalCycles {
		t.Errorf("full OOVR (%v cycles) should beat software-only OO_APP (%v)", ovr.TotalCycles, app.TotalCycles)
	}
}

func TestOOVRBalancesBetterThanOOApp(t *testing.T) {
	// The predictor's whole purpose (Section 5.2): balanced GPM occupancy.
	app := runOn(t, NewOOApp(), 4)
	ovr := runOn(t, NewOOVR(), 4)
	if ovr.BestToWorstBusyRatio() >= app.BestToWorstBusyRatio() {
		t.Errorf("OOVR busy ratio %v not below OO_APP %v",
			ovr.BestToWorstBusyRatio(), app.BestToWorstBusyRatio())
	}
}

func TestOOVRUsesAllGPMs(t *testing.T) {
	m := runOn(t, NewOOVR(), 2)
	for g, b := range m.GPMBusyCycles {
		if b == 0 {
			t.Errorf("GPM %d idle under OOVR", g)
		}
	}
}

func TestOOVRTrafficMatchesOOApp(t *testing.T) {
	// Section 6.2: "the inter-GPM traffic is the same under the impact of
	// OO_APP and OO-VR" — the saving is software-level. Allow 2x slack for
	// the hardware paths' extra duplication (straggler splits).
	app := runOn(t, NewOOApp(), 4)
	ovr := runOn(t, NewOOVR(), 4)
	lo, hi := app.InterGPMBytes/2, app.InterGPMBytes*2
	if ovr.InterGPMBytes < lo || ovr.InterGPMBytes > hi {
		t.Errorf("OOVR traffic %v far from OO_APP %v", ovr.InterGPMBytes, app.InterGPMBytes)
	}
}

func TestDisableDHCSlowsComposition(t *testing.T) {
	// Six frames amortize the cold start so the composition path dominates
	// the difference (matches the A3 ablation's conditions). Second-order
	// placement effects can still flip individual frames, so the assertion
	// allows a 2% tolerance in the unexpected direction.
	full := runOn(t, NewOOVR(), 6)
	noDHC := NewOOVR()
	noDHC.DisableDHC = true
	without := runOn(t, noDHC, 6)
	if without.TotalCycles < full.TotalCycles*0.98 {
		t.Errorf("removing DHC sped things up: %v -> %v", full.TotalCycles, without.TotalCycles)
	}
}

func TestDisablePredictorRunsRoundRobin(t *testing.T) {
	noPred := NewOOVR()
	noPred.DisablePredictor = true
	m := runOn(t, noPred, 2)
	if m.TotalCycles <= 0 {
		t.Fatalf("round-robin fallback failed")
	}
}

func TestDisableStragglerSplit(t *testing.T) {
	noSplit := NewOOVR()
	noSplit.DisableStragglerSplit = true
	m := runOn(t, noSplit, 2)
	if m.TotalCycles <= 0 {
		t.Fatalf("no-split variant failed")
	}
}

func TestOOVROnSingleGPM(t *testing.T) {
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithGPMs(1)
	sp, _ := workload.ByAbbr("DM3")
	sc := sp.Generate(640, 480, 2, 1)
	m := driver.Run(multigpu.New(opt, sc), NewOOVR())
	if m.InterGPMBytes != 0 {
		t.Errorf("single-GPM OOVR produced inter-GPM traffic: %v", m.InterGPMBytes)
	}
}

func TestOOVROnEightGPMs(t *testing.T) {
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithGPMs(8)
	sp, _ := workload.ByAbbr("UT3")
	sc := sp.Generate(1280, 1024, 2, 1)
	m := driver.Run(multigpu.New(opt, sc), NewOOVR())
	if len(m.GPMBusyCycles) != 8 {
		t.Fatalf("busy cycles for %d GPMs", len(m.GPMBusyCycles))
	}
	busy := 0
	for _, b := range m.GPMBusyCycles {
		if b > 0 {
			busy++
		}
	}
	if busy < 8 {
		t.Errorf("only %d of 8 GPMs used", busy)
	}
}

func TestOOAppRootComposesEveryFrame(t *testing.T) {
	// OO_APP uses master-node composition: the root's ROPs must carry every
	// pixel while other GPMs' ROPs stay idle during composition.
	m := runOn(t, NewOOApp(), 2)
	if m.RemoteCompositionBytes == 0 {
		t.Errorf("OO_APP composition produced no remote bytes")
	}
}

func TestBatchTaskShapes(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	sc := sp.Generate(640, 480, 1, 1)
	batches := NewMiddleware().GroupFrame(sc, &sc.Frames[0])
	b := &batches[0]
	var arena []multigpu.TaskPart
	task := batchTask(&arena, b, true)
	if len(task.Parts) != len(b.Objects) {
		t.Errorf("batchTask parts = %d, want %d", len(task.Parts), len(b.Objects))
	}
	for _, p := range task.Parts {
		if p.GeomFrac != 1 || p.FragFrac != 1 {
			t.Errorf("whole-batch part has fractions %v/%v", p.GeomFrac, p.FragFrac)
		}
	}
	frac := batchTaskFrac(&arena, b, 0.25)
	for _, p := range frac.Parts {
		if p.GeomFrac != 0.25 || p.FragFrac != 0.25 {
			t.Errorf("split part has fractions %v/%v, want 0.25", p.GeomFrac, p.FragFrac)
		}
	}
}

func TestFragsBothViews(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	sc := sp.Generate(640, 480, 1, 1)
	batches := NewMiddleware().GroupFrame(sc, &sc.Frames[0])
	b := &batches[0]
	var want float64
	for _, o := range b.Objects {
		want += 2 * o.FragsPerView
	}
	if got := b.FragsBothViews(); got != want {
		t.Errorf("FragsBothViews = %v, want %v", got, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runOn(t, NewOOVR(), 2)
	b := runOn(t, NewOOVR(), 2)
	if a.TotalCycles != b.TotalCycles || a.InterGPMBytes != b.InterGPMBytes {
		t.Errorf("OOVR is not deterministic: %v/%v vs %v/%v",
			a.TotalCycles, a.InterGPMBytes, b.TotalCycles, b.InterGPMBytes)
	}
}
