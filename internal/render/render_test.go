package render

import (
	"testing"

	"oovr/internal/driver"
	"oovr/internal/geom"
	"oovr/internal/multigpu"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

// smallScene is the full DM3-640 workload: the simulator is transaction
// level, so even the real benchmark renders in milliseconds of host time,
// and scheduler behaviour (link saturation vs compute) only shows at real
// texture volumes.
func smallScene(frames int) *scene.Scene {
	sp, _ := workload.ByAbbr("DM3")
	return sp.Generate(640, 480, frames, 7)
}

func runScheme(t *testing.T, s driver.Planner, frames int) multigpu.Metrics {
	t.Helper()
	sys := multigpu.New(multigpu.DefaultOptions(), smallScene(frames))
	m := driver.Run(sys, s)
	if m.Frames != frames {
		t.Fatalf("%s rendered %d frames, want %d", s.Name(), m.Frames, frames)
	}
	if m.TotalCycles <= 0 {
		t.Fatalf("%s total cycles = %v", s.Name(), m.TotalCycles)
	}
	return m
}

func TestSchedulerNames(t *testing.T) {
	want := map[driver.Planner]string{
		Baseline{}:   "Baseline",
		DefaultAFR(): "Frame-Level",
		TileV{}:      "Tile-Level (V)",
		TileH{}:      "Tile-Level (H)",
		ObjectSFR{}:  "Object-Level",
	}
	for s, n := range want {
		if s.Name() != n {
			t.Errorf("Name = %q, want %q", s.Name(), n)
		}
	}
}

func TestBaselineUsesAllGPMs(t *testing.T) {
	m := runScheme(t, Baseline{}, 2)
	for g, b := range m.GPMBusyCycles {
		if b == 0 {
			t.Errorf("GPM %d idle under baseline", g)
		}
	}
	if m.InterGPMBytes == 0 {
		t.Errorf("baseline should generate inter-GPM traffic")
	}
}

func TestAFRNearZeroInterGPMTraffic(t *testing.T) {
	base := runScheme(t, Baseline{}, 4)
	afr := runScheme(t, DefaultAFR(), 4)
	// AFR keeps all texture/vertex/fb traffic in the frame's local memory
	// space; only the shared command stream crosses links.
	if afr.RemoteTextureBytes != 0 || afr.RemoteVertexBytes != 0 {
		t.Errorf("AFR leaked tex=%v vtx=%v remote bytes", afr.RemoteTextureBytes, afr.RemoteVertexBytes)
	}
	if afr.InterGPMBytes > base.InterGPMBytes/10 {
		t.Errorf("AFR traffic %v not near-zero vs baseline %v", afr.InterGPMBytes, base.InterGPMBytes)
	}
}

func TestAFRImprovesThroughputButHurtsLatency(t *testing.T) {
	base := runScheme(t, Baseline{}, 4)
	afr := runScheme(t, DefaultAFR(), 4)
	if afr.FPSCycles() >= base.FPSCycles() {
		t.Errorf("AFR cycles/frame %v not better than baseline %v", afr.FPSCycles(), base.FPSCycles())
	}
	if afr.AvgFrameLatency() <= base.AvgFrameLatency() {
		t.Errorf("AFR latency %v should exceed baseline %v (Section 4.1)",
			afr.AvgFrameLatency(), base.AvgFrameLatency())
	}
}

func TestTileSchemesIncreaseTraffic(t *testing.T) {
	base := runScheme(t, Baseline{}, 2)
	tv := runScheme(t, TileV{}, 2)
	th := runScheme(t, TileH{}, 2)
	if tv.InterGPMBytes <= base.InterGPMBytes {
		t.Errorf("TileV traffic %v should exceed baseline %v (Figure 9)", tv.InterGPMBytes, base.InterGPMBytes)
	}
	if th.InterGPMBytes <= base.InterGPMBytes {
		t.Errorf("TileH traffic %v should exceed baseline %v (Figure 9)", th.InterGPMBytes, base.InterGPMBytes)
	}
}

func TestObjectSFRReducesTrafficVsBaseline(t *testing.T) {
	base := runScheme(t, Baseline{}, 2)
	obj := runScheme(t, ObjectSFR{}, 2)
	if obj.InterGPMBytes >= base.InterGPMBytes {
		t.Errorf("object-level traffic %v should be below baseline %v (Figure 9)",
			obj.InterGPMBytes, base.InterGPMBytes)
	}
}

func TestObjectSFRFasterThanBaseline(t *testing.T) {
	base := runScheme(t, Baseline{}, 2)
	obj := runScheme(t, ObjectSFR{}, 2)
	if obj.TotalCycles >= base.TotalCycles {
		t.Errorf("object-level %v cycles should beat baseline %v (Figure 8)",
			obj.TotalCycles, base.TotalCycles)
	}
}

func TestObjectSFRHasImbalance(t *testing.T) {
	obj := runScheme(t, ObjectSFR{}, 2)
	if r := obj.BestToWorstBusyRatio(); r <= 1.01 {
		t.Errorf("object-level busy ratio = %v; round-robin over lognormal objects should imbalance (Figure 10)", r)
	}
}

func TestStripRect(t *testing.T) {
	combined := geom.AABB{Min: geom.Vec2{}, Max: geom.Vec2{X: 1280, Y: 480}}
	v0 := stripRect(combined, 0, 4, true)
	if v0.Width() != 320 || v0.Height() != 480 {
		t.Errorf("vertical strip 0 = %v", v0)
	}
	v3 := stripRect(combined, 3, 4, true)
	if v3.Min.X != 960 || v3.Max.X != 1280 {
		t.Errorf("vertical strip 3 = %v", v3)
	}
	h1 := stripRect(combined, 1, 4, false)
	if h1.Min.Y != 120 || h1.Max.Y != 240 || h1.Width() != 1280 {
		t.Errorf("horizontal strip 1 = %v", h1)
	}
}

func TestTileVSplitsViewsAcrossGPMs(t *testing.T) {
	// An object fully inside the left view must never contribute fragments
	// to the right half's strips under vertical striping.
	combined := geom.AABB{Min: geom.Vec2{}, Max: geom.Vec2{X: 1280, Y: 480}}
	leftObj := geom.AABB{Min: geom.Vec2{X: 10, Y: 10}, Max: geom.Vec2{X: 100, Y: 100}}
	for g := 2; g < 4; g++ {
		tile := stripRect(combined, g, 4, true)
		if !leftObj.Intersect(tile).Empty() {
			t.Errorf("left-view object overlaps right-half strip %d", g)
		}
	}
}

func TestSchemesOnEightGPMs(t *testing.T) {
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithGPMs(8)
	for _, s := range []driver.Planner{Baseline{}, TileV{}, ObjectSFR{}} {
		sys := multigpu.New(opt, smallScene(1))
		m := driver.Run(sys, s)
		if m.TotalCycles <= 0 {
			t.Errorf("%s failed on 8 GPMs", s.Name())
		}
	}
}

func TestSchemesOnSingleGPM(t *testing.T) {
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithGPMs(1)
	for _, s := range []driver.Planner{Baseline{}, ObjectSFR{}} {
		sys := multigpu.New(opt, smallScene(1))
		m := driver.Run(sys, s)
		if m.InterGPMBytes != 0 {
			t.Errorf("%s produced inter-GPM traffic on one GPM", s.Name())
		}
	}
}
