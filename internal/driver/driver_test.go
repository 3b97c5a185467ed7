package driver

import (
	"reflect"
	"strings"
	"testing"

	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/pipeline"
	"oovr/internal/scene"
	"oovr/internal/sim"
	"oovr/internal/workload"
)

func testScene(frames int) *scene.Scene {
	sp, _ := workload.ByAbbr("DM3")
	return sp.Generate(640, 480, frames, 1)
}

// testPlanner submits each frame whole to GPM fi mod Spread, with the
// declared pipelining depth.
type testPlanner struct {
	Depth  int
	Spread int
}

func (testPlanner) Name() string { return "test" }

func (p testPlanner) Begin(sys *multigpu.System) (FramePlanner, Profile) {
	return PlanFunc(func(f *scene.Frame, fi int) Plan {
		task := multigpu.Task{Color: multigpu.ColorLocalStage, DepthLocal: true}
		for oi := range f.Objects {
			task.Parts = append(task.Parts, multigpu.TaskPart{
				Object: &f.Objects[oi], Mode: pipeline.ModeBothSMP, GeomFrac: 1, FragFrac: 1,
			})
		}
		return Plan{
			Framebuffer: FBPartitioned,
			Submissions: []Submission{{GPM: mem.GPMID(fi % p.Spread), Task: task}},
			Compose:     ComposeDiscard,
		}
	}), Profile{FramesInFlight: p.Depth}
}

// TestPipelineDepthOverlapsFrames: with depth >= the GPM spread, frames on
// different GPMs overlap, so the total run time is far below the sum of
// frame latencies; with depth 1 the loop inserts a global barrier and the
// frames serialize even across different GPMs.
func TestPipelineDepthOverlapsFrames(t *testing.T) {
	deep := Run(multigpu.New(multigpu.DefaultOptions(), testScene(8)), testPlanner{Depth: 4, Spread: 4})
	serial := Run(multigpu.New(multigpu.DefaultOptions(), testScene(8)), testPlanner{Depth: 1, Spread: 4})

	var deepSum float64
	for _, l := range deep.FrameLatencies {
		deepSum += l
	}
	if deep.TotalCycles >= 0.5*deepSum {
		t.Errorf("pipelined frames did not overlap: total %v vs latency sum %v", deep.TotalCycles, deepSum)
	}
	if serial.TotalCycles < deep.TotalCycles {
		t.Errorf("frame barrier (%v cycles) ran faster than pipelined (%v)", serial.TotalCycles, deep.TotalCycles)
	}
	if deep.Frames != 8 || serial.Frames != 8 {
		t.Errorf("frame counts %d/%d, want 8", deep.Frames, serial.Frames)
	}
}

// TestPipelineDepthBoundsInFlight: a depth-d loop must hold frame i until
// frame i-d has completed, even when the target GPM itself would be free
// earlier. With 4 GPMs but depth 2, frame 2 (GPM 2, otherwise idle) cannot
// start before frame 0 ends.
func TestPipelineDepthBoundsInFlight(t *testing.T) {
	sys := multigpu.New(multigpu.DefaultOptions(), testScene(4))
	loop := NewFrameLoop(sys, testPlanner{Depth: 2, Spread: 4})
	sc := sys.Scene()
	var ends []sim.Time
	for fi := range sc.Frames {
		ends = append(ends, loop.RunFrame(&sc.Frames[fi]))
	}
	for fi := 2; fi < len(ends); fi++ {
		// Frame fi ran alone on its own GPM; its start is its end minus its
		// latency. It must not precede frame fi-2's end.
		m := loop.Collect()
		start := ends[fi] - sim.Time(m.FrameLatencies[fi])
		if start < ends[fi-2] {
			t.Errorf("frame %d started at %v, before frame %d ended at %v (depth 2 violated)",
				fi, start, fi-2, ends[fi-2])
		}
	}
	if got := loop.depth; got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
}

// TestUnitDepthMatchesBarrierLoop: FramesInFlight <= 1 must behave exactly
// like the classic BeginFrame/EndFrame loop.
func TestUnitDepthMatchesBarrierLoop(t *testing.T) {
	viaDriver := Run(multigpu.New(multigpu.DefaultOptions(), testScene(3)), testPlanner{Depth: 0, Spread: 2})

	sys := multigpu.New(multigpu.DefaultOptions(), testScene(3))
	sc := sys.Scene()
	for fi := range sc.Frames {
		sys.BeginFrame()
		sys.PartitionFramebuffer()
		task := multigpu.Task{Color: multigpu.ColorLocalStage, DepthLocal: true}
		for oi := range sc.Frames[fi].Objects {
			task.Parts = append(task.Parts, multigpu.TaskPart{
				Object: &sc.Frames[fi].Objects[oi], Mode: pipeline.ModeBothSMP, GeomFrac: 1, FragFrac: 1,
			})
		}
		sys.Run(mem.GPMID(fi%2), task)
		sys.DiscardStagedPixels()
		sys.EndFrame()
	}
	byHand := sys.Collect("test")

	if !reflect.DeepEqual(viaDriver, byHand) {
		t.Errorf("driver loop diverged from hand-written frame loop:\n%+v\nvs\n%+v", viaDriver, byHand)
	}
}

// TestComposeRequiresBarrier: composition is a frame-wide barrier, so a
// pipelined plan that asks for it must panic loudly rather than compute
// wrong timings.
func TestComposeRequiresBarrier(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("pipelined ComposeRoot did not panic")
		}
		if !strings.Contains(r.(string), "barrier") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p := composePlanner{}
	Run(multigpu.New(multigpu.DefaultOptions(), testScene(2)), p)
}

type composePlanner struct{}

func (composePlanner) Name() string { return "bad-compose" }

func (composePlanner) Begin(sys *multigpu.System) (FramePlanner, Profile) {
	return PlanFunc(func(f *scene.Frame, fi int) Plan {
		task := multigpu.Task{Color: multigpu.ColorLocalStage}
		task.Parts = append(task.Parts, multigpu.TaskPart{
			Object: &f.Objects[0], Mode: pipeline.ModeBothSMP, GeomFrac: 1, FragFrac: 1,
		})
		return Plan{
			Submissions: []Submission{{GPM: 0, Task: task}},
			Compose:     ComposeRoot,
		}
	}), Profile{FramesInFlight: 2}
}

// TestSessionLifecycle: SubmitFrame counts frames, Close collects under
// the planner's name, and a closed session refuses further frames.
func TestSessionLifecycle(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	st := sp.Stream(640, 480, 2, 1)
	ses := Open(multigpu.New(multigpu.DefaultOptions(), st.Header()), testPlanner{Depth: 1, Spread: 2})
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		ses.SubmitFrame(f)
	}
	if ses.Frames() != 2 {
		t.Errorf("session rendered %d frames, want 2", ses.Frames())
	}
	m := ses.Close()
	if m.Scheme != "test" || m.Frames != 2 {
		t.Errorf("bad metrics after close: %+v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("SubmitFrame after Close did not panic")
		}
	}()
	f := scene.Frame{}
	ses.SubmitFrame(&f)
}

// TestEnvelopeEnforced: a streamed frame larger than the scene's declared
// capacity must be rejected before it corrupts the vertex-buffer mapping.
func TestEnvelopeEnforced(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	st := sp.Stream(640, 480, 1, 1)
	hdr := st.Header()
	hdr.Capacity.MaxObjects = 4
	hdr.Capacity.VertexBytes = hdr.Capacity.VertexBytes[:4]
	ses := Open(multigpu.New(multigpu.DefaultOptions(), hdr), testPlanner{Depth: 1, Spread: 1})
	defer func() {
		if recover() == nil {
			t.Error("oversized frame did not panic")
		}
	}()
	f, _ := st.Next()
	ses.SubmitFrame(f)
}

// TestEnvelopeEnforcesVertexBytes: the per-object vertex footprint is part
// of the envelope too — a frame whose object outgrows its declared buffer
// would otherwise silently clamp its vertex reads.
func TestEnvelopeEnforcesVertexBytes(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	st := sp.Stream(640, 480, 1, 1)
	hdr := st.Header()
	hdr.Capacity.VertexBytes[0] /= 2 // under-declare object 0's buffer
	ses := Open(multigpu.New(multigpu.DefaultOptions(), hdr), testPlanner{Depth: 1, Spread: 1})
	defer func() {
		if recover() == nil {
			t.Error("over-capacity object did not panic")
		}
	}()
	f, _ := st.Next()
	ses.SubmitFrame(f)
}
