// Package pipeline models the four-step multi-view VR rendering pipeline of
// the paper's Figure 2: (1) geometry process, (2) simultaneous
// multi-projection (SMP), (3) rasterization and (4) fragment process, plus
// the ROP color output.
//
// It is a transaction-level model: for a rendering task it computes the
// *work volumes* each stage handles (vertices transformed, triangles
// duplicated and set up, fragments shaded, pixels emitted) and the cycle
// cost of pushing those volumes through a GPM with given stage rates. The
// stages of a modern GPU overlap, so a task's compute time is the slowest
// stage's drain time plus the serial command-issue overhead.
package pipeline

import (
	"fmt"

	"oovr/internal/gpu"
	"oovr/internal/scene"
)

// Mode selects how a task covers the two eye views.
type Mode int

const (
	// ModeSingleView renders one eye only: the geometry process runs for
	// that view alone. Two ModeSingleView tasks (possibly on different
	// GPMs) are needed per object — this is how the baseline and the
	// conventional object-level SFR handle stereo.
	ModeSingleView Mode = iota
	// ModeBothSMP renders both eyes in one pass: geometry runs once and the
	// SMP engine re-projects each triangle into the second viewport
	// (Figure 2(b) step 2).
	ModeBothSMP
	// ModeBothSequential renders both eyes by running the whole pipeline
	// twice (SMP disabled) — the reference the paper's 27% SMP validation
	// compares against (Section 3).
	ModeBothSequential
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSingleView:
		return "single-view"
	case ModeBothSMP:
		return "both-smp"
	case ModeBothSequential:
		return "both-sequential"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Work is the per-stage volume of a task.
type Work struct {
	// Vertices transformed by the geometry process.
	Vertices float64
	// SMPTriangles duplicated/re-projected by the SMP engine.
	SMPTriangles float64
	// SetupTriangles through triangle setup and rasterization.
	SetupTriangles float64
	// Fragments shaded by the fragment process.
	Fragments float64
	// Pixels emitted by the ROPs.
	Pixels float64
	// DrawIssues is the number of draw commands the front-end processes.
	DrawIssues float64
}

// Add returns the element-wise sum of two work volumes.
func (w Work) Add(o Work) Work {
	return Work{
		Vertices:       w.Vertices + o.Vertices,
		SMPTriangles:   w.SMPTriangles + o.SMPTriangles,
		SetupTriangles: w.SetupTriangles + o.SetupTriangles,
		Fragments:      w.Fragments + o.Fragments,
		Pixels:         w.Pixels + o.Pixels,
		DrawIssues:     w.DrawIssues + o.DrawIssues,
	}
}

// StageCycles is the drain time of each pipeline stage, for diagnostics and
// the rendering-time predictor's calibration.
type StageCycles struct {
	Geometry float64
	SMP      float64
	Setup    float64
	Raster   float64
	Fragment float64
	ROP      float64
	Issue    float64
}

// Max returns the slowest overlapped stage (Issue excluded: it is serial).
func (s StageCycles) Max() float64 {
	m := s.Geometry
	for _, v := range []float64{s.SMP, s.Setup, s.Raster, s.Fragment, s.ROP} {
		if v > m {
			m = v
		}
	}
	return m
}

// Breakdown computes per-stage drain cycles for the work on a GPM with the
// given rates.
func Breakdown(w Work, r gpu.Rates, issueCyclesPerDraw float64) StageCycles {
	return StageCycles{
		Geometry: w.Vertices / r.VerticesPerCycle,
		SMP:      w.SMPTriangles / r.SMPTrianglesPerCycle,
		Setup:    w.SetupTriangles / r.SetupTrianglesPerCycle,
		Raster:   w.Fragments / r.RasterFragsPerCycle,
		Fragment: w.Fragments / r.FragmentsPerCycle,
		ROP:      w.Pixels / r.PixelsPerCycle,
		Issue:    w.DrawIssues * issueCyclesPerDraw,
	}
}

// Cycles returns the compute time of the work on a GPM: the slowest
// overlapped stage plus the serial issue overhead.
func Cycles(w Work, r gpu.Rates, issueCyclesPerDraw float64) float64 {
	b := Breakdown(w, r, issueCyclesPerDraw)
	return b.Max() + b.Issue
}

// MemVolumes are the memory-side byte volumes of a task, before NUMA
// routing. Texture bytes are not included here: they depend on cache warmth
// and placement, so the executor derives them per texture via
// gpu.CacheModel.
type MemVolumes struct {
	// VertexBytes read from the object's vertex buffers.
	VertexBytes float64
	// FragsForTexture is the fragment count that samples each of the task's
	// textures (multi-texturing samples every bound texture per fragment).
	FragsForTexture float64
	// DepthBytes read+written on the Z surface.
	DepthBytes float64
	// ColorBytes written by the ROPs.
	ColorBytes float64
	// CommandBytes streamed from the command buffer.
	CommandBytes float64
}

// Add returns the element-wise sum.
func (m MemVolumes) Add(o MemVolumes) MemVolumes {
	return MemVolumes{
		VertexBytes:     m.VertexBytes + o.VertexBytes,
		FragsForTexture: m.FragsForTexture + o.FragsForTexture,
		DepthBytes:      m.DepthBytes + o.DepthBytes,
		ColorBytes:      m.ColorBytes + o.ColorBytes,
		CommandBytes:    m.CommandBytes + o.CommandBytes,
	}
}

// Tunables that are not per-GPM hardware rates.
const (
	// DepthBytesPerFragment covers the Z read-modify-write after the
	// hierarchical-Z and delta compression modern GPUs apply.
	DepthBytesPerFragment = 4
	// CommandBytesPerDraw is the state + draw packet size streamed per draw
	// command.
	CommandBytesPerDraw = 1024
	// PixelsPerFragment is the fraction of shaded fragments that survive the
	// depth test and reach the ROPs as color output. Its inverse is the
	// average overdraw of the workloads.
	PixelsPerFragment = 0.45
	// ViewOverlapSMP is the texture-sample discount when SMP renders both
	// eyes in one pass: the two projections of an object sample almost the
	// same texels, so the caches satisfy most of the second view's taps.
	// 0.6 means both views together sample 1.2x one view's bytes — the data
	// sharing between left and right views the paper exploits.
	ViewOverlapSMP = 0.6
	// ViewReuseSequential is the equivalent factor when the two views render
	// back-to-back on the same GPM without SMP: some reuse survives in the
	// L2 between the passes, but far less than SMP's interleaved sampling.
	ViewReuseSequential = 0.85
)

// ObjectWork returns the stage volumes for rendering the object in the
// given mode.
//
// geomFrac scales the geometry-stage volumes and fragFrac the
// fragment-stage volumes, so one call can describe every distribution
// granularity in the paper:
//   - a whole object on one GPM: geomFrac = fragFrac = 1;
//   - the baseline's single-programming-model split, where the GigaThread
//     engine spreads one draw across all N GPMs: geomFrac = fragFrac = 1/N;
//   - a tile-level SFR share, where the GPM rasterizes only its tile's
//     fragments but must still process the full mesh: geomFrac = 1,
//     fragFrac = tile coverage;
//   - OO-VR's fine-grained straggler redistribution, which splits the
//     remaining triangles and fragments across idle GPMs by ID:
//     geomFrac = fragFrac = 1/idle.
func ObjectWork(o *scene.Object, mode Mode, geomFrac, fragFrac float64) Work {
	if fragFrac < 0 || geomFrac < 0 {
		panic(fmt.Sprintf("pipeline: negative fraction geom=%v frag=%v", geomFrac, fragFrac))
	}
	v := float64(o.Vertices) * geomFrac
	t := float64(o.Triangles) * geomFrac
	f := o.FragsPerView * fragFrac
	switch mode {
	case ModeSingleView:
		return Work{
			Vertices:       v,
			SetupTriangles: t,
			Fragments:      f,
			Pixels:         f * PixelsPerFragment,
			DrawIssues:     1,
		}
	case ModeBothSMP:
		return Work{
			Vertices:       v,
			SMPTriangles:   t,
			SetupTriangles: 2 * t,
			Fragments:      2 * f,
			Pixels:         2 * f * PixelsPerFragment,
			DrawIssues:     1,
		}
	case ModeBothSequential:
		return Work{
			Vertices:       2 * v,
			SetupTriangles: 2 * t,
			Fragments:      2 * f,
			Pixels:         2 * f * PixelsPerFragment,
			DrawIssues:     2,
		}
	default:
		panic(fmt.Sprintf("pipeline: unknown mode %v", mode))
	}
}

// ObjectMemVolumes returns the memory volumes matching ObjectWork.
func ObjectMemVolumes(o *scene.Object, mode Mode, geomFrac, fragFrac float64) MemVolumes {
	return WorkMemVolumes(o, mode, geomFrac, ObjectWork(o, mode, geomFrac, fragFrac))
}

// WorkMemVolumes returns the memory volumes of w, the work ObjectWork
// returned for o in mode at geomFrac: a caller that needs both computes
// the work once.
func WorkMemVolumes(o *scene.Object, mode Mode, geomFrac float64, w Work) MemVolumes {
	vertexReads := float64(o.VertexBytes()) * geomFrac
	texFrags := w.Fragments
	switch mode {
	case ModeBothSequential:
		vertexReads *= 2
		texFrags *= ViewReuseSequential
	case ModeBothSMP:
		texFrags *= ViewOverlapSMP
	}
	return MemVolumes{
		VertexBytes:     vertexReads,
		FragsForTexture: texFrags,
		DepthBytes:      w.Fragments * DepthBytesPerFragment,
		ColorBytes:      w.Pixels * scene.BytesPerPixel,
		CommandBytes:    w.DrawIssues * CommandBytesPerDraw,
	}
}

// TransformedVertices returns the #tv counter the distribution engine's
// elapsed-time predictor tracks (Section 5.2, Equation 3): the vertices the
// geometry process emits, post-SMP duplication.
func TransformedVertices(w Work) float64 {
	return w.Vertices + w.SMPTriangles // duplicated triangles add their re-projected positions
}
