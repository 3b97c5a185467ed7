// Package driver is the frame-driver execution core: it separates *what* a
// scheduler decides (policy — which GPM renders which task, how the frame
// composes, where the framebuffer lives) from *how* frames execute on the
// multi-GPU system (mechanism — frame barriers, task issue, composition
// passes, latency accounting, metrics collection).
//
// A scheduling policy implements Planner: per frame it emits a Plan — task
// submissions, a composition op and a framebuffer placement — and the
// FrameLoop executes it. Policies therefore never call BeginFrame/EndFrame,
// the composition passes or Collect themselves; the loop owns the frame
// lifecycle, including driver-level multi-frame pipelining for planners
// that declare a frames-in-flight depth greater than one (alternate frame
// rendering generalizes to "depth = one frame per GPM").
//
// Frames are fed one at a time, so scenes never need full materialization:
// Open returns a streaming Session whose SubmitFrame accepts frames as they
// are produced (a workload generator, a head-motion trace, a network
// ingest), and Run is the batch convenience that drains a fully generated
// scene through the same path.
package driver

import (
	"fmt"

	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/scene"
	"oovr/internal/sim"
)

// FBPlacement selects where a plan wants the final framebuffer (and depth
// surface) homed before its tasks run. Placements are NUMA layout swaps —
// idempotent and free of traffic — so plans re-declare them every frame.
type FBPlacement int

const (
	// FBStriped leaves the target NUMA-striped across all GPMs (the
	// allocation default — the single-GPU-image address mapping).
	FBStriped FBPlacement = iota
	// FBPartitioned splits the target into N contiguous per-GPM partitions
	// (tile-level SFR, AFR's per-GPM surfaces, OO-VR's DHC).
	FBPartitioned
	// FBRoot homes the whole target on the plan's Root GPM (master-node
	// composition).
	FBRoot
)

// ComposeOp selects the composition pass that closes a frame.
type ComposeOp int

const (
	// ComposeNone ends the frame without a composition pass (tasks wrote
	// the final target directly).
	ComposeNone ComposeOp = iota
	// ComposeRoot streams every worker's staged pixels to the Root GPM,
	// whose ROPs alone assemble the frame (conventional object-level SFR).
	ComposeRoot
	// ComposeDistributed runs OO-VR's distributed hardware composition:
	// every GPM's ROPs compose the framebuffer partition it owns.
	ComposeDistributed
	// ComposeDiscard drops the staged pixels: each GPM's output was a
	// private full frame (AFR) and never merges.
	ComposeDiscard
)

// Submission is one task bound for a GPM.
type Submission struct {
	// GPM is the target GPU module.
	GPM mem.GPMID
	// IssueAt, when positive, delays the task until the given absolute
	// simulation time (serial driver command recording, sync barriers).
	IssueAt sim.Time
	// Task is the work itself.
	Task multigpu.Task
}

// Plan is one frame's execution recipe: where the framebuffer lives, which
// tasks run where, and how the frame composes. The FrameLoop executes
// submissions strictly in order.
type Plan struct {
	// Framebuffer is applied before this plan's submissions run.
	Framebuffer FBPlacement
	// Root is the master GPM for FBRoot and ComposeRoot.
	Root mem.GPMID
	// Submissions are executed in order.
	Submissions []Submission
	// Compose closes the frame (final chunk only — see More).
	Compose ComposeOp
	// More marks this plan as a partial chunk: after executing its
	// submissions the loop calls PlanFrame again for the same frame and
	// ignores this chunk's Compose. Planners that calibrate from measured
	// task times (the OO-VR distribution engine) plan incrementally while
	// calibrating and emit the rest of the frame once fitted.
	More bool
}

// Profile declares a run's execution envelope, fixed at Begin time.
type Profile struct {
	// FramesInFlight is the driver-level pipelining depth. At most 1,
	// frames render behind a global barrier: BeginFrame → tasks → compose →
	// EndFrame. At depth d > 1, frame i may start while frames i-1..i-d+1
	// are still in flight: the loop skips the barrier, holds frame i until
	// frame i-d completed, and measures each frame's latency from its own
	// first task. Pipelined plans cannot compose (composition is a
	// frame-wide barrier); only ComposeNone and ComposeDiscard are legal.
	FramesInFlight int
}

// Planner is the pure-policy half of a scheduler: a stateless scheme
// descriptor whose Begin binds it to one run and returns the run's frame
// planner (per-run mutable state lives there, so a Planner value can be
// shared across concurrent runs).
type Planner interface {
	// Name is the scheme's figure label.
	Name() string
	// Begin binds the policy to a run on sys.
	Begin(sys *multigpu.System) (FramePlanner, Profile)
}

// FramePlanner emits one run's frame plans.
type FramePlanner interface {
	// PlanFrame returns the plan for frame fi (or its next chunk, when the
	// previous chunk set More). Frames arrive in submission order; fi is
	// the stream index, f the frame itself.
	PlanFrame(f *scene.Frame, fi int) Plan
}

// Observer is optionally implemented by a FramePlanner that learns from
// execution: after every submission the loop reports the task's measured
// start and completion (the OO-VR engine calibrates its Equation (3)
// predictor this way).
type Observer interface {
	TaskDone(fi int, sub *Submission, start, end sim.Time)
}

// PlanFunc adapts a function to FramePlanner, for policies without
// per-frame state beyond the closure.
type PlanFunc func(f *scene.Frame, fi int) Plan

// PlanFrame implements FramePlanner.
func (fn PlanFunc) PlanFrame(f *scene.Frame, fi int) Plan { return fn(f, fi) }

// FrameLoop executes per-frame Plans on a bound system. It owns the frame
// lifecycle — frame barriers or pipelining, task issue, composition,
// latency accounting — and the final metrics collection.
type FrameLoop struct {
	sys   *multigpu.System
	fp    FramePlanner
	name  string
	depth int
	vcaps []int64
	fi    int
	// ends[i mod depth] is frame i's completion time — a ring of the last
	// depth frames, enough to enforce the frames-in-flight bound without
	// growing state over an unbounded stream. Unused at depth 1.
	ends []sim.Time
	// tl mirrors the system's timeline recorder: when attached, the loop
	// brackets each frame with a span on a "driver/frames" lane.
	tl       *obs.Timeline
	tlFrames obs.LaneID
}

// NewFrameLoop binds a planner to a system.
func NewFrameLoop(sys *multigpu.System, p Planner) *FrameLoop {
	fp, prof := p.Begin(sys)
	depth := prof.FramesInFlight
	if depth < 1 {
		depth = 1
	}
	l := &FrameLoop{
		sys: sys, fp: fp, name: p.Name(), depth: depth,
		vcaps: sys.Scene().VertexCapacities(),
		ends:  make([]sim.Time, depth),
	}
	if tl := sys.Timeline(); tl != nil {
		l.tl = tl
		l.tlFrames = tl.AddLane("driver", "frames", sys.Options().Config.ClockGHz*1000)
	}
	return l
}

// Frames returns how many frames the loop has executed.
func (l *FrameLoop) Frames() int { return l.fi }

// RunFrame plans and executes one frame and returns its completion time.
func (l *FrameLoop) RunFrame(f *scene.Frame) sim.Time {
	// A streamed frame must fit the allocation envelope the system was
	// bound with — object count, index mapping and per-object vertex
	// footprint — or its buffer accesses would silently clamp to
	// undersized segments and corrupt the metrics.
	if len(f.Objects) > len(l.vcaps) {
		panic(fmt.Sprintf("driver: frame with %d objects exceeds the scene's allocation envelope (%d)",
			len(f.Objects), len(l.vcaps)))
	}
	for oi := range f.Objects {
		o := &f.Objects[oi]
		if o.Index < 0 || o.Index >= len(l.vcaps) {
			panic(fmt.Sprintf("driver: object index %d outside the scene's allocation envelope (%d)",
				o.Index, len(l.vcaps)))
		}
		if vb := o.VertexBytes(); vb > l.vcaps[o.Index] {
			panic(fmt.Sprintf("driver: object %d carries %d vertex bytes, envelope allocated %d",
				o.Index, vb, l.vcaps[o.Index]))
		}
	}
	fi := l.fi
	l.fi++
	pipelined := l.depth > 1
	var barrierStart sim.Time
	if !pipelined {
		barrierStart = l.sys.BeginFrame()
	}
	ob, _ := l.fp.(Observer)

	var frameStart, frameEnd sim.Time
	started := false
	for {
		plan := l.fp.PlanFrame(f, fi)
		l.place(plan)
		for si := range plan.Submissions {
			sub := &plan.Submissions[si]
			if pipelined && fi >= l.depth {
				// Frame fi may not enter the pipe before frame fi-depth
				// has left it (fi-depth occupies the same ring slot and is
				// only overwritten once this frame completes).
				l.sys.AdvanceGPMTo(sub.GPM, l.ends[fi%l.depth])
			}
			if sub.IssueAt > 0 {
				l.sys.AdvanceGPMTo(sub.GPM, sub.IssueAt)
			}
			start := l.sys.GPM(int(sub.GPM)).NextFree
			if !started || start < frameStart {
				frameStart = start
			}
			started = true
			end := l.sys.Run(sub.GPM, sub.Task)
			if end > frameEnd {
				frameEnd = end
			}
			if ob != nil {
				ob.TaskDone(fi, sub, start, end)
			}
		}
		if plan.More {
			continue
		}
		if e := l.compose(plan, pipelined); e > frameEnd {
			frameEnd = e
		}
		break
	}

	if pipelined {
		if !started {
			// A submission-less frame completes instantly at the current
			// time — never at 0, which would void the depth bound for the
			// frame that later shares its ring slot.
			frameEnd = l.maxNextFree()
			frameStart = frameEnd // zero latency
		}
		l.sys.RecordFrameLatency(frameEnd - frameStart)
		l.ends[fi%l.depth] = frameEnd
		if l.tl != nil {
			l.tl.Span(l.tlFrames, "frame", int64(frameStart), int64(frameEnd),
				obs.Arg{K: "frame", V: int64(fi)}, obs.Arg{K: "latency", V: int64(frameEnd - frameStart)})
		}
		return frameEnd
	}
	end := l.sys.EndFrame()
	if l.tl != nil {
		l.tl.Span(l.tlFrames, "frame", int64(barrierStart), int64(end),
			obs.Arg{K: "frame", V: int64(fi)}, obs.Arg{K: "latency", V: int64(end - barrierStart)})
	}
	return end
}

// maxNextFree returns the latest GPM availability — the loop's notion of
// "now" for frames that submit no work.
func (l *FrameLoop) maxNextFree() sim.Time {
	var m sim.Time
	for g := 0; g < l.sys.NumGPMs(); g++ {
		if t := l.sys.GPM(g).NextFree; t > m {
			m = t
		}
	}
	return m
}

// Collect snapshots the run's metrics under the planner's name.
func (l *FrameLoop) Collect() multigpu.Metrics { return l.sys.Collect(l.name) }

// place applies the plan's framebuffer placement (idempotent layout swaps).
func (l *FrameLoop) place(plan Plan) {
	switch plan.Framebuffer {
	case FBStriped:
		// The allocation default; nothing to re-place.
	case FBPartitioned:
		l.sys.PartitionFramebuffer()
	case FBRoot:
		l.sys.PlaceFramebufferAt(plan.Root)
	default:
		panic(fmt.Sprintf("driver: unknown framebuffer placement %d", plan.Framebuffer))
	}
}

// compose closes the frame with the plan's composition op.
func (l *FrameLoop) compose(plan Plan, pipelined bool) sim.Time {
	switch plan.Compose {
	case ComposeNone:
		return 0
	case ComposeDiscard:
		l.sys.DiscardStagedPixels()
		return 0
	case ComposeRoot:
		if pipelined {
			panic("driver: composition requires the frame barrier (FramesInFlight 1)")
		}
		return l.sys.ComposeToRoot(plan.Root)
	case ComposeDistributed:
		if pipelined {
			panic("driver: composition requires the frame barrier (FramesInFlight 1)")
		}
		return l.sys.ComposeDistributed()
	default:
		panic(fmt.Sprintf("driver: unknown compose op %d", plan.Compose))
	}
}

// Session is a streaming rendering session: frames are submitted
// incrementally and metrics are collected on Close. A session serves one
// frame stream; the system stays bound to its scene header (textures,
// resolution, capacity) while frames arrive one at a time.
type Session struct {
	loop   *FrameLoop
	closed bool
}

// Open starts a streaming session for planner p on sys.
func Open(sys *multigpu.System, p Planner) *Session {
	return &Session{loop: NewFrameLoop(sys, p)}
}

// SubmitFrame renders the next frame of the stream and returns its
// completion time. Frames must fit the envelope the system was bound with
// (object indices inside the scene's declared capacity).
func (s *Session) SubmitFrame(f *scene.Frame) sim.Time {
	if s.closed {
		panic("driver: SubmitFrame on closed session")
	}
	return s.loop.RunFrame(f)
}

// Frames returns how many frames the session has rendered.
func (s *Session) Frames() int { return s.loop.Frames() }

// Close ends the stream and returns the run's metrics. The session cannot
// be reused.
func (s *Session) Close() multigpu.Metrics {
	s.closed = true
	return s.loop.Collect()
}

// Run renders every materialized frame of the bound scene through a
// session — the batch entry point.
func Run(sys *multigpu.System, p Planner) multigpu.Metrics {
	ses := Open(sys, p)
	sc := sys.Scene()
	sys.ReserveFrames(len(sc.Frames))
	for fi := range sc.Frames {
		ses.SubmitFrame(&sc.Frames[fi])
	}
	return ses.Close()
}
