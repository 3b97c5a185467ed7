// Package render implements the parallel rendering schemes the paper
// characterizes in Section 4 on the NUMA-based multi-GPU substrate:
//
//   - Baseline: the single programming model where the whole system acts as
//     one large GPU (Section 2.3);
//   - AFR: alternate frame rendering, one frame per GPM (Section 4.1);
//   - TileV / TileH: tile-level split frame rendering with vertical and
//     horizontal screen strips (Section 4.2);
//   - ObjectSFR: object-level (sort-last) split frame rendering with
//     round-robin distribution and master-node composition (Section 4.3);
//   - SingleGPU: one GPM rendering both views, with or without SMP — the
//     Section 3 validation vehicle.
//
// Every scheme is a pure-policy driver.Planner: it emits per-frame Plans
// (task submissions + composition + framebuffer placement) and the
// driver.FrameLoop executes them; driver.Run renders a whole bound scene.
//
// The OO-VR framework itself lives in internal/core; it plugs into the same
// Planner contract.
package render

import (
	"slices"

	"oovr/internal/driver"
	"oovr/internal/geom"
	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/pipeline"
	"oovr/internal/scene"
	"oovr/internal/sim"
)

// Baseline is the single-programming-model scheme of Section 2.3 and
// Figure 3: the rendering tasks for the left and right views are distributed
// to different GPM groups (the LT/RT/LB/RB quadrants), each view is broken
// into pieces across its group's GPMs, and the shared striped L2 carries
// every texture sample. Because the two views land on different GPMs, the
// SMP engines cannot merge them — the data redundancy between eyes is
// rendered (and fetched) twice, which is the waste OO-VR removes.
type Baseline struct{}

// Name implements driver.Planner.
func (Baseline) Name() string { return "Baseline" }

// Begin implements driver.Planner.
func (Baseline) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	sc := sys.Scene()
	n := sys.NumGPMs()
	// Per-run scratch: the driver runs a plan before asking for the next,
	// so the submission list and task-part arena are rebuilt in place
	// every frame.
	var subs []driver.Submission
	var parts []multigpu.TaskPart
	return driver.PlanFunc(func(f *scene.Frame, fi int) driver.Plan {
		subs, parts = subs[:0], slices.Grow(parts[:0], n*len(f.Objects)) // ≤ 1 part per object and GPM
		if n == 1 {
			// A single GPU keeps both views on the same PMEs, so SMP works.
			for oi := range f.Objects {
				parts = append(parts, multigpu.TaskPart{
					Object: &f.Objects[oi], Mode: pipeline.ModeBothSMP, GeomFrac: 1, FragFrac: 1,
				})
			}
			task := multigpu.Task{Color: multigpu.ColorStriped, SharedL2: true, Parts: parts}
			subs = append(subs, driver.Submission{GPM: 0, Task: task})
			return driver.Plan{Submissions: subs}
		}
		// Figure 3's quadrants: half the GPMs render the left view, half
		// the right, and within a view's group each GPM owns a horizontal
		// band of the screen (LT/LB/RT/RB for four GPMs). Geometry spreads
		// evenly; fragments follow the screen content, so bottom-heavy
		// scenes load-imbalance the bands.
		leftGPMs := n / 2
		rightGPMs := n - leftGPMs
		view := sc.Stereo().Left.Bounds()
		for g := 0; g < n; g++ {
			group, idx := leftGPMs, g
			if g >= leftGPMs {
				group, idx = rightGPMs, g-leftGPMs
			}
			band := stripRect(view, idx, group, false)
			geomFrac := 1 / float64(group)
			start := len(parts)
			for oi := range f.Objects {
				o := &f.Objects[oi]
				if o.FragsPerView <= 0 {
					continue
				}
				fragFrac := o.FragsInRect(band) / o.FragsPerView
				parts = append(parts, multigpu.TaskPart{
					Object:   o,
					Mode:     pipeline.ModeSingleView,
					GeomFrac: geomFrac,
					FragFrac: fragFrac,
				})
			}
			// Capped, so later arena appends never alias this task's parts.
			task := multigpu.Task{Color: multigpu.ColorStriped, SharedL2: true,
				Parts: parts[start:len(parts):len(parts)]}
			subs = append(subs, driver.Submission{GPM: mem.GPMID(g), Task: task})
		}
		return driver.Plan{Submissions: subs}
	}), driver.Profile{}
}

// AFR is alternate frame rendering: frame i renders entirely on GPM i mod N
// from a private, pre-allocated copy of all data (separate memory spaces),
// overlapping frames across GPMs — the scheme declares a frames-in-flight
// depth of one frame per GPM and the driver pipelines accordingly. The
// driver's serial per-frame command preparation limits how fast frames can
// be issued.
type AFR struct {
	// DriverCyclesPerDraw is the serial driver cost to record one draw of a
	// frame's command stream before the frame can start.
	DriverCyclesPerDraw float64
	// DriverCyclesPerKFrag is the serial driver cost per thousand fragments
	// of frame complexity (per-frame data upload and validation).
	DriverCyclesPerKFrag float64
}

// DefaultAFR returns the calibrated AFR configuration.
func DefaultAFR() AFR { return AFR{DriverCyclesPerDraw: 40, DriverCyclesPerKFrag: 20} }

// Name implements driver.Planner.
func (AFR) Name() string { return "Frame-Level" }

// Begin implements driver.Planner.
func (a AFR) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	return &afrPlanner{sys: sys, cfg: a, ensured: make([]bool, sys.NumGPMs())},
		driver.Profile{FramesInFlight: sys.NumGPMs()}
}

// afrPlanner carries AFR's per-run state: the serial driver clock and which
// GPMs already hold their private data copies.
type afrPlanner struct {
	sys *multigpu.System
	cfg AFR
	// driverFree is the absolute time the serial driver finishes recording
	// each frame's command stream; frames cannot issue before it.
	driverFree float64
	ensured    []bool
	// parts and subs are per-run scratch rebuilt in place every frame (the
	// driver runs a plan before asking for the next).
	parts []multigpu.TaskPart
	subs  []driver.Submission
}

// PlanFrame implements driver.FramePlanner.
func (p *afrPlanner) PlanFrame(f *scene.Frame, fi int) driver.Plan {
	g := mem.GPMID(fi % p.sys.NumGPMs())
	if !p.ensured[g] {
		// AFR's separate memory spaces: the private copy is made at
		// application load time, costing capacity but no link time.
		p.sys.EnsureLocalCopies(g)
		p.ensured[g] = true
	}
	// The driver records this frame's commands serially before issue.
	p.driverFree += float64(len(f.Objects))*p.cfg.DriverCyclesPerDraw +
		2*f.FragsPerView()/1000*p.cfg.DriverCyclesPerKFrag
	p.parts = slices.Grow(p.parts[:0], len(f.Objects))
	for oi := range f.Objects {
		p.parts = append(p.parts, multigpu.TaskPart{
			Object:   &f.Objects[oi],
			Mode:     pipeline.ModeBothSMP,
			GeomFrac: 1,
			FragFrac: 1,
		})
	}
	task := multigpu.Task{
		UseLocalCopies: true,
		Color:          multigpu.ColorLocalStage,
		DepthLocal:     true,
		Parts:          p.parts,
	}
	p.subs = append(p.subs[:0], driver.Submission{GPM: g, IssueAt: sim.Time(p.driverFree), Task: task})
	return driver.Plan{
		Framebuffer: driver.FBPartitioned, // per-GPM local Z/FB accounting
		Submissions: p.subs,
		Compose:     driver.ComposeDiscard, // each frame's FB is local to its GPM
	}
}

// TileV is tile-level SFR with vertical strips across the combined stereo
// target. Vertical stripping places the left and right views on different
// GPMs, so SMP cannot be used: each view renders as an independent
// single-view pass, and every GPM overlapping an object processes the full
// mesh (sort-first geometry duplication).
// Every strip demand-fetches whatever its objects touch each frame, so an
// object's private data is re-streamed by every strip it overlaps.
type TileV struct{}

// Name implements driver.Planner.
func (TileV) Name() string { return "Tile-Level (V)" }

// Begin implements driver.Planner.
func (TileV) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	return tilePlanner(sys, true), driver.Profile{}
}

// TileH is tile-level SFR with horizontal strips. Each strip spans both
// views, so the SMP engine re-projects left-view work into the right view;
// large objects still straddle strips and duplicate their geometry and data
// across GPMs.
type TileH struct{}

// Name implements driver.Planner.
func (TileH) Name() string { return "Tile-Level (H)" }

// Begin implements driver.Planner.
func (TileH) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	return tilePlanner(sys, false), driver.Profile{}
}

// tilePlanner plans both tile schemes; vertical selects the strip axis.
func tilePlanner(sys *multigpu.System, vertical bool) driver.FramePlanner {
	sc := sys.Scene()
	n := sys.NumGPMs()
	stereo := sc.Stereo()
	shift := stereo.EyeShift()
	combined := stereo.Combined()
	// Per-run scratch rebuilt in place every frame: each GPM's task keeps
	// its part list's capacity from the previous frame.
	tasks := make([]multigpu.Task, n)
	var subs []driver.Submission
	return driver.PlanFunc(func(f *scene.Frame, fi int) driver.Plan {
		for g := range tasks {
			tasks[g] = multigpu.Task{
				Parts: tasks[g].Parts[:0],
				// Sort-first distribution: the framework pushes each
				// object's data to every strip renderer that needs it, and
				// the strip-to-object mapping changes with the camera, so
				// the shipping repeats every frame.
				ShipTextures: true,
				Prefetch:     true,
				Color:        multigpu.ColorPartitionOwned,
				DepthLocal:   true,
			}
		}
		for oi := range f.Objects {
			o := &f.Objects[oi]
			leftB := o.Bounds
			rightB := o.Bounds.Translate(shift)
			for g := 0; g < n; g++ {
				tile := stripRect(combined, g, n, vertical)
				if vertical {
					// Single-view passes: each tile sees at most one view's
					// share of the object.
					addTilePart(&tasks[g], o, pipeline.ModeSingleView, leftB, tile)
					addTilePart(&tasks[g], o, pipeline.ModeSingleView, rightB, tile)
				} else {
					// Horizontal strips span both views: one SMP pass whose
					// per-view fragment share is the strip's coverage of the
					// left bounds (the right view covers the same rows).
					area := leftB.Area()
					if area <= 0 {
						continue
					}
					inter := leftB.Intersect(tile)
					if inter.Empty() {
						continue
					}
					frac := inter.Area() / area
					tasks[g].Parts = append(tasks[g].Parts, multigpu.TaskPart{
						Object: o, Mode: pipeline.ModeBothSMP, GeomFrac: 1, FragFrac: frac,
					})
				}
			}
		}
		subs = subs[:0]
		for g := 0; g < n; g++ {
			if len(tasks[g].Parts) > 0 {
				subs = append(subs, driver.Submission{GPM: mem.GPMID(g), Task: tasks[g]})
			}
		}
		return driver.Plan{Framebuffer: driver.FBPartitioned, Submissions: subs}
	})
}

// addTilePart appends a single-view part covering bounds∩tile, if any.
func addTilePart(task *multigpu.Task, o *scene.Object, mode pipeline.Mode, bounds, tile geom.AABB) {
	area := bounds.Area()
	if area <= 0 {
		return
	}
	inter := bounds.Intersect(tile)
	if inter.Empty() {
		return
	}
	task.Parts = append(task.Parts, multigpu.TaskPart{
		Object: o, Mode: mode, GeomFrac: 1, FragFrac: inter.Area() / area,
	})
}

// stripRect returns strip g of n over the combined target, vertical or
// horizontal.
func stripRect(combined geom.AABB, g, n int, vertical bool) geom.AABB {
	if vertical {
		w := combined.Width() / float64(n)
		return geom.AABB{
			Min: geom.Vec2{X: combined.Min.X + float64(g)*w, Y: combined.Min.Y},
			Max: geom.Vec2{X: combined.Min.X + float64(g+1)*w, Y: combined.Max.Y},
		}
	}
	h := combined.Height() / float64(n)
	return geom.AABB{
		Min: geom.Vec2{X: combined.Min.X, Y: combined.Min.Y + float64(g)*h},
		Max: geom.Vec2{X: combined.Max.X, Y: combined.Min.Y + float64(g+1)*h},
	}
}

// ObjectSFR is the conventional object-level (sort-last) SFR of Section
// 4.3: the left and right views of every object are independent rendering
// tasks issued round-robin across GPMs, each object's data is placed in its
// renderer's local DRAM, and a master node (GPM0) composites every worker's
// output with its own ROPs.
type ObjectSFR struct {
	// Root is the master node that distributes work and composites.
	Root mem.GPMID
}

// Name implements driver.Planner.
func (ObjectSFR) Name() string { return "Object-Level" }

// Begin implements driver.Planner.
func (s ObjectSFR) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	n := sys.NumGPMs()
	// Per-run scratch rebuilt in place every frame: one part per object,
	// shared by the two views' submissions.
	var subs []driver.Submission
	var parts []multigpu.TaskPart
	return driver.PlanFunc(func(f *scene.Frame, fi int) driver.Plan {
		plan := driver.Plan{
			Framebuffer: driver.FBRoot, // the master node's DRAM holds the FB
			Root:        s.Root,
			Compose:     driver.ComposeRoot,
		}
		parts = slices.Grow(parts[:0], len(f.Objects))
		for oi := range f.Objects {
			parts = append(parts, multigpu.TaskPart{
				Object: &f.Objects[oi], Mode: pipeline.ModeSingleView,
				GeomFrac: 1, FragFrac: 1,
			})
		}
		subs = slices.Grow(subs[:0], 2*len(parts))
		// Left and right views are separate object streams ("it still
		// executes the objects from the left and right views separately").
		task := 0
		for view := 0; view < 2; view++ {
			for oi := range parts {
				g := mem.GPMID(task % n)
				task++
				subs = append(subs, driver.Submission{GPM: g, Task: multigpu.Task{
					Parts: parts[oi : oi+1 : oi+1],
					// Sort-last distribution: the master re-issues each
					// frame's object stream, re-distributing object data
					// with it (the framework has no cross-frame reuse
					// model — exactly the locality OO-VR's programming
					// model later captures). Distribution is pipelined
					// ahead of rendering.
					ShipTextures: true,
					ShipExact:    true,
					Prefetch:     true,
					Color:        multigpu.ColorLocalStage,
				}})
			}
		}
		plan.Submissions = subs
		return plan
	}), driver.Profile{}
}

// SingleGPU renders every object of a frame in one task on GPM0 with the
// given stereo mode: the single-GPU vehicle of the Section 3 validation,
// SMP stereo (ModeBothSMP) against rendering the two views one after the
// other (ModeBothSequential).
type SingleGPU struct{ Mode pipeline.Mode }

// Name implements driver.Planner.
func (s SingleGPU) Name() string { return "Single-GPU(" + s.Mode.String() + ")" }

// Begin implements driver.Planner.
func (s SingleGPU) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	var parts []multigpu.TaskPart // per-run scratch, rebuilt every frame
	subs := make([]driver.Submission, 1)
	return driver.PlanFunc(func(f *scene.Frame, fi int) driver.Plan {
		parts = slices.Grow(parts[:0], len(f.Objects))
		for oi := range f.Objects {
			parts = append(parts, multigpu.TaskPart{
				Object: &f.Objects[oi], Mode: s.Mode, GeomFrac: 1, FragFrac: 1,
			})
		}
		subs[0] = driver.Submission{GPM: 0, Task: multigpu.Task{Color: multigpu.ColorStriped, Parts: parts}}
		return driver.Plan{Submissions: subs}
	}), driver.Profile{}
}
