package core

import (
	"oovr/internal/driver"
	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/pipeline"
	"oovr/internal/scene"
	"oovr/internal/sim"
)

// StragglerFactor: a batch whose predicted time exceeds this multiple of the
// mean batch time is split fine-grained across all GPMs ("some large objects
// may still become the performance bottleneck if all the other batches have
// been completed" — Section 5.2).
const StragglerFactor = 3.0

// OOApp is the software-only object-oriented programming model (the OO_APP
// design point of Section 6): left/right views of each object are merged
// into a single SMP task, objects are grouped into TSL batches, but the
// batches are still distributed round-robin by software and composed on a
// master node — no runtime distribution engine, no DHC.
type OOApp struct {
	Middleware Middleware
	Root       mem.GPMID
}

// NewOOApp returns the OO_APP design point with the paper's constants.
func NewOOApp() OOApp { return OOApp{Middleware: NewMiddleware()} }

// Name implements driver.Planner.
func (OOApp) Name() string { return "OO_APP" }

// Begin implements driver.Planner.
func (a OOApp) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	sc := sys.Scene()
	n := sys.NumGPMs()
	grouper := NewGrouper(a.Middleware)
	// Per-run scratch: the submission list and task-part arena are rebuilt
	// in place every frame, so steady-state planning allocates nothing.
	var subs []driver.Submission
	var parts []multigpu.TaskPart
	return driver.PlanFunc(func(f *scene.Frame, fi int) driver.Plan {
		plan := driver.Plan{
			Framebuffer: driver.FBRoot,
			Root:        a.Root,
			Compose:     driver.ComposeRoot,
		}
		batches := grouper.GroupFrame(sc, f)
		subs = subs[:0]
		parts = parts[:0]
		for bi := range batches {
			g := mem.GPMID(bi % n)
			task := batchTask(&parts, &batches[bi], false)
			// Software-only data placement: the middleware copies exactly
			// the batch's working set to its round-robin GPM; the mapping
			// is stable across frames. Without hardware PA units the copy
			// blocks the batch start.
			task.ShipTextures = true
			task.ShipPersistent = true
			task.ShipExact = true
			subs = append(subs, driver.Submission{GPM: g, Task: task})
		}
		plan.Submissions = subs
		return plan
	}), driver.Profile{}
}

// OOVR is the full software/hardware co-designed framework: OO_APP's
// programming model plus the object-aware runtime distribution engine
// (predictor + PA pre-allocation + fine-grained straggler mapping) and the
// distributed hardware composition unit.
type OOVR struct {
	Middleware Middleware
	// DisablePredictor falls back to round-robin batch assignment (the A2
	// ablation).
	DisablePredictor bool
	// DisableDHC composes on a master node instead of distributing
	// composition (the A3 ablation).
	DisableDHC bool
	// DisableStragglerSplit turns off the fine-grained left-over task
	// mapping.
	DisableStragglerSplit bool
	// Stats, when non-nil, collects distribution-engine occupancy
	// statistics across the run (tests and diagnostics). The pointer is
	// shared by every run of this value — a Stats-carrying OOVR must not
	// be used across concurrent runs (e.g. a Parallel experiment harness).
	Stats *EngineStats
}

// EngineStats reports how hard the distribution engine's bounded batch
// queues were driven during a run.
type EngineStats struct {
	// FullQueueStalls counts dispatches that found every GPM queue at
	// MaxBatchQueue and had to stall for the earliest predicted completion.
	FullQueueStalls int
	// MaxQueueDepth is the deepest any GPM's batch queue got.
	MaxQueueDepth int
	// AffinityBlocked counts assignments where the data-affinity preference
	// was abandoned because the preferred GPM's queue was full.
	AffinityBlocked int
}

// batchQueues models the engine's bounded per-GPM batch queues (Section
// 5.2: "we limit the maximum size of the batch queue to 4"). The engine
// dispatches a frame's batches far faster than the GPMs render them, so the
// queues fill as it runs ahead; a queued batch retires when its predicted
// completion passes the engine's dispatch clock, and the clock advances
// only when every queue is full and dispatch must stall for the earliest
// predicted completion. Everything is driven by Equation (3) predictions —
// no oracle knowledge of actual completion times — so the occupancy model
// is deterministic and costs O(NumGPMs) per batch.
type batchQueues struct {
	// done holds each GPM's queued predicted completion times, in dispatch
	// (hence ascending) order; head[g] is the first still-queued entry.
	// Retired entries stay in the backing array until the per-frame Reset,
	// so the queues never reallocate in steady state.
	done  [][]sim.Time
	head  []int
	clock sim.Time
	stats *EngineStats
}

// Reset prepares the queues for a new frame, reusing the backing arrays.
func (q *batchQueues) Reset(n int, stats *EngineStats) {
	if len(q.done) != n {
		q.done = make([][]sim.Time, n)
		q.head = make([]int, n)
	}
	for g := range q.done {
		q.done[g] = q.done[g][:0]
		q.head[g] = 0
	}
	q.clock = 0
	q.stats = stats
}

// Drain retires every queued batch whose predicted completion has passed
// the dispatch clock and refreshes counters[g].QueuedBatches.
func (q *batchQueues) Drain(counters []GPMCounters) {
	for g := range q.done {
		d, h := q.done[g], q.head[g]
		for h < len(d) && d[h] <= q.clock {
			h++
		}
		q.head[g] = h
		counters[g].QueuedBatches = len(d) - h
	}
}

// Stall advances the dispatch clock to the earliest queued predicted
// completion — the engine waits for a queue slot — and drains.
func (q *batchQueues) Stall(counters []GPMCounters) {
	var min sim.Time
	first := true
	for g := range q.done {
		if q.head[g] >= len(q.done[g]) {
			continue
		}
		if first || q.done[g][q.head[g]] < min {
			min = q.done[g][q.head[g]]
			first = false
		}
	}
	if first {
		return // nothing queued anywhere; clock stays put
	}
	q.clock = min
	if q.stats != nil {
		q.stats.FullQueueStalls++
	}
	q.Drain(counters)
}

// anyQueueFull reports whether any GPM's batch queue is at MaxBatchQueue.
func anyQueueFull(counters []GPMCounters) bool {
	for g := range counters {
		if counters[g].QueuedBatches >= MaxBatchQueue {
			return true
		}
	}
	return false
}

// Enqueue records a batch assigned to GPM g with predicted completion t.
func (q *batchQueues) Enqueue(g int, t sim.Time, counters []GPMCounters) {
	q.done[g] = append(q.done[g], t)
	depth := len(q.done[g]) - q.head[g]
	counters[g].QueuedBatches = depth
	if q.stats != nil && depth > q.stats.MaxQueueDepth {
		q.stats.MaxQueueDepth = depth
	}
}

// NewOOVR returns the full OO-VR configuration.
func NewOOVR() OOVR { return OOVR{Middleware: NewMiddleware()} }

// Name implements driver.Planner.
func (OOVR) Name() string { return "OOVR" }

// Begin implements driver.Planner.
func (v OOVR) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	return &oovrPlanner{
		cfg:     v,
		sys:     sys,
		pred:    &Predictor{},
		grouper: NewGrouper(v.Middleware),
		frame:   -1,
	}, driver.Profile{}
}

// oovrPlanner is the runtime distribution engine as a frame planner. While
// the Equation (3) predictor calibrates, it plans one batch per chunk
// (Plan.More) and learns each batch's measured time through TaskDone; once
// fitted, every decision is prediction-driven, so the rest of the frame is
// planned ahead in one final chunk.
type oovrPlanner struct {
	cfg     OOVR
	sys     *multigpu.System
	pred    *Predictor
	grouper *Grouper
	// prevAssign remembers where each batch ran last frame (-1 when it has
	// not run yet): the PA units' pre-allocated data sits in that GPM's
	// DRAM, so the engine prefers it whenever the predicted availability is
	// close, avoiding a needless re-ship.
	prevAssign []int32

	// Per-frame dispatch state. The engine's view of each GPM: predicted
	// availability driven by Equation (3), not by oracle knowledge of
	// actual completion times. counters, queues and the subs/parts arenas
	// are reused across frames so the steady-state planning path allocates
	// nothing.
	frame         int
	batches       []Batch
	bi            int
	counters      []GPMCounters
	queues        batchQueues
	subs          []driver.Submission
	parts         []multigpu.TaskPart
	meanPredicted float64
	// calibrating is the batch the last single-batch chunk submitted,
	// awaiting its measured rendering time.
	calibrating *Batch
}

// shell returns the frame plan skeleton: the framebuffer arrangement the
// composition mode needs.
func (p *oovrPlanner) shell() driver.Plan {
	if p.cfg.DisableDHC {
		return driver.Plan{Framebuffer: driver.FBRoot, Root: 0}
	}
	return driver.Plan{Framebuffer: driver.FBPartitioned}
}

// PlanFrame implements driver.FramePlanner.
func (p *oovrPlanner) PlanFrame(f *scene.Frame, fi int) driver.Plan {
	n := p.sys.NumGPMs()
	if fi != p.frame {
		p.frame = fi
		p.batches = p.grouper.GroupFrame(p.sys.Scene(), f)
		p.bi = 0
		if len(p.counters) != n {
			p.counters = make([]GPMCounters, n)
		} else {
			clear(p.counters)
		}
		p.queues.Reset(n, p.cfg.Stats)
		p.subs = reserve(p.subs, len(p.batches))
		p.parts = p.parts[:0]
		for len(p.prevAssign) < len(p.batches) {
			p.prevAssign = append(p.prevAssign, -1)
		}
		p.meanPredicted = 0
		if p.pred.Calibrated() {
			var tot float64
			for bi := range p.batches {
				tot += p.pred.PredictTotal(float64(p.batches[bi].Triangles))
			}
			p.meanPredicted = tot / float64(len(p.batches))
		}
	}

	plan := p.shell()
	subs := p.subs[:0]
	for ; p.bi < len(p.batches); p.bi++ {
		b := &p.batches[p.bi]
		// Batches retire from the engine's queues as their predicted
		// completions pass the dispatch clock.
		p.queues.Drain(p.counters)

		// Fine-grained straggler mapping: an outsized batch is split
		// across all GPMs by triangle/fragment ID, with its data
		// duplicated to the idle GPMs.
		split := false
		if !p.cfg.DisableStragglerSplit && p.pred.Calibrated() && p.meanPredicted > 0 {
			t := p.pred.PredictTotal(float64(b.Triangles))
			split = t > StragglerFactor*p.meanPredicted
		}
		if split {
			// The fine-grained broadcast needs a queue slot on every GPM;
			// the engine stalls until all of them have room.
			for anyQueueFull(p.counters) {
				p.queues.Stall(p.counters)
			}
			frac := 1 / float64(n)
			for g := 0; g < n; g++ {
				task := batchTaskFrac(&p.parts, b, frac)
				// The PA units duplicate the batch's working set into each
				// idle GPM's DRAM (Section 5.2); the copies persist.
				task.ShipTextures = true
				task.ShipPersistent = true
				task.ShipExact = true
				task.Prefetch = true
				subs = append(subs, driver.Submission{GPM: mem.GPMID(g), Task: task})
				p.counters[g].PredictedFree += sim.Time(p.pred.PredictTotal(float64(b.Triangles)) * frac)
				p.queues.Enqueue(g, p.counters[g].PredictedFree, p.counters)
			}
			continue
		}

		if !p.pred.Calibrated() {
			// Calibration rounds use round-robin + first touch, one batch
			// per chunk: the measured time arrives via TaskDone before the
			// next batch is planned.
			g := p.bi % n
			p.prevAssign[p.bi] = int32(g)
			task := batchTask(&p.parts, b, false)
			// PA units copy the batch's exact working set ahead of time.
			task.ShipTextures = true
			task.ShipPersistent = true
			task.ShipExact = true
			p.calibrating = b
			p.bi++
			subs = append(subs, driver.Submission{GPM: mem.GPMID(g), Task: task})
			p.subs = subs
			plan.Submissions = subs
			plan.More = true
			return plan
		}

		var g int
		if p.cfg.DisablePredictor {
			g = p.bi % n // the A2 ablation keeps round-robin forever
		} else {
			g = EarliestAvailable(p.counters)
			if g < 0 {
				// Every queue is full: the engine stalls until the
				// earliest predicted completion frees a slot, then
				// re-picks (the drained GPM is the least loaded with
				// room). Should draining ever come up empty, fall back
				// to the least loaded GPM outright rather than wedge.
				p.queues.Stall(p.counters)
				if g = EarliestAvailable(p.counters); g < 0 {
					g = 0
					for cand := 1; cand < n; cand++ {
						if p.counters[cand].PredictedFree < p.counters[g].PredictedFree {
							g = cand
						}
					}
				}
			}
			// Data affinity: stick with last frame's GPM when it is
			// predicted to be nearly as early.
			if pg := int(p.prevAssign[p.bi]); pg >= 0 && pg < n {
				if p.counters[pg].QueuedBatches >= MaxBatchQueue {
					if p.cfg.Stats != nil {
						p.cfg.Stats.AffinityBlocked++
					}
				} else {
					slack := sim.Time(0.2 * p.meanPredicted)
					if p.counters[pg].PredictedFree <= p.counters[g].PredictedFree+slack {
						g = pg
					}
				}
			}
		}
		p.prevAssign[p.bi] = int32(g)
		task := batchTask(&p.parts, b, true)
		// PA units copy the batch's exact working set ahead of time.
		task.ShipTextures = true
		task.ShipPersistent = true
		task.ShipExact = true
		subs = append(subs, driver.Submission{GPM: mem.GPMID(g), Task: task})
		p.counters[g].PredictedFree += sim.Time(p.pred.PredictTotal(float64(b.Triangles)))
		p.queues.Enqueue(g, p.counters[g].PredictedFree, p.counters)
	}
	p.subs = subs
	plan.Submissions = subs

	if p.cfg.DisableDHC {
		plan.Compose = driver.ComposeRoot
	} else {
		plan.Compose = driver.ComposeDistributed
	}
	return plan
}

// TaskDone implements driver.Observer: it feeds the predictor's
// calibration with a single-batch chunk's measured rendering time.
func (p *oovrPlanner) TaskDone(fi int, sub *driver.Submission, start, end sim.Time) {
	b := p.calibrating
	if b == nil {
		return // prediction-planned batches have nothing left to learn
	}
	p.calibrating = nil
	g := int(sub.GPM)
	p.counters[g].PredictedFree += sim.Time(p.pred.PredictTotal(float64(b.Triangles)))
	p.queues.Enqueue(g, p.counters[g].PredictedFree, p.counters)
	// Feed the calibration with this batch's measured time and its
	// counter volumes.
	var work pipeline.Work
	for _, o := range b.Objects {
		work = work.Add(pipeline.ObjectWork(o, pipeline.ModeBothSMP, 1, 1))
	}
	p.pred.Observe(
		float64(b.Triangles),
		pipeline.TransformedVertices(work),
		work.Pixels,
		float64(end-start),
	)
}

// batchTask builds the multi-view SMP task for a whole batch, carving its
// part list from the caller's arena. prefetch overlaps the batch's data
// shipping with the previous batch (only available once the engine is
// calibrated and assigning ahead).
func batchTask(arena *[]multigpu.TaskPart, b *Batch, prefetch bool) multigpu.Task {
	return multigpu.Task{
		Color:    multigpu.ColorLocalStage,
		Prefetch: prefetch,
		Parts:    appendParts(arena, b, 1),
	}
}

// batchTaskFrac builds one GPM's share of a fine-grained split batch.
func batchTaskFrac(arena *[]multigpu.TaskPart, b *Batch, frac float64) multigpu.Task {
	return multigpu.Task{
		Color: multigpu.ColorLocalStage,
		Parts: appendParts(arena, b, frac),
	}
}

// appendParts carves a batch's part list out of a per-run arena the caller
// resets once per frame, so steady-state planning builds tasks without
// allocating. The full-slice expression caps the result: later arena
// appends can never alias an already-issued task's parts.
func appendParts(arena *[]multigpu.TaskPart, b *Batch, frac float64) []multigpu.TaskPart {
	a := *arena
	start := len(a)
	for _, o := range b.Objects {
		a = append(a, multigpu.TaskPart{
			Object: o, Mode: pipeline.ModeBothSMP, GeomFrac: frac, FragFrac: frac,
		})
	}
	*arena = a
	return a[start:len(a):len(a)]
}
