// Package multigpu assembles the full NUMA-based multi-GPU system of the
// paper's Figure 3: N GPMs (each with local DRAM behind a bandwidth-limited
// memory controller), a full-mesh NVLink fabric, and the shared NUMA address
// space, every allocation of which is placed before it is first accessed.
//
// The package is the execution substrate for all rendering schedulers: a
// scheduler binds a scene, then submits Tasks (sets of object shares) to
// GPMs and composition passes to ROPs; the system resolves every byte of
// traffic through the memory system and fabric and keeps per-GPM timing.
package multigpu

import (
	"fmt"
	"slices"

	"oovr/internal/gpu"
	"oovr/internal/link"
	"oovr/internal/mem"
	"oovr/internal/obs"
	"oovr/internal/pipeline"
	"oovr/internal/registry"
	"oovr/internal/scene"
	"oovr/internal/sim"
	"oovr/internal/topo"
)

// Options configure a System beyond the hardware Config.
type Options struct {
	// Config is the hardware configuration (Table 2 defaults).
	Config gpu.Config
	// Cache is the texture cache filter model.
	Cache gpu.CacheModel
	// OverlapFactor is how much of a task's compute time can hide memory
	// latency (thousands of threads in flight — Section 6.2). 0 means no
	// overlap (fully serial), 1 means memory is free until it exceeds the
	// compute time.
	OverlapFactor float64
	// IssueCyclesPerDraw is the serial front-end cost per draw command.
	IssueCyclesPerDraw float64
	// PageSize for the NUMA placement.
	PageSize int64
	// RemoteCacheHitRate for repeated remote reads (the [5] remote cache the
	// baseline employs, Section 3).
	RemoteCacheHitRate float64
	// ShipOverfetch scales the texture working set a sort-first framework
	// ships to a tile renderer: the framework cannot predict which texels a
	// strip will sample, so it over-distributes conservatively.
	ShipOverfetch float64
}

// DefaultOptions returns the calibrated defaults used by every experiment.
func DefaultOptions() Options {
	return Options{
		Config:             gpu.Table2Config(),
		Cache:              gpu.DefaultCacheModel(),
		OverlapFactor:      0.7,
		IssueCyclesPerDraw: 60,
		PageSize:           4096,
		RemoteCacheHitRate: 0.5,
		ShipOverfetch:      2.8,
	}
}

// Validate returns an error naming the first option outside its domain:
// the Config's, the Cache's, then these options' own (ShipOverfetch 0
// means 1), then the memory system's. The interconnect's name, links and
// connectivity are topo.Build's to check.
func (o Options) Validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if err := o.Cache.Validate(); err != nil {
		return err
	}
	if err := registry.Check("multigpu",
		registry.In("OverlapFactor", o.OverlapFactor, 0, 1),
		registry.In("IssueCyclesPerDraw", o.IssueCyclesPerDraw, 0, 1e6),
		registry.In("ShipOverfetch", o.ShipOverfetch, 0, 1e3)); err != nil {
		return err
	}
	return o.memConfig().Validate()
}

// memConfig is the memory system's share of the options.
func (o Options) memConfig() mem.Config {
	return mem.Config{
		NumGPMs:            o.Config.NumGPMs,
		PageSize:           o.PageSize,
		RemoteCacheHitRate: o.RemoteCacheHitRate,
	}
}

// ColorTarget selects where a task's color output lands.
type ColorTarget int

const (
	// ColorStriped writes to the shared framebuffer whose pages are striped
	// across all GPMs — the baseline's single-GPU-image address mapping.
	ColorStriped ColorTarget = iota
	// ColorLocalStage writes to a per-GPM staging buffer in local DRAM; a
	// later composition pass moves pixels to the final framebuffer
	// (object-level SFR and OO-VR render this way).
	ColorLocalStage
	// ColorPartitionOwned writes directly into the GPM's own partition of
	// the framebuffer (tile-level SFR, where tile = partition).
	ColorPartitionOwned
)

// TaskPart is one object's share inside a task.
type TaskPart struct {
	Object   *scene.Object
	Mode     pipeline.Mode
	GeomFrac float64
	FragFrac float64
}

// Task is one schedulable unit on a GPM.
type Task struct {
	// Parts are the object shares rendered by this task, in order.
	Parts []TaskPart
	// ShipTextures makes the framework copy each referenced texture (and
	// vertex buffer) into the GPM's DRAM before rendering, the sort-last /
	// sort-first data distribution of the software frameworks. Without it,
	// the task demand-fetches through the NUMA space.
	ShipTextures bool
	// ShipPersistent keeps shipped copies resident across frames. Sort-last
	// (object-level) distribution is screen-independent, so an object's data
	// stays useful on its GPM frame after frame; sort-first (tile-level)
	// mappings move with the camera, so tile renderers must re-ship every
	// frame. Ignored unless ShipTextures is set.
	ShipPersistent bool
	// MigrateData makes the PA (pre-allocation) units move the task's
	// texture and vertex pages into this GPM's DRAM before rendering
	// (OO-VR, Section 5.2). Unlike ShipTextures this re-homes the pages —
	// the NUMA space keeps one copy — so a batch that lands on the same GPM
	// next frame pays nothing.
	MigrateData bool
	// ShipExact ships exactly the working set the task will sample (the
	// OO-VR programming model knows each batch's textures and views), with
	// no sort-first overfetch. Implies nothing unless ShipTextures is set.
	ShipExact bool
	// Prefetch overlaps the shipping with earlier work instead of blocking
	// the task start (OO-VR's PA units pre-allocate while the previous
	// batch renders, Section 5.2).
	Prefetch bool
	// UseLocalCopies makes Execute read textures and vertices from this
	// GPM's private copies (AFR's separate memory spaces; see
	// EnsureLocalCopies) instead of the shared pool. Ship and Migrate act
	// on the shared segments either way.
	UseLocalCopies bool
	// SharedL2 models the single-programming-model baseline: all GPMs form
	// one logical GPU whose L2 slices are address-interleaved, so every
	// texture sample travels to the slice owning the address — hit or miss,
	// link traffic is proportional to sample volume and the per-GPM caches
	// provide no NUMA filtering.
	SharedL2 bool
	// Color selects the color output path.
	Color ColorTarget
	// DepthLocal confines Z traffic to the GPM's own partition (AFR and
	// tile-level SFR); otherwise the Z surface is striped across GPMs.
	DepthLocal bool
}

// GPMState tracks one GPM's timeline.
type GPMState struct {
	NextFree sim.Time
	Busy     sim.Time
	Tasks    int
	// StagedPixels accumulates pixels written to the local staging buffer
	// since the last composition.
	StagedPixels float64
}

// System is a bound (hardware, scene) pair ready to execute tasks.
type System struct {
	opt    Options
	rates  gpu.Rates
	nGPM   int
	Mem    *mem.System
	Fabric *link.Fabric // nil when nGPM == 1
	dram   []*sim.Resource
	rop    []*sim.Resource
	gpms   []GPMState

	sc       *scene.Scene
	texSeg   []mem.SegmentID // shared pool, by TextureID
	vbSeg    []mem.SegmentID // by object index (meshes are shared across frames)
	fbSeg    mem.SegmentID
	depthSeg mem.SegmentID
	cmdSeg   mem.SegmentID
	stageSeg []mem.SegmentID // per GPM color staging

	// Per-frame transfer state lives in epoch-stamped slices indexed by
	// segment id: BeginFrame resets all of it by bumping frameEpoch, so the
	// steady-state frame loop allocates nothing.
	//
	// shipStamp[g][seg] == frameEpoch when seg has been transferred to GPM g
	// in the current frame (sort-first frameworks re-distribute per frame).
	shipStamp [][]uint64
	// claimStamp[seg] == frameEpoch when a PA unit migrated seg this frame;
	// claimOwner[seg] is the GPM whose batch claimed it. A shared texture
	// migrates at most once per frame so that batches on other GPMs do not
	// ping-pong it (they demand-fetch).
	claimStamp []uint64
	claimOwner []mem.GPMID
	frameEpoch uint64

	// Ship's working state: per-segment working-set budgets stamped by
	// shipSerial plus the touched-id list, reused across tasks.
	shipBudget []float64
	shipMark   []uint64
	shipSerial uint64
	shipIDs    []mem.SegmentID
	// ropScratch is ComposeDistributed's per-owner pixel accumulator.
	ropScratch []float64

	frameLatency []sim.Time
	frameStart   sim.Time

	// phases accumulates the run's simulated cycles per frame phase
	// (integer adds on paths already gated at 0 allocs/op).
	phases PhaseCycles

	// tl, when non-nil, records per-task phase spans on per-GPM lanes
	// (simulated cycles; see internal/obs). Strictly observational: the
	// recorder is fed values the simulation already computed and nothing
	// reads it back. Disabled (nil) it costs one branch per phase, which
	// the 0 allocs/op frame gate covers.
	tl                            *obs.Timeline
	tlShip, tlMig, tlExec, tlComp []obs.LaneID
	taskSerial                    int64
}

// PhaseCycles breaks a run's simulated time into the frame phases: data
// distribution (Ship), PA-unit pre-allocation (Migrate), rendering
// (Execute — compute plus unhidden memory stall), and the cycles by which
// composition extended frames beyond rendering (Compose; composition
// overlaps rendering, so only its excess counts). Strictly observational:
// nothing reads it back into the simulation.
type PhaseCycles struct {
	Ship    sim.Time `json:"ship"`
	Migrate sim.Time `json:"migrate"`
	Execute sim.Time `json:"execute"`
	Compose sim.Time `json:"compose"`
}

// Phases returns the per-phase cycle totals accumulated so far.
func (s *System) Phases() PhaseCycles { return s.phases }

// AttachTimeline starts recording per-task phase spans into tl: one
// trace process per GPM with ship/migrate/execute/compose lanes, plus
// per-link flow lanes on the fabric. Lane time is simulated cycles;
// ClockGHz*1000 cycles make a microsecond. Attach before the first
// frame so lane registration order (and thus the exported byte stream)
// is deterministic. A nil tl is a no-op.
func (s *System) AttachTimeline(tl *obs.Timeline) {
	if tl == nil {
		return
	}
	s.tl = tl
	ticks := s.opt.Config.ClockGHz * 1000
	for g := 0; g < s.nGPM; g++ {
		proc := fmt.Sprintf("gpm%d", g)
		s.tlShip = append(s.tlShip, tl.AddLane(proc, "ship", ticks))
		s.tlMig = append(s.tlMig, tl.AddLane(proc, "migrate", ticks))
		s.tlExec = append(s.tlExec, tl.AddLane(proc, "execute", ticks))
		s.tlComp = append(s.tlComp, tl.AddLane(proc, "compose", ticks))
	}
	if s.Fabric != nil {
		s.Fabric.AttachTimeline(tl, ticks)
	}
}

// Timeline returns the attached recorder, or nil when recording is off.
func (s *System) Timeline() *obs.Timeline { return s.tl }

// padTo grows sl to hold index i, filling new slots with pad. Segment-
// indexed state grows lazily, to the largest index it actually stores. A
// table that must grow reserves room for at least want entries at once
// (the shared segments every such table is keyed by).
func padTo[T any](sl []T, i, want int, pad T) []T {
	if cap(sl) <= i {
		sl = slices.Grow(sl, max(i+1, want)-len(sl))
	}
	for len(sl) <= i {
		sl = append(sl, pad)
	}
	return sl
}

// numShared returns how many texture and vertex segments the scene shares
// across GPMs. New allocates them first, so they are ids [0, numShared).
func (s *System) numShared() int { return len(s.texSeg) + len(s.vbSeg) }

// shippedThisFrame reports whether seg was already transferred to GPM gi in
// the current frame.
func (s *System) shippedThisFrame(gi int, seg mem.SegmentID) bool {
	st := s.shipStamp[gi]
	return int(seg) < len(st) && st[seg] == s.frameEpoch
}

// markShipped records seg as transferred to GPM gi this frame.
func (s *System) markShipped(gi int, seg mem.SegmentID) {
	if int(seg) >= len(s.shipStamp[gi]) {
		s.shipStamp[gi] = padTo(s.shipStamp[gi], int(seg), s.numShared(), 0)
	}
	s.shipStamp[gi][seg] = s.frameEpoch
}

// New binds a system to a scene. The framebuffer and depth surfaces are
// allocated for the side-by-side stereo target and striped by default; the
// command stream lives on GPM0 where the driver writes it. New panics on
// options Validate or topo.Build rejects.
func New(opt Options, sc *scene.Scene) *System {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	if opt.ShipOverfetch == 0 {
		opt.ShipOverfetch = 1
	}
	n := opt.Config.NumGPMs
	s := &System{
		opt:        opt,
		rates:      opt.Config.GPMRates(),
		nGPM:       n,
		Mem:        mem.NewSystem(opt.memConfig()),
		gpms:       make([]GPMState, n),
		sc:         sc,
		shipStamp:  make([][]uint64, n),
		frameEpoch: 1,
		ropScratch: make([]float64, n),
	}
	if n > 1 {
		// The interconnect is built from the configured topology (fullmesh
		// unless the config names another); each physical link's FIFO
		// server counts the bytes it carries, which Collect reports.
		g, err := topo.Build(opt.Config.TopologyParams())
		if err != nil {
			panic("multigpu: " + err.Error())
		}
		s.Fabric = link.New(g, opt.Config.ClockGHz)
	}
	dramRate := opt.Config.DRAMBytesPerCycle()
	for g := 0; g < n; g++ {
		s.dram = append(s.dram, sim.NewResource("dram", dramRate))
		s.rop = append(s.rop, sim.NewResource("rop", s.rates.PixelsPerCycle))
	}

	// Vertex buffers are sized from the scene's allocation envelope: the
	// materialized frames plus any declared streaming capacity (meshes are
	// shared across frames, so one buffer per object index suffices).
	vcaps := sc.VertexCapacities()
	s.Mem.Grow(len(sc.Textures) + len(vcaps) + 3 + n) // + framebuffer, depth, commands, stages
	// Shared allocations. Texture contents and vertex buffers are
	// pre-allocated in GPU memory before rendering (Section 2.2), so their
	// pages start striped across the NUMA partitions (Alloc's placement);
	// locality-aware schemes re-place them explicitly.
	s.texSeg = make([]mem.SegmentID, len(sc.Textures))
	for i, t := range sc.Textures {
		s.texSeg[i] = s.Mem.Alloc(mem.KindTexture, t.Name, t.Bytes)
	}
	s.vbSeg = make([]mem.SegmentID, len(vcaps))
	for i, size := range vcaps {
		s.vbSeg[i] = s.Mem.Alloc(mem.KindVertex, "vb", size)
	}
	fbBytes := int64(2 * sc.PixelsPerView() * scene.BytesPerPixel)
	s.fbSeg = s.Mem.Alloc(mem.KindFramebuffer, "framebuffer", fbBytes)
	depthBytes := int64(2 * sc.PixelsPerView() * 4)
	s.depthSeg = s.Mem.Alloc(mem.KindDepth, "depth", depthBytes)
	maxDraws := int64(sc.MaxObjects())
	s.cmdSeg = s.Mem.Alloc(mem.KindCommand, "commands", 2*maxDraws*pipeline.CommandBytesPerDraw)
	s.Mem.Place(s.cmdSeg, 0)
	for g := 0; g < n; g++ {
		st := s.Mem.Alloc(mem.KindFramebuffer, "stage", fbBytes)
		s.Mem.Place(st, mem.GPMID(g))
		s.stageSeg = append(s.stageSeg, st)
	}
	return s
}

// Options returns the system's options.
func (s *System) Options() Options { return s.opt }

// NumGPMs returns the GPM count.
func (s *System) NumGPMs() int { return s.nGPM }

// Scene returns the bound scene.
func (s *System) Scene() *scene.Scene { return s.sc }

// GPM returns the state of GPM g.
func (s *System) GPM(g int) GPMState { return s.gpms[g] }

// PartitionFramebuffer re-places the framebuffer and depth surfaces into N
// contiguous per-GPM partitions (tile-level SFR and the OO-VR distributed
// hardware composition both arrange the final target this way).
func (s *System) PartitionFramebuffer() {
	s.Mem.PlacePartitioned(s.fbSeg)
	s.Mem.PlacePartitioned(s.depthSeg)
}

// PlaceFramebufferAt homes the whole framebuffer on one GPM (the
// conventional object-level SFR maps the FB in the master node's DRAM).
func (s *System) PlaceFramebufferAt(g mem.GPMID) {
	s.Mem.Place(s.fbSeg, g)
}

// PlaceSharedPartitioned re-places every shared texture and vertex segment
// into N contiguous per-GPM shares — a named initial layout the spec layer
// exposes (placement swaps are free of traffic; see internal/mem).
func (s *System) PlaceSharedPartitioned() {
	for id := range mem.SegmentID(s.numShared()) {
		s.Mem.PlacePartitioned(id)
	}
}

// PlaceSharedAt homes every shared texture and vertex segment on one GPM —
// the pathological single-home placement.
func (s *System) PlaceSharedAt(g mem.GPMID) {
	for id := range mem.SegmentID(s.numShared()) {
		s.Mem.Place(id, g)
	}
}

// EnsureLocalCopies registers a private copy of every shared texture and
// vertex buffer on the GPM (mem.System.Copy), modelling AFR's
// pre-allocated per-GPM memory spaces. The copy is made at application
// load time, so it costs capacity but no link time. Idempotent.
func (s *System) EnsureLocalCopies(g mem.GPMID) {
	for id := range mem.SegmentID(s.numShared()) {
		s.Mem.Copy(id, g)
	}
}

// reserveFlow books a flow's bytes on the requester DRAM and on the links
// that carry the remote portions, all starting at t, and returns the
// completion time of the slowest stream.
func (s *System) reserveFlow(t sim.Time, f mem.Flow) sim.Time {
	end := s.dram[f.Requester].Reserve(t, f.LocalBytes)
	if s.Fabric != nil {
		if le := s.Fabric.ReserveFlow(t, f); le > end {
			end = le
		}
	}
	return end
}

// taskContext carries one task through Run's execution phases. Its start
// begins at the GPM's availability; Ship and Migrate book their transfer
// flows and, unless the task prefetches, push the start past the transfer;
// Execute issues the rendering flows, charges compute and stall time, and
// commits the GPM timeline.
type taskContext struct {
	sys   *System
	gpm   mem.GPMID
	task  Task
	start sim.Time
	// shipped records that the Ship phase ran: Execute then reads every
	// texture and vertex buffer from the GPM's copy (Ship registers a copy
	// of exactly the segments Execute reads).
	shipped bool
	// serial identifies the task on timeline spans (assigned only while
	// recording; 0 otherwise).
	serial int64
}

// Ship performs the software data distribution of the sort-first/sort-last
// frameworks: each referenced segment is copied into the GPM's DRAM, after
// which the task's reads are local. A persistent task skips every segment
// the GPM already holds a copy of before sizing it: that copy is still
// valid. Without Prefetch the task start moves past the transfer.
func (c *taskContext) Ship() {
	s, g, task := c.sys, c.gpm, &c.task
	// The framework ships each object's texture *working set* — what
	// the object's fragments will sample, bounded by the texture size —
	// plus its vertex buffer. Two parts sharing a texture ship the
	// larger working set once. Budgets live in a serial-stamped scratch
	// table on the System so the per-task path allocates nothing.
	s.shipSerial++
	serial := s.shipSerial
	ids := s.shipIDs[:0]
	budget := func(orig mem.SegmentID, want float64) {
		if int(orig) >= len(s.shipMark) {
			s.shipMark = padTo(s.shipMark, int(orig), s.numShared(), 0)
			s.shipBudget = padTo(s.shipBudget, int(orig), s.numShared(), 0)
		}
		if s.shipMark[orig] != serial {
			s.shipMark[orig] = serial
			s.shipBudget[orig] = want
			ids = append(ids, orig)
		} else if want > s.shipBudget[orig] {
			s.shipBudget[orig] = want
		}
	}
	resident := func(seg mem.SegmentID) bool { return task.ShipPersistent && s.Mem.HasCopy(g, seg) }
	for _, p := range task.Parts {
		want, sized := 0.0, false
		for _, tid := range p.Object.Textures {
			if seg := s.texSeg[tid]; !resident(seg) {
				if !sized {
					want, sized = s.shipTextureBytes(p, task.ShipExact), true
				}
				budget(seg, want)
			}
		}
		if vb := s.vbSeg[p.Object.Index]; !resident(vb) {
			budget(vb, float64(s.Mem.Segment(vb).Size))
		}
	}
	// Reserve in segment-id order: FIFO resources book reservations in
	// arrival order, so a stable order keeps the run's timings independent
	// of the scratch table's fill order.
	slices.Sort(ids)
	c.shipped = true
	shipEnd := c.start
	for _, orig := range ids {
		s.ship(g, orig, s.shipBudget[orig], c.start, &shipEnd)
	}
	s.shipIDs = ids[:0]
	s.phases.Ship += shipEnd - c.start
	if s.tl != nil && shipEnd > c.start {
		s.tl.Span(s.tlShip[g], "ship", int64(c.start), int64(shipEnd),
			obs.Arg{K: "task", V: c.serial}, obs.Arg{})
	}
	if !task.Prefetch {
		c.start = shipEnd
	}
}

// shipTextureBytes is the working set a framework ships of each texture
// of part p: what the part's fragments will sample, times the overfetch.
func (s *System) shipTextureBytes(p TaskPart, exact bool) float64 {
	// The framework distributes per *view region*: a strip covering both
	// views ships (most of) both views' working sets even when SMP merges
	// their shading — SMP saves compute, not data distribution.
	views := 1.0
	if p.Mode != pipeline.ModeSingleView {
		views = 1.7
	}
	overfetch := s.opt.ShipOverfetch
	if exact {
		// The OO middleware ships exactly what the batch samples,
		// including the SMP inter-view overlap.
		views = pipeline.ObjectMemVolumes(p.Object, p.Mode, 1, 1).FragsForTexture / p.Object.FragsPerView
		overfetch = 1
	}
	return views * p.Object.FragsPerView * s.opt.Cache.SampleBytesPerFragment * overfetch
}

// Migrate performs OO-VR's PA-unit pre-allocation: the task's texture and
// vertex pages are re-homed into the GPM's DRAM (one NUMA copy, unlike
// Ship). A shared segment migrates at most once per frame. Without
// Prefetch the task start moves past the migration.
func (c *taskContext) Migrate() {
	s, g, task := c.sys, c.gpm, &c.task
	gi := int(g)
	migEnd := c.start
	migrate := func(seg mem.SegmentID) {
		if s.shippedThisFrame(gi, seg) {
			return
		}
		s.markShipped(gi, seg)
		if int(seg) < len(s.claimStamp) && s.claimStamp[seg] == s.frameEpoch && s.claimOwner[seg] != g {
			return // another GPM's batch owns it this frame
		}
		if int(seg) >= len(s.claimStamp) {
			s.claimStamp = padTo(s.claimStamp, int(seg), s.numShared(), 0)
			s.claimOwner = padTo(s.claimOwner, int(seg), s.numShared(), 0)
		}
		s.claimStamp[seg] = s.frameEpoch
		s.claimOwner[seg] = g
		if s.fullyHomedAt(seg, g) {
			return // already local: pre-allocation is free
		}
		flow := s.Mem.Duplicate(seg, g)
		if e := s.reserveFlow(c.start, flow); e > migEnd {
			migEnd = e
		}
	}
	for _, p := range task.Parts {
		for _, tid := range p.Object.Textures {
			migrate(s.texSeg[tid])
		}
		migrate(s.vbSeg[p.Object.Index])
	}
	s.phases.Migrate += migEnd - c.start
	if s.tl != nil && migEnd > c.start {
		s.tl.Span(s.tlMig[g], "migrate", int64(c.start), int64(migEnd),
			obs.Arg{K: "task", V: c.serial}, obs.Arg{})
	}
	if !task.Prefetch {
		c.start = migEnd
	}
}

// Execute issues the task's rendering work — vertex/texture/depth/color/
// command flows plus the pipelined compute — charges whatever memory time
// the in-flight threads cannot hide, commits the GPM timeline and returns
// the completion time.
func (c *taskContext) Execute() sim.Time {
	s, g, task, start := c.sys, c.gpm, &c.task, c.start
	gi := int(g)
	// Shipped and AFR tasks read textures and vertices from the GPM's
	// copies.
	copies := c.shipped || task.UseLocalCopies
	read := func(seg mem.SegmentID, n int64) mem.Flow {
		if copies {
			return s.Mem.ReadCopy(g, seg, 0, n)
		}
		return s.Mem.Read(g, seg, 0, n)
	}

	// Aggregate compute work and issue memory flows.
	var work pipeline.Work
	memEnd := start
	account := func(f mem.Flow) {
		if e := s.reserveFlow(start, f); e > memEnd {
			memEnd = e
		}
	}
	for _, p := range task.Parts {
		pw := pipeline.ObjectWork(p.Object, p.Mode, p.GeomFrac, p.FragFrac)
		mv := pipeline.WorkMemVolumes(p.Object, p.Mode, p.GeomFrac, pw)
		work = work.Add(pw)

		// Vertex fetch.
		vb := s.vbSeg[p.Object.Index]
		account(read(vb, clampLen(mv.VertexBytes, s.Mem.Segment(vb).Size)))

		// Texture fetch: each bound texture is sampled by the part's
		// fragments.
		for _, tid := range p.Object.Textures {
			seg := s.texSeg[tid]
			size := s.Mem.Segment(seg).Size
			if task.SharedL2 {
				// Striped shared L2: sample volume itself crosses the
				// fabric, no local-cache filtering.
				vol := mv.FragsForTexture * s.opt.Cache.SampleBytesPerFragment
				if copies {
					account(s.Mem.ReadCopyProportional(g, seg, vol))
				} else {
					account(s.Mem.ReadProportional(g, seg, vol))
				}
				continue
			}
			// Independent renderer: the GPM's own caches filter; only
			// DRAM-level misses move, bounded by the texture size.
			var warm bool
			if copies {
				warm = s.Mem.CopyTouched(g, seg)
			} else {
				warm = s.Mem.Touched(g, seg)
			}
			bytes := s.opt.Cache.TextureFetchBytes(size, mv.FragsForTexture, warm)
			account(read(seg, clampLen(bytes, size)))
		}

		// Depth read-modify-write.
		dseg := s.depthSeg
		dsize := s.Mem.Segment(dseg).Size
		dlen := clampLen(mv.DepthBytes/2, dsize)
		if task.DepthLocal {
			off, ln := s.partitionRange(dsize, gi, dlen)
			account(s.Mem.Read(g, dseg, off, ln))
			account(s.Mem.Write(g, dseg, off, ln))
		} else {
			account(s.Mem.Read(g, dseg, 0, dlen))
			account(s.Mem.Write(g, dseg, 0, dlen))
		}

		// Color output.
		switch task.Color {
		case ColorStriped:
			account(s.Mem.Write(g, s.fbSeg, 0, clampLen(mv.ColorBytes, s.Mem.Segment(s.fbSeg).Size)))
		case ColorLocalStage:
			st := s.stageSeg[gi]
			account(s.Mem.Write(g, st, 0, clampLen(mv.ColorBytes, s.Mem.Segment(st).Size)))
			s.gpms[gi].StagedPixels += mv.ColorBytes / scene.BytesPerPixel
		case ColorPartitionOwned:
			fsize := s.Mem.Segment(s.fbSeg).Size
			off, ln := s.partitionRange(fsize, gi, clampLen(mv.ColorBytes, fsize))
			account(s.Mem.Write(g, s.fbSeg, off, ln))
		default:
			panic(fmt.Sprintf("multigpu: unknown color target %d", task.Color))
		}

		// Command stream from the driver's staging on GPM0.
		account(s.Mem.Read(g, s.cmdSeg, 0, clampLen(mv.CommandBytes, s.Mem.Segment(s.cmdSeg).Size)))
	}

	compute := pipeline.Cycles(work, s.rates, s.opt.IssueCyclesPerDraw)
	memTime := float64(memEnd - start)
	stall := memTime - s.opt.OverlapFactor*compute
	if stall < 0 {
		stall = 0
	}
	end := start + sim.Time(compute+stall)
	s.gpms[gi].Busy += end - start
	s.gpms[gi].NextFree = end
	s.gpms[gi].Tasks++
	s.phases.Execute += end - start
	if s.tl != nil {
		s.tl.Span(s.tlExec[gi], "execute", int64(start), int64(end),
			obs.Arg{K: "task", V: c.serial}, obs.Arg{K: "parts", V: int64(len(task.Parts))})
	}
	return end
}

// Run executes a task on GPM g and returns its completion time. The task
// starts no earlier than the GPM's next availability and passes through
// the phases in order: Ship and Migrate when the task's flags ask for
// them, then Execute.
func (s *System) Run(g mem.GPMID, task Task) sim.Time {
	c := taskContext{sys: s, gpm: g, task: task, start: s.gpms[g].NextFree}
	if s.tl != nil {
		s.taskSerial++
		c.serial = s.taskSerial
	}
	if task.ShipTextures {
		c.Ship()
	}
	if task.MigrateData {
		c.Migrate()
	}
	return c.Execute()
}

// ship ensures GPM g holds a copy of orig (mem.System.Copy). The bulk
// transfer is booked at time at and extends *end; it is skipped when an
// earlier ship in this frame made the copy valid (Ship skips persistent
// copies itself). Copies persist across frames: their capacity stays
// allocated.
func (s *System) ship(g mem.GPMID, orig mem.SegmentID, budget float64, at sim.Time, end *sim.Time) {
	gi := int(g)
	s.Mem.Copy(orig, g)
	if s.shippedThisFrame(gi, orig) {
		return // already transferred this frame
	}
	s.markShipped(gi, orig)
	size := float64(s.Mem.Segment(orig).Size)
	if budget > size {
		budget = size
	}
	flow := s.Mem.ReadProportional(g, orig, budget)
	if e := s.reserveFlow(at, flow); e > *end {
		*end = e
	}
}

// fullyHomedAt reports whether every byte of the segment lives on g.
func (s *System) fullyHomedAt(seg mem.SegmentID, g mem.GPMID) bool {
	return s.Mem.HomedBytes(seg, g) == s.Mem.Segment(seg).Size
}

// partitionRange clamps an access of length ln into GPM g's 1/N contiguous
// share of a segment of the given size.
func (s *System) partitionRange(size int64, g int, ln int64) (off, n int64) {
	per := size / int64(s.nGPM)
	off = int64(g) * per
	if ln > per {
		ln = per
	}
	return off, ln
}

func clampLen(want float64, size int64) int64 {
	n := int64(want)
	if n > size {
		n = size
	}
	if n < 0 {
		n = 0
	}
	return n
}
