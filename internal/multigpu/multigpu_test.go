package multigpu

import (
	"testing"

	"oovr/internal/mem"
	"oovr/internal/pipeline"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

func testScene() *scene.Scene {
	sp, _ := workload.ByAbbr("DM3")
	return sp.Generate(640, 480, 2, 1)
}

func newSystem(t *testing.T) *System {
	t.Helper()
	return New(DefaultOptions(), testScene())
}

func wholeObjectTask(o *scene.Object, mode pipeline.Mode) Task {
	return Task{
		Parts: []TaskPart{{Object: o, Mode: mode, GeomFrac: 1, FragFrac: 1}},
		Color: ColorStriped,
	}
}

func TestNewSystemAllocations(t *testing.T) {
	s := newSystem(t)
	sc := s.Scene()
	if s.NumGPMs() != 4 {
		t.Errorf("NumGPMs = %d", s.NumGPMs())
	}
	// One segment per texture + per object VB + fb + depth + cmd + 4 stages.
	want := len(sc.Textures) + len(sc.Frames[0].Objects) + 3 + 4
	if s.Mem.NumSegments() != want {
		t.Errorf("segments = %d, want %d", s.Mem.NumSegments(), want)
	}
	// Command stream lives on GPM0.
	if s.Mem.PageHome(s.cmdSeg, 0) != 0 {
		t.Errorf("commands not homed on GPM0")
	}
}

func TestRunAdvancesClockAndBusy(t *testing.T) {
	s := newSystem(t)
	o := &s.Scene().Frames[0].Objects[0]
	end := s.Run(0, wholeObjectTask(o, pipeline.ModeBothSMP))
	if end <= 0 {
		t.Fatalf("task completed at %v", end)
	}
	g := s.GPM(0)
	if g.NextFree != end || g.Busy != end {
		t.Errorf("GPM state wrong: %+v", g)
	}
	// Other GPMs untouched.
	if s.GPM(1).Busy != 0 {
		t.Errorf("GPM1 should be idle")
	}
}

func TestRunTasksSerializePerGPM(t *testing.T) {
	s := newSystem(t)
	o := &s.Scene().Frames[0].Objects[0]
	e1 := s.Run(0, wholeObjectTask(o, pipeline.ModeBothSMP))
	e2 := s.Run(0, wholeObjectTask(o, pipeline.ModeBothSMP))
	if e2 <= e1 {
		t.Errorf("second task must start after the first: %v then %v", e1, e2)
	}
}

func TestSMPTaskFasterThanSequential(t *testing.T) {
	a := New(DefaultOptions(), testScene())
	b := New(DefaultOptions(), testScene())
	oA := &a.Scene().Frames[0].Objects[0]
	oB := &b.Scene().Frames[0].Objects[0]
	smpEnd := a.Run(0, wholeObjectTask(oA, pipeline.ModeBothSMP))
	seqEnd := b.Run(0, wholeObjectTask(oB, pipeline.ModeBothSequential))
	if smpEnd >= seqEnd {
		t.Errorf("SMP task (%v) not faster than sequential (%v)", smpEnd, seqEnd)
	}
}

func TestDemandFetchGeneratesRemoteTraffic(t *testing.T) {
	s := newSystem(t)
	f := &s.Scene().Frames[0]
	// Textures start striped, so after GPM0 has read the texture, GPM1's
	// read of it must still fetch the pages homed elsewhere over a link.
	s.Run(0, wholeObjectTask(&f.Objects[0], pipeline.ModeBothSMP))
	before := s.Mem.Traffic().RemoteByKind(mem.KindTexture)
	s.Run(1, wholeObjectTask(&f.Objects[0], pipeline.ModeBothSMP))
	after := s.Mem.Traffic().RemoteByKind(mem.KindTexture)
	if after <= before {
		t.Errorf("remote texture traffic did not grow: %v -> %v", before, after)
	}
}

func TestShippingMakesReadsLocal(t *testing.T) {
	s := newSystem(t)
	f := &s.Scene().Frames[0]
	s.BeginFrame()
	task := wholeObjectTask(&f.Objects[0], pipeline.ModeBothSMP)
	task.ShipTextures = true
	task.Color = ColorLocalStage
	task.DepthLocal = true
	s.Run(2, task)
	// Shipping creates a local copy on GPM2: the original stays striped,
	// but a second run's texture reads stay off the links entirely.
	texBefore := s.Mem.Traffic().RemoteByKind(mem.KindTexture)
	s.Run(2, task)
	texAfter := s.Mem.Traffic().RemoteByKind(mem.KindTexture)
	if texAfter != texBefore {
		t.Errorf("post-ship texture reads crossed links: %v -> %v", texBefore, texAfter)
	}
}

func TestShipOncePerFrame(t *testing.T) {
	s := newSystem(t)
	f := &s.Scene().Frames[0]
	s.PartitionFramebuffer()
	s.BeginFrame()
	task := wholeObjectTask(&f.Objects[0], pipeline.ModeBothSMP)
	task.ShipTextures = true
	task.Color = ColorLocalStage
	task.DepthLocal = true
	s.Run(2, task)
	linkBefore := linkBytes(s)
	s.Run(2, task) // same frame: already shipped and homed locally
	// Only the command stream (homed on GPM0) may cross links again.
	if after := linkBytes(s); after > linkBefore+2*1024 {
		t.Errorf("re-shipping within a frame moved bytes: %v -> %v", linkBefore, after)
	}
}

// TestShipBooksOncePerFrame pins the per-frame shipped bitset: shipping
// one segment to a GPM twice in a frame books its transfer once, shipping
// it to another GPM books it again, and BeginFrame clears the bits, so the
// next frame books both transfers anew.
func TestShipBooksOncePerFrame(t *testing.T) {
	s := newSystem(t)
	seg := s.texSeg[0]
	size := float64(s.Mem.Segment(seg).Size)
	moved := func() float64 { tr := s.Mem.Traffic(); return tr.TotalLocal() + tr.TotalInterGPM() }
	for frame := 0; frame < 2; frame++ {
		at := s.BeginFrame()
		for _, step := range []struct {
			g     mem.GPMID
			books bool
		}{{1, true}, {1, false}, {2, true}, {1, false}, {2, false}} {
			before, end := moved(), at
			s.ship(step.g, seg, size, at, &end)
			if booked := moved() > before; booked != step.books || booked != (end > at) {
				t.Errorf("frame %d, ship to GPM %d: booked %v bytes ending at %v (start %v), want booked=%v",
					frame, step.g, moved()-before, end, at, step.books)
			}
		}
	}
}

// TestPersistentShipSkipsResidentCopies pins the persistent-residency
// skip: a ShipPersistent task run again on the same GPM in a later frame
// finds every copy resident, so its Ship books no link bytes and no Ship
// cycles, while the first run paid for both.
func TestPersistentShipSkipsResidentCopies(t *testing.T) {
	s := newSystem(t)
	s.PartitionFramebuffer()
	task := wholeObjectTask(&s.Scene().Frames[0].Objects[0], pipeline.ModeBothSMP)
	task.ShipTextures = true
	task.ShipPersistent = true
	task.Color = ColorLocalStage
	task.DepthLocal = true
	for frame := 0; frame < 2; frame++ {
		s.BeginFrame()
		links, ship := linkBytes(s), s.Phases().Ship
		s.Run(0, task)
		dLinks, dShip := linkBytes(s)-links, s.Phases().Ship-ship
		if first := frame == 0; first != (dLinks > 0) || first != (dShip > 0) {
			t.Errorf("frame %d: run moved %v link bytes in %v Ship cycles", frame, dLinks, dShip)
		}
	}
}

// linkBytes sums the bytes every physical link's server has carried.
func linkBytes(s *System) float64 {
	var total float64
	for _, l := range s.Fabric.Topology().Links() {
		total += s.Fabric.Resource(l.ID).TotalServed()
	}
	return total
}

func TestPrefetchDoesNotBlockStart(t *testing.T) {
	blocking := New(DefaultOptions(), testScene())
	prefetch := New(DefaultOptions(), testScene())
	for _, s := range []*System{blocking, prefetch} {
		s.BeginFrame()
		// Home the textures far away so shipping is expensive.
		f := &s.Scene().Frames[0]
		for _, tid := range f.Objects[0].Textures {
			s.Mem.Place(s.texSeg[tid], 3)
		}
	}
	f := &blocking.Scene().Frames[0]
	taskB := wholeObjectTask(&f.Objects[0], pipeline.ModeBothSMP)
	taskB.ShipTextures = true
	endB := blocking.Run(0, taskB)

	fp := &prefetch.Scene().Frames[0]
	taskP := wholeObjectTask(&fp.Objects[0], pipeline.ModeBothSMP)
	taskP.ShipTextures = true
	taskP.Prefetch = true
	endP := prefetch.Run(0, taskP)
	if endP > endB {
		t.Errorf("prefetched ship (%v) slower than blocking ship (%v)", endP, endB)
	}
}

func TestLocalCopiesKeepTrafficLocal(t *testing.T) {
	s := newSystem(t)
	s.PartitionFramebuffer() // DepthLocal confines Z to the GPM's partition
	s.EnsureLocalCopies(1)
	f := &s.Scene().Frames[0]
	task := wholeObjectTask(&f.Objects[0], pipeline.ModeBothSMP)
	task.UseLocalCopies = true
	task.Color = ColorLocalStage
	task.DepthLocal = true
	s.Run(1, task)
	// Only the command stream (homed on GPM0) should have crossed a link.
	tr := s.Mem.Traffic()
	if tr.RemoteByKind(mem.KindTexture) != 0 || tr.RemoteByKind(mem.KindVertex) != 0 {
		t.Errorf("local-copy run leaked remote tex/vertex traffic: %v", tr)
	}
	if tr.RemoteByKind(mem.KindDepth) != 0 {
		t.Errorf("DepthLocal still produced remote depth bytes")
	}
}

// TestSteadyStateFrameDoesNotAllocate pins the frame loop's heap traffic:
// once warm-up frames have built the shipping residency and grown the
// epoch-stamped scratch, every further BeginFrame → ship/render → compose
// → EndFrame cycle must reuse all of it.
// A regression here shows up long before the benchmark gate does.
func TestSteadyStateFrameDoesNotAllocate(t *testing.T) {
	s := newSystem(t)
	s.PartitionFramebuffer()
	f := &s.Scene().Frames[0]
	frame := func() {
		s.BeginFrame()
		for g := 0; g < 4; g++ {
			task := wholeObjectTask(&f.Objects[g], pipeline.ModeBothSMP)
			task.ShipTextures = true
			task.ShipPersistent = true
			task.Color = ColorLocalStage
			task.DepthLocal = true
			s.Run(mem.GPMID(g), task)
		}
		s.ComposeDistributed()
		s.EndFrame()
	}
	frame() // cold: allocates resident copies and scratch capacity
	frame() // warm residency
	s.ReserveFrames(256)
	if avg := testing.AllocsPerRun(100, frame); avg != 0 {
		t.Errorf("steady-state frame allocated %.2f times per frame, want 0", avg)
	}
}

func TestColorStripedProducesRemoteFBTraffic(t *testing.T) {
	s := newSystem(t)
	o := &s.Scene().Frames[0].Objects[0]
	s.Run(0, wholeObjectTask(o, pipeline.ModeBothSMP))
	if s.Mem.Traffic().RemoteByKind(mem.KindFramebuffer) == 0 {
		t.Errorf("striped color writes should cross links")
	}
}

func TestColorPartitionOwnedIsLocal(t *testing.T) {
	s := newSystem(t)
	s.PartitionFramebuffer()
	o := &s.Scene().Frames[0].Objects[0]
	task := wholeObjectTask(o, pipeline.ModeBothSMP)
	task.Color = ColorPartitionOwned
	task.DepthLocal = true
	s.Run(2, task)
	if got := s.Mem.Traffic().RemoteByKind(mem.KindFramebuffer); got != 0 {
		t.Errorf("partition-owned color write crossed links: %v bytes", got)
	}
}

func TestComposeToRootSerializesOnRootROP(t *testing.T) {
	s := newSystem(t)
	f := &s.Scene().Frames[0]
	for g := 0; g < 4; g++ {
		task := wholeObjectTask(&f.Objects[g], pipeline.ModeBothSMP)
		task.Color = ColorLocalStage
		s.Run(mem.GPMID(g), task)
	}
	var staged float64
	for g := 0; g < 4; g++ {
		staged += s.GPM(g).StagedPixels
	}
	if staged == 0 {
		t.Fatalf("no pixels staged")
	}
	end := s.ComposeToRoot(0)
	// Composition overlaps rendering (it starts filling resources at frame
	// start), so it may finish inside the render span — but it must drain
	// the staging counters, act as a barrier, and occupy the root's ROPs.
	for g := 0; g < 4; g++ {
		if s.GPM(g).StagedPixels != 0 {
			t.Errorf("staging not drained on GPM %d", g)
		}
		if s.GPM(g).NextFree != end {
			t.Errorf("composition is a barrier; GPM %d free at %v, want %v", g, s.GPM(g).NextFree, end)
		}
	}
	if s.rop[0].TotalServed() != staged {
		t.Errorf("root ROPs served %v pixels, want %v", s.rop[0].TotalServed(), staged)
	}
}

func TestComposeDistributedFasterThanRoot(t *testing.T) {
	mk := func() *System {
		s := New(DefaultOptions(), testScene())
		s.PartitionFramebuffer()
		f := &s.Scene().Frames[0]
		for g := 0; g < 4; g++ {
			task := wholeObjectTask(&f.Objects[g], pipeline.ModeBothSMP)
			task.Color = ColorLocalStage
			s.Run(mem.GPMID(g), task)
		}
		return s
	}
	sRoot := mk()
	sRoot.ComposeToRoot(0)
	sDist := mk()
	sDist.ComposeDistributed()
	// All ROPs share the distributed composition load, so the per-ROP
	// occupancy must shrink by the GPM count versus root-only composition.
	rootServed := sRoot.rop[0].TotalServed()
	var distMax float64
	for g := 0; g < 4; g++ {
		if v := sDist.rop[g].TotalServed(); v > distMax {
			distMax = v
		}
	}
	if distMax*2 >= rootServed {
		t.Errorf("distributed ROP load %v not spread vs root %v", distMax, rootServed)
	}
}

func TestFrameLatencyAccounting(t *testing.T) {
	s := newSystem(t)
	f := &s.Scene().Frames[0]
	s.BeginFrame()
	s.Run(0, wholeObjectTask(&f.Objects[0], pipeline.ModeBothSMP))
	end := s.EndFrame()
	m := s.Collect("test")
	if m.Frames != 1 || len(m.FrameLatencies) != 1 {
		t.Fatalf("frame accounting wrong: %+v", m)
	}
	if m.FrameLatencies[0] != float64(end) {
		t.Errorf("latency = %v, want %v", m.FrameLatencies[0], float64(end))
	}
	if m.AvgFrameLatency() != m.FrameLatencies[0] {
		t.Errorf("AvgFrameLatency = %v", m.AvgFrameLatency())
	}
}

func TestRecordFrameLatencyNegativePanics(t *testing.T) {
	s := newSystem(t)
	defer func() {
		if recover() == nil {
			t.Errorf("negative latency did not panic")
		}
	}()
	s.RecordFrameLatency(-1)
}

func TestMetricsRatios(t *testing.T) {
	m := Metrics{GPMBusyCycles: []float64{100, 50, 200, 100}, TotalCycles: 1000, Frames: 2}
	if m.BestToWorstBusyRatio() != 4 {
		t.Errorf("BestToWorstBusyRatio = %v", m.BestToWorstBusyRatio())
	}
	if m.FPSCycles() != 500 {
		t.Errorf("FPSCycles = %v", m.FPSCycles())
	}
	idle := Metrics{GPMBusyCycles: []float64{0, 10}}
	if idle.BestToWorstBusyRatio() <= 10 {
		t.Errorf("idle GPM should produce a large ratio")
	}
}

func TestCollectBreaksDownTraffic(t *testing.T) {
	s := newSystem(t)
	f := &s.Scene().Frames[0]
	s.BeginFrame()
	for g := 0; g < 4; g++ {
		s.Run(mem.GPMID(g), wholeObjectTask(&f.Objects[g], pipeline.ModeBothSMP))
	}
	s.EndFrame()
	m := s.Collect("test")
	if m.InterGPMBytes == 0 {
		t.Errorf("expected some inter-GPM traffic")
	}
	sum := m.RemoteTextureBytes + m.RemoteCompositionBytes + m.RemoteDepthBytes +
		m.RemoteCommandBytes + m.RemoteVertexBytes
	if sum != m.InterGPMBytes {
		t.Errorf("kind breakdown %v does not sum to total %v", sum, m.InterGPMBytes)
	}
	if m.Workload != s.Scene().Name || m.Scheme != "test" {
		t.Errorf("identity fields wrong: %+v", m)
	}
}

func TestAdvanceGPMTo(t *testing.T) {
	s := newSystem(t)
	s.AdvanceGPMTo(1, 500)
	if s.GPM(1).NextFree != 500 {
		t.Errorf("AdvanceGPMTo did not advance")
	}
	s.AdvanceGPMTo(1, 100) // must not move backwards
	if s.GPM(1).NextFree != 500 {
		t.Errorf("AdvanceGPMTo moved backwards")
	}
}

func TestSingleGPMSystemHasNoFabric(t *testing.T) {
	opt := DefaultOptions()
	opt.Config = opt.Config.WithGPMs(1)
	s := New(opt, testScene())
	if s.Fabric != nil {
		t.Fatalf("single-GPM system should have no fabric")
	}
	o := &s.Scene().Frames[0].Objects[0]
	end := s.Run(0, wholeObjectTask(o, pipeline.ModeBothSMP))
	if end <= 0 {
		t.Errorf("single-GPM run failed")
	}
	if s.Mem.Traffic().TotalInterGPM() != 0 {
		t.Errorf("single GPM produced inter-GPM traffic")
	}
}
