package multigpu

import (
	"fmt"
	"sort"

	"oovr/internal/mem"
	"oovr/internal/obs"
	"oovr/internal/scene"
	"oovr/internal/sim"
)

// ComposeToRoot performs the conventional object-level SFR composition
// (Section 4.3): every worker's staged color output is streamed to the
// master node, whose ROPs alone assemble the final frame. It returns the
// time composition finishes. Workers' staged pixel counters are consumed.
func (s *System) ComposeToRoot(root mem.GPMID) sim.Time {
	// Color output runs asynchronously with the shader process (Section
	// 4.3): workers stream finished pixels to the root throughout the
	// frame, so the transfers and the root's ROP work start filling their
	// resources at frame start and only their excess over the rendering
	// span lengthens the frame.
	start := s.frameStart
	end := s.maxNextFree()
	renderEnd := end
	var totalPixels float64
	for g := 0; g < s.nGPM; g++ {
		px := s.gpms[g].StagedPixels
		s.gpms[g].StagedPixels = 0
		if px == 0 {
			continue
		}
		totalPixels += px
		bytes := px * scene.BytesPerPixel
		if mem.GPMID(g) != root {
			// The root reads the worker's staging buffer across the link.
			flow := s.Mem.Read(root, s.stageSeg[g], 0, clampLen(bytes, s.Mem.Segment(s.stageSeg[g]).Size))
			if e := s.reserveFlow(start, flow); e > end {
				end = e
			}
		}
		// Final write into the root-homed framebuffer.
		flow := s.Mem.Write(root, s.fbSeg, 0, clampLen(bytes, s.Mem.Segment(s.fbSeg).Size))
		if e := s.reserveFlow(start, flow); e > end {
			end = e
		}
	}
	// A single GPM's ROPs process every pixel.
	if e := s.rop[root].Reserve(start, totalPixels); e > end {
		end = e
	}
	if s.tl != nil && end > start {
		s.tl.Span(s.tlComp[root], "compose", int64(start), int64(end),
			obs.Arg{K: "pixels", V: int64(totalPixels)}, obs.Arg{})
	}
	s.phases.Compose += end - renderEnd
	s.advanceAll(end)
	return end
}

// ComposeDistributed performs OO-VR's distributed hardware composition
// (Section 5.3, Figure 14): the framebuffer is split into N screen-space
// partitions and every GPM's DHC unit composes the partition it owns, so
// all ROPs run in parallel and only the cross-partition pixels travel over
// the links. Callers should PartitionFramebuffer() first.
func (s *System) ComposeDistributed() sim.Time {
	// Asynchronous with rendering, like ComposeToRoot, but spread over
	// every GPM's ROPs and links.
	start := s.frameStart
	end := s.maxNextFree()
	renderEnd := end
	n := float64(s.nGPM)
	fsize := s.Mem.Segment(s.fbSeg).Size
	ropPixels := s.ropScratch
	clear(ropPixels)
	for g := 0; g < s.nGPM; g++ {
		px := s.gpms[g].StagedPixels
		s.gpms[g].StagedPixels = 0
		if px == 0 {
			continue
		}
		// The staged pixels spread uniformly over the N screen partitions;
		// each owner pulls its share from this worker's staging buffer.
		share := px / n
		for o := 0; o < s.nGPM; o++ {
			ropPixels[o] += share
			bytes := share * scene.BytesPerPixel
			if o != g {
				flow := s.Mem.Read(mem.GPMID(o), s.stageSeg[g], 0, clampLen(bytes, s.Mem.Segment(s.stageSeg[g]).Size))
				if e := s.reserveFlow(start, flow); e > end {
					end = e
				}
			}
			off, ln := s.partitionRange(fsize, o, clampLen(bytes, fsize))
			flow := s.Mem.Write(mem.GPMID(o), s.fbSeg, off, ln)
			if e := s.reserveFlow(start, flow); e > end {
				end = e
			}
		}
	}
	for o := 0; o < s.nGPM; o++ {
		e := s.rop[o].Reserve(start, ropPixels[o])
		if e > end {
			end = e
		}
		if s.tl != nil && ropPixels[o] > 0 {
			s.tl.Span(s.tlComp[o], "compose", int64(start), int64(e),
				obs.Arg{K: "pixels", V: int64(ropPixels[o])}, obs.Arg{})
		}
	}
	s.phases.Compose += end - renderEnd
	s.advanceAll(end)
	return end
}

// DiscardStagedPixels clears staging counters for schemes whose tasks write
// the framebuffer directly (striped or partition-owned color targets).
func (s *System) DiscardStagedPixels() {
	for g := range s.gpms {
		s.gpms[g].StagedPixels = 0
	}
}

// BeginFrame marks the start of a frame for latency accounting, resets the
// per-frame shipping sets and cools all caches (a frame's streaming working
// set does not survive into the next frame). It returns the frame start
// time (the point when every GPM is available; frames render back-to-back).
// The per-frame transfer state is epoch-stamped, so the reset is one
// counter bump — no allocation, no clearing pass.
func (s *System) BeginFrame() sim.Time {
	s.frameEpoch++
	s.Mem.ResetWarmth()
	s.frameStart = s.maxNextFree()
	return s.frameStart
}

// EndFrame records the frame's latency as (completion − BeginFrame time).
func (s *System) EndFrame() sim.Time {
	end := s.maxNextFree()
	s.frameLatency = append(s.frameLatency, end-s.frameStart)
	return end
}

// MaxFrames bounds ReserveFrames and is the most frames a spec may run;
// a longer stream built in code grows its storage as it goes.
const MaxFrames = 1 << 16

// ReserveFrames pre-allocates latency storage for n more frames, so a
// frame loop that knows its stream length appends without growing. It
// reserves nothing when n exceeds MaxFrames.
func (s *System) ReserveFrames(n int) {
	if n > MaxFrames {
		return
	}
	if free := cap(s.frameLatency) - len(s.frameLatency); free < n {
		nl := make([]sim.Time, len(s.frameLatency), len(s.frameLatency)+n)
		copy(nl, s.frameLatency)
		s.frameLatency = nl
	}
}

// RecordFrameLatency stores an explicitly computed latency (AFR frames
// overlap, so the scheduler measures each frame's span itself).
func (s *System) RecordFrameLatency(l sim.Time) {
	if l < 0 {
		panic(fmt.Sprintf("multigpu: negative frame latency %v", l))
	}
	s.frameLatency = append(s.frameLatency, l)
}

// AdvanceGPMTo pushes a GPM's availability forward (driver serialization,
// synchronization barriers).
func (s *System) AdvanceGPMTo(g mem.GPMID, t sim.Time) {
	if s.gpms[g].NextFree < t {
		s.gpms[g].NextFree = t
	}
}

// maxNextFree returns the latest NextFree across GPMs.
func (s *System) maxNextFree() sim.Time {
	var m sim.Time
	for g := range s.gpms {
		if s.gpms[g].NextFree > m {
			m = s.gpms[g].NextFree
		}
	}
	return m
}

// advanceAll moves every GPM's NextFree to at least t (composition is a
// frame-wide barrier).
func (s *System) advanceAll(t sim.Time) {
	for g := range s.gpms {
		if s.gpms[g].NextFree < t {
			s.gpms[g].NextFree = t
		}
	}
}

// Metrics summarize a completed run.
type Metrics struct {
	// Scheme and Workload identify the run.
	Scheme, Workload string
	// TotalCycles is the completion time of the whole run.
	TotalCycles float64
	// Frames is the number of frames rendered.
	Frames int
	// FrameLatencies are per-frame latencies in cycles.
	FrameLatencies []float64
	// GPMBusyCycles is each GPM's total occupied time.
	GPMBusyCycles []float64
	// InterGPMBytes is the total bytes that crossed any link.
	InterGPMBytes float64
	// LocalDRAMBytes is the total local DRAM bytes.
	LocalDRAMBytes float64
	// RemoteTextureBytes / RemoteCompositionBytes / RemoteDepthBytes /
	// RemoteCommandBytes / RemoteVertexBytes break down the link traffic.
	RemoteTextureBytes     float64
	RemoteCompositionBytes float64
	RemoteDepthBytes       float64
	RemoteCommandBytes     float64
	RemoteVertexBytes      float64
	// Links are the per-physical-link interconnect statistics, sorted by
	// link name (empty on single-GPM systems). Under a routed topology a
	// flow's bytes appear on every hop it crossed.
	Links []LinkMetrics
}

// LinkMetrics summarize one physical link of the interconnect topology.
type LinkMetrics struct {
	// Name is the topology's link name ("link0->1", "backplane", ...).
	Name string
	// Bytes is the total bytes the link served.
	Bytes float64
	// BusyCycles is the time the link spent occupied.
	BusyCycles float64
	// Utilization is BusyCycles over the run's TotalCycles.
	Utilization float64
	// PeakQueueDelay is the longest any reservation queued behind earlier
	// traffic on this link — the congestion hot-spot indicator.
	PeakQueueDelay float64
}

// AvgFrameLatency returns the mean per-frame latency.
func (m Metrics) AvgFrameLatency() float64 {
	if len(m.FrameLatencies) == 0 {
		return 0
	}
	var s float64
	for _, l := range m.FrameLatencies {
		s += l
	}
	return s / float64(len(m.FrameLatencies))
}

// FPSCycles returns cycles per frame at the throughput level (total run
// time over frames) — the "overall frame rate" metric of Figures 7/8/15.
func (m Metrics) FPSCycles() float64 {
	if m.Frames == 0 {
		return 0
	}
	return m.TotalCycles / float64(m.Frames)
}

// BestToWorstBusyRatio is Figure 10's load-balance metric: the busiest
// GPM's occupancy over the least busy one's.
func (m Metrics) BestToWorstBusyRatio() float64 {
	if len(m.GPMBusyCycles) == 0 {
		return 1
	}
	lo, hi := m.GPMBusyCycles[0], m.GPMBusyCycles[0]
	for _, b := range m.GPMBusyCycles {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	if lo == 0 {
		return hi + 1 // fully idle GPM: report a large ratio rather than Inf
	}
	return hi / lo
}

// Collect snapshots the system's counters into Metrics.
func (s *System) Collect(scheme string) Metrics {
	tr := s.Mem.Traffic()
	m := Metrics{
		Scheme:                 scheme,
		Workload:               s.sc.Name,
		TotalCycles:            float64(s.maxNextFree()),
		Frames:                 len(s.frameLatency),
		InterGPMBytes:          tr.TotalInterGPM(),
		LocalDRAMBytes:         tr.TotalLocal(),
		RemoteTextureBytes:     tr.RemoteByKind(mem.KindTexture),
		RemoteCompositionBytes: tr.RemoteByKind(mem.KindFramebuffer),
		RemoteDepthBytes:       tr.RemoteByKind(mem.KindDepth),
		RemoteCommandBytes:     tr.RemoteByKind(mem.KindCommand),
		RemoteVertexBytes:      tr.RemoteByKind(mem.KindVertex),
	}
	m.FrameLatencies = make([]float64, 0, len(s.frameLatency))
	for _, l := range s.frameLatency {
		m.FrameLatencies = append(m.FrameLatencies, float64(l))
	}
	m.GPMBusyCycles = make([]float64, 0, len(s.gpms))
	for g := range s.gpms {
		m.GPMBusyCycles = append(m.GPMBusyCycles, float64(s.gpms[g].Busy))
	}
	if s.Fabric != nil {
		links := s.Fabric.Topology().Links()
		m.Links = make([]LinkMetrics, 0, len(links))
		for _, l := range links {
			r := s.Fabric.Resource(l.ID)
			m.Links = append(m.Links, LinkMetrics{
				Name:           l.Name,
				Bytes:          r.TotalServed(),
				BusyCycles:     float64(r.BusyCycles()),
				Utilization:    r.Utilization(sim.Time(m.TotalCycles)),
				PeakQueueDelay: float64(r.MaxQueueDelay()),
			})
		}
		sort.Slice(m.Links, func(i, j int) bool { return m.Links[i].Name < m.Links[j].Name })
	}
	return m
}
