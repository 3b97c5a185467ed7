// Package link models the inter-GPM interconnect. The paper's machine uses
// dedicated point-to-point NVLink-style channels between every pair of GPMs
// (6 ports per GPM, one port pair per peer, so "the intercommunication
// between two GPMs will not be interfered by other GPMs" — Section 3); the
// fabric generalizes that to any registered internal/topo topology, where a
// logical flow is routed across shared physical links hop by hop.
//
// Each physical link is a FIFO bandwidth server (sim.Resource), which also
// counts the bytes the link carries; bandwidth is expressed in GB/s and
// converted to bytes/cycle using the GPU clock. A multi-hop flow reserves
// its bytes on every link of its route in traversal order,
// store-and-forward: hop k+1 starts when hop k's transfer completes,
// so shared links impose real queueing on flows that cross them. On the
// fullmesh topology every route is a single dedicated link and the fabric
// reproduces the paper's model byte-for-byte (the golden determinism tests
// pin this).
package link

import (
	"fmt"
	"math"

	"oovr/internal/mem"
	"oovr/internal/obs"
	"oovr/internal/sim"
	"oovr/internal/topo"
)

// BytesPerCycle converts a GB/s figure to bytes per cycle at the given clock
// (GHz). 64 GB/s at 1 GHz is 64 bytes/cycle.
func BytesPerCycle(gbPerSec, clockGHz float64) float64 {
	return gbPerSec / clockGHz
}

// Fabric is the interconnect between n GPMs: the physical links of a
// topology graph, one FIFO bandwidth server per link, plus the routing
// tables that carry logical GPM-to-GPM flows across them.
type Fabric struct {
	g   *topo.Graph
	res []*sim.Resource // by topo link ID
	// hops[dst][src] is the src->dst route resolved to link resources —
	// the reservation hot path walks it instead of re-resolving route IDs
	// through the graph on every reservation.
	hops [][][]hop
	// tl, when attached, records each hop's service window as a span on
	// the physical link's lane (observation only; never read back).
	tl     *obs.Timeline
	tlLane []obs.LaneID // by topo link ID
}

// hop is one physical link of a resolved route: the bandwidth server plus
// the topo link ID its timeline lane is keyed on.
type hop struct {
	res *sim.Resource
	lid int32
}

// New builds the fabric for a topology graph at the given clock (GHz).
func New(g *topo.Graph, clockGHz float64) *Fabric {
	if !(clockGHz > 0) || math.IsInf(clockGHz, 1) {
		panic(fmt.Sprintf("link: invalid clock %v GHz", clockGHz))
	}
	n := g.NumGPMs()
	f := &Fabric{g: g}
	for _, l := range g.Links() {
		f.res = append(f.res, sim.NewResource(l.Name, BytesPerCycle(l.GBs, clockGHz)))
	}
	f.hops = make([][][]hop, n)
	for dst := 0; dst < n; dst++ {
		f.hops[dst] = make([][]hop, n)
		for src := 0; src < n; src++ {
			route := g.Route(src, dst)
			hs := make([]hop, len(route))
			for i, lid := range route {
				hs[i] = hop{res: f.res[lid], lid: int32(lid)}
			}
			f.hops[dst][src] = hs
		}
	}
	return f
}

// Topology returns the fabric's topology graph.
func (f *Fabric) Topology() *topo.Graph { return f.g }

// Resource returns the bandwidth server of the physical link with the given
// topo link ID. Its TotalServed is the bytes that crossed the link: under a
// routed topology a flow's bytes count once on every hop they occupy.
func (f *Fabric) Resource(link int) *sim.Resource { return f.res[link] }

// AttachTimeline records each hop reservation as a span on a per-link
// lane (one trace process per physical link). ticksPerUs converts the
// link clock's cycles to microseconds. A nil tl is a no-op.
func (f *Fabric) AttachTimeline(tl *obs.Timeline, ticksPerUs float64) {
	if tl == nil {
		return
	}
	f.tl = tl
	f.tlLane = make([]obs.LaneID, len(f.res))
	for _, l := range f.g.Links() {
		f.tlLane[l.ID] = tl.AddLane(l.Name, "flows", ticksPerUs)
	}
}

// Reserve books bytes moved from src's DRAM to dst on the physical links
// of the src->dst route, starting at time at, and returns the time the
// last byte arrives. The bytes traverse the route store-and-forward: the
// reservation on hop k+1 begins when hop k completes, so congestion on a
// shared early hop delays every later one. Reserve implements mem.Links:
// the memory system calls it once per source GPM of an access, in
// ascending source order, with bytes > 0 and src != dst.
func (f *Fabric) Reserve(at sim.Time, src, dst mem.GPMID, bytes float64) sim.Time {
	t := at
	tl := f.tl
	for _, h := range f.hops[dst][src] {
		s0 := t
		if tl != nil {
			// The FIFO queue may defer service: the span shows the
			// window the link actually carried these bytes.
			if nf := h.res.NextFree(); nf > s0 {
				s0 = nf
			}
		}
		t = h.res.Reserve(t, bytes)
		if tl != nil && t > s0 {
			tl.Span(f.tlLane[h.lid], "flow", int64(s0), int64(t),
				obs.Arg{K: "bytes", V: int64(bytes)}, obs.Arg{K: "src", V: int64(src)})
		}
	}
	return t
}
