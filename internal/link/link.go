// Package link models the inter-GPM interconnect. The paper's machine uses
// dedicated point-to-point NVLink-style channels between every pair of GPMs
// (6 ports per GPM, one port pair per peer, so "the intercommunication
// between two GPMs will not be interfered by other GPMs" — Section 3); the
// fabric generalizes that to any registered internal/topo topology, where a
// logical flow is routed across shared physical links hop by hop.
//
// Each physical link is a FIFO bandwidth server (sim.Resource); bandwidth
// is expressed in GB/s and converted to bytes/cycle using the GPU clock. A
// multi-hop flow reserves its bytes on every link of its route in traversal
// order, store-and-forward: hop k+1 starts when hop k's transfer completes,
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
	g     *topo.Graph
	clock float64
	res   []*sim.Resource // by topo link ID
	// direct[src][dst] is the resource of the dedicated physical link
	// src->dst when the topology has one (fullmesh, and neighbour pairs of
	// ring/chain/mesh2d), nil otherwise.
	direct [][]*sim.Resource
	// hops[requester][src] is the src->requester route resolved to link
	// resources — the reservation hot path walks it instead of re-resolving
	// route IDs through the graph on every flow.
	hops [][][]hop
	// traffic, when attached, receives per-physical-link (hop-level) byte
	// accounting for every reservation.
	traffic *mem.Traffic
	// tl, when attached, records each hop's service window as a span on
	// the physical link's lane (observation only; never read back).
	tl     *obs.Timeline
	tlLane []obs.LaneID // by topo link ID
}

// hop is one physical link of a resolved route: the bandwidth server plus
// the topo link ID the hop-level traffic accounting is keyed on.
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
	f := &Fabric{g: g, clock: clockGHz, direct: make([][]*sim.Resource, n)}
	for i := range f.direct {
		f.direct[i] = make([]*sim.Resource, n)
	}
	for _, l := range g.Links() {
		r := sim.NewResource(l.Name, BytesPerCycle(l.GBs, clockGHz))
		f.res = append(f.res, r)
		if l.From < n && l.To < n {
			f.direct[l.From][l.To] = r
		}
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

// NumGPMs returns the GPM count.
func (f *Fabric) NumGPMs() int { return f.g.NumGPMs() }

// NumLinks returns the physical link count.
func (f *Fabric) NumLinks() int { return len(f.res) }

// Resource returns the bandwidth server of the physical link with the given
// topo link ID.
func (f *Fabric) Resource(link int) *sim.Resource { return f.res[link] }

// Link returns the dedicated physical link resource src->dst, or nil when
// the topology routes that pair over shared links (and when src == dst).
func (f *Fabric) Link(src, dst mem.GPMID) *sim.Resource {
	f.check(src)
	f.check(dst)
	return f.direct[src][dst]
}

// AccountHops routes every subsequent reservation's per-link bytes into the
// traffic account's hop-level counters (sizing them to this topology).
func (f *Fabric) AccountHops(t *mem.Traffic) {
	t.ConfigureHops(len(f.res))
	f.traffic = t
}

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

// ReserveFlow queues the remote portions of a memory flow onto the physical
// links that carry them, starting at time at, and returns the time the last
// byte arrives. Each source's bytes traverse the route source->requester
// store-and-forward: the reservation on hop k+1 begins when hop k
// completes, so congestion on a shared early hop delays every later one.
// Flows with no remote bytes complete immediately at at; when n is 1 there
// are no links and the result is always at.
func (f *Fabric) ReserveFlow(at sim.Time, flow mem.Flow) sim.Time {
	end := at
	bySrc := f.hops[flow.Requester]
	tr := f.traffic
	tl := f.tl
	for src, bytes := range flow.RemoteBySrc {
		if bytes == 0 || mem.GPMID(src) == flow.Requester {
			continue
		}
		t := at
		for _, h := range bySrc[src] {
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
			if tr != nil {
				tr.RecordHop(int(h.lid), bytes)
			}
		}
		if t > end {
			end = t
		}
	}
	return end
}

// TotalBytes returns the bytes served across all physical links. Under a
// routed topology a flow's bytes count once per hop (they really occupy
// each link they cross).
func (f *Fabric) TotalBytes() float64 {
	var s float64
	for _, r := range f.res {
		s += r.TotalServed()
	}
	return s
}

// Reset clears all link state.
func (f *Fabric) Reset() {
	for _, r := range f.res {
		r.Reset()
	}
}

func (f *Fabric) check(g mem.GPMID) {
	if g < 0 || int(g) >= f.g.NumGPMs() {
		panic(fmt.Sprintf("link: GPM %d out of range [0,%d)", g, f.g.NumGPMs()))
	}
}
