package mem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"oovr/internal/link"
	"oovr/internal/mem"
	"oovr/internal/sim"
	"oovr/internal/topo"
)

// reserveFlow is the two-pass booking the one-pass accesses replaced, kept
// as their reference: a finished Flow's local bytes go on the requester's
// DRAM, then each source's remote bytes cross the source->requester route
// hop by hop, store-and-forward, in ascending source order. It returns
// the slowest stream's end.
func reserveFlow(f *link.Fabric, dram []*sim.Resource, at sim.Time, flow mem.Flow) sim.Time {
	end := dram[flow.Requester].Reserve(at, flow.LocalBytes)
	for src, bytes := range flow.RemoteBySrc {
		if bytes == 0 || mem.GPMID(src) == flow.Requester {
			continue
		}
		t := at
		for _, lid := range f.Topology().Route(src, int(flow.Requester)) {
			t = f.Resource(lid).Reserve(t, bytes)
		}
		if t > end {
			end = t
		}
	}
	return end
}

// book completes a one-pass access the way multigpu does: the local bytes
// go on the requester's DRAM after the access booked its remote bytes.
func book(dram []*sim.Resource, g mem.GPMID, at sim.Time, local float64, arrive sim.Time) sim.Time {
	end := dram[g].Reserve(at, local)
	if arrive > end {
		end = arrive
	}
	return end
}

// machine is one side of the comparison: a fabric and a DRAM server per GPM.
type machine struct {
	fabric *link.Fabric
	dram   []*sim.Resource
}

func newMachine(t *testing.T, name string, ng int) machine {
	g, err := topo.Build(topo.Params{Name: name, NumGPMs: ng, LinkGBs: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := machine{fabric: link.New(g, 1)}
	for range ng {
		m.dram = append(m.dram, sim.NewResource("dram", 128))
	}
	return m
}

// resources lists every server of the machine: the links, then the DRAMs.
func (m machine) resources() []*sim.Resource {
	var rs []*sim.Resource
	for _, l := range m.fabric.Topology().Links() {
		rs = append(rs, m.fabric.Resource(l.ID))
	}
	return append(rs, m.dram...)
}

// sameState reports the first difference between two machines' servers
// and two traffic accounts, compared with ==, or "".
func sameState(a, b machine, ta, tb *mem.Traffic, ng int) string {
	ra, rb := a.resources(), b.resources()
	for i := range ra {
		x, y := ra[i], rb[i]
		if x.NextFree() != y.NextFree() || x.BusyCycles() != y.BusyCycles() ||
			x.TotalServed() != y.TotalServed() || x.MaxQueueDelay() != y.MaxQueueDelay() {
			return fmt.Sprintf("server %d %s: next free %v/%v, busy %v/%v, served %v/%v, max queue delay %v/%v",
				i, x.Name(), x.NextFree(), y.NextFree(), x.BusyCycles(), y.BusyCycles(),
				x.TotalServed(), y.TotalServed(), x.MaxQueueDelay(), y.MaxQueueDelay())
		}
	}
	if ta.TotalLocal() != tb.TotalLocal() {
		return fmt.Sprintf("local bytes %v, reference %v", ta.TotalLocal(), tb.TotalLocal())
	}
	for src := range mem.GPMID(ng) {
		for dst := range mem.GPMID(ng) {
			if ta.LinkBytes(src, dst) != tb.LinkBytes(src, dst) {
				return fmt.Sprintf("bytes %d->%d %v, reference %v", src, dst, ta.LinkBytes(src, dst), tb.LinkBytes(src, dst))
			}
		}
	}
	for k := mem.KindVertex; k <= mem.KindCommand; k++ {
		if ta.RemoteByKind(k) != tb.RemoteByKind(k) {
			return fmt.Sprintf("%v remote bytes %v, reference %v", k, ta.RemoteByKind(k), tb.RemoteByKind(k))
		}
	}
	return ""
}

// TestOnePassBookingMatchesTheFlowReference replays random access
// sequences through the one-pass accesses, which book each source on a
// link.Fabric as the split computes it, and through the reference: the
// per-page Flow of the same access, booked afterwards by reserveFlow. On
// every registered topology at 2, 4, 8 and 16 GPMs, and with every layout,
// each access must end at the same time and leave every link and DRAM
// server (next free time, busy cycles, bytes served, peak queue delay)
// and the traffic account bit-identical. Issue times are random, so
// accesses queue behind each other on shared links.
func TestOnePassBookingMatchesTheFlowReference(t *testing.T) {
	layouts := []mem.Layout{mem.LayoutUniform, mem.LayoutStriped, mem.LayoutPartitioned}
	for _, name := range topo.Names() {
		for _, ng := range []int{2, 4, 8, 16} {
			for _, layout := range layouts {
				t.Run(fmt.Sprintf("%s/%d/%v", name, ng, layout), func(t *testing.T) {
					replay(t, name, ng, layout, rand.New(rand.NewSource(int64(ng)*31+int64(layout))))
				})
			}
		}
	}
}

// replay runs one random sequence with every segment placed, and
// re-placed, in the given layout.
func replay(t *testing.T, name string, ng int, layout mem.Layout, rng *rand.Rand) {
	cfg := mem.Config{NumGPMs: ng, PageSize: 256, RemoteCacheHitRate: 0.5}
	sys, ref := mem.NewSystem(cfg), mem.NewPageRef(cfg)
	one, two := newMachine(t, name, ng), newMachine(t, name, ng)
	sizes := []int64{0, 100, 256, 256 * 7, 256*31 + 13, 256 * 64}
	place := func(id mem.SegmentID) {
		switch layout {
		case mem.LayoutUniform:
			g := mem.GPMID(rng.Intn(ng))
			sys.Place(id, g)
			ref.Place(int(id), g)
		case mem.LayoutStriped:
			sys.PlaceStriped(id)
			ref.PlaceStriped(int(id))
		default:
			sys.PlacePartitioned(id)
			ref.PlacePartitioned(int(id))
		}
	}
	var ids []mem.SegmentID
	for i, size := range sizes {
		kind := mem.SegmentKind(i % 5)
		id := sys.Alloc(kind, size)
		ref.Alloc(kind, size)
		place(id)
		ids = append(ids, id)
	}
	for step := 0; step < 200; step++ {
		id := ids[rng.Intn(len(ids))]
		g := mem.GPMID(rng.Intn(ng))
		size := sizes[id]
		kind := mem.SegmentKind(int(id) % 5)
		at := sim.Time(rng.Intn(4000))
		var off, n int64
		if size > 0 {
			off = rng.Int63n(size)
			n = rng.Int63n(size - off + 1)
		}
		var got, want sim.Time
		op := rng.Intn(10)
		switch op {
		case 0:
			place(id)
			continue
		case 1:
			sys.ResetWarmth()
			ref.ResetWarmth()
			continue
		case 2:
			vol := float64(rng.Intn(1 << 16))
			local, arrive := sys.ReadProportional(g, id, vol, one.fabric, at)
			got = book(one.dram, g, at, local, arrive)
			want = reserveFlow(two.fabric, two.dram, at, ref.ReadProportional(g, int(id), vol))
		case 3:
			sys.Copy(id, g)
			got = book(one.dram, g, at, sys.ReadCopy(g, id, off, n), at)
			want = reserveFlow(two.fabric, two.dram, at, ref.Record(mem.Flow{Requester: g, LocalBytes: float64(n), Kind: kind}))
		case 4, 5, 6:
			local, arrive := sys.Write(g, id, off, n, one.fabric, at)
			got = book(one.dram, g, at, local, arrive)
			want = reserveFlow(two.fabric, two.dram, at, ref.Access(g, int(id), off, n, false))
		default:
			local, arrive := sys.Read(g, id, off, n, one.fabric, at)
			got = book(one.dram, g, at, local, arrive)
			want = reserveFlow(two.fabric, two.dram, at, ref.Access(g, int(id), off, n, true))
		}
		if got != want {
			t.Fatalf("step %d op %d (GPM %d, segment %d): access ends at %v, reference %v", step, op, g, id, got, want)
		}
		if diff := sameState(one, two, sys.Traffic(), ref.Traffic(), ng); diff != "" {
			t.Fatalf("step %d op %d (GPM %d, segment %d): %s", step, op, g, id, diff)
		}
	}
}
