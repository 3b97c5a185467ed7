package link

import (
	"testing"

	"oovr/internal/mem"
	"oovr/internal/sim"
	"oovr/internal/topo"
)

func TestBytesPerCycle(t *testing.T) {
	if got := BytesPerCycle(64, 1); got != 64 {
		t.Errorf("64GB/s@1GHz = %v bytes/cycle", got)
	}
	if got := BytesPerCycle(1024, 1); got != 1024 {
		t.Errorf("1TB/s@1GHz = %v bytes/cycle", got)
	}
	if got := BytesPerCycle(64, 2); got != 32 {
		t.Errorf("64GB/s@2GHz = %v bytes/cycle", got)
	}
}

func TestFabricTopology(t *testing.T) {
	f := topoFabric(t, "", 4)
	if g := f.Topology(); g.NumGPMs() != 4 || g.Name() != "fullmesh" || len(g.Links()) != 12 {
		t.Errorf("fabric identity wrong")
	}
	if r := f.Topology().Route(0, 0); len(r) != 0 {
		t.Errorf("self route should be empty, got %v", r)
	}
	if linkServer(t, f, 0, 1) == linkServer(t, f, 1, 0) {
		t.Errorf("directions must be independent resources")
	}
}

func TestReserveFlowUsesCorrectLinks(t *testing.T) {
	f := topoFabric(t, "", 4)
	// GPM 2 reads 640 bytes from GPM 0 and 1280 from GPM 3 at once.
	end := max(f.Reserve(0, 0, 2, 640), f.Reserve(0, 3, 2, 1280))
	// 1280 bytes over the 3->2 link at 64 B/cycle = 20 cycles (the slower of
	// the two parallel transfers).
	if end != 20 {
		t.Errorf("end = %v, want 20", end)
	}
	if got := linkServer(t, f, 0, 2).TotalServed(); got != 640 {
		t.Errorf("link 0->2 served %v", got)
	}
	if got := linkServer(t, f, 3, 2).TotalServed(); got != 1280 {
		t.Errorf("link 3->2 served %v", got)
	}
	if got := linkServer(t, f, 1, 2).TotalServed(); got != 0 {
		t.Errorf("link 1->2 served %v", got)
	}
	if total := servedBytes(f); total != 1920 {
		t.Errorf("links served %v bytes in all, want 1920", total)
	}
}

func TestReserveFlowEmpty(t *testing.T) {
	f := topoFabric(t, "", 2)
	m := mem.NewSystem(mem.DefaultConfig(2))
	seg := m.Alloc(mem.KindTexture, 4096)
	m.Place(seg, 0)
	// An all-local access books nothing on the fabric: the last remote
	// byte "arrives" at the issue time.
	local, end := m.Read(0, seg, 0, 4096, f, 42)
	if end != 42 {
		t.Errorf("empty flow end = %v", end)
	}
	if local != 4096 {
		t.Errorf("local bytes = %v, want 4096", local)
	}
	if total := servedBytes(f); total != 0 {
		t.Errorf("links served %v bytes, want 0", total)
	}
}

func TestReserveFlowContention(t *testing.T) {
	f := topoFabric(t, "", 2)
	e1 := f.Reserve(0, 0, 1, 6400) // 100 cycles
	e2 := f.Reserve(0, 0, 1, 6400) // queued behind: 200
	if e1 != 100 || e2 != 200 {
		t.Errorf("contention ends = %v, %v", e1, e2)
	}
}

// topoFabric builds a fabric for a named topology at 64 GB/s, 1 GHz.
func topoFabric(t *testing.T, name string, n int) *Fabric {
	t.Helper()
	g, err := topo.Build(topo.Params{Name: name, NumGPMs: n, LinkGBs: 64})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, 1)
}

// linkServer returns the bandwidth server of the physical link src->dst:
// the one link its route crosses.
func linkServer(t *testing.T, f *Fabric, src, dst int) *sim.Resource {
	t.Helper()
	r := f.Topology().Route(src, dst)
	if len(r) != 1 {
		t.Fatalf("%s route %d->%d crosses %d links, want 1", f.Topology().Name(), src, dst, len(r))
	}
	return f.Resource(r[0])
}

// servedBytes sums the bytes every physical link's server has carried.
func servedBytes(f *Fabric) float64 {
	var total float64
	for _, l := range f.Topology().Links() {
		total += f.Resource(l.ID).TotalServed()
	}
	return total
}

func TestMultiHopStoreAndForward(t *testing.T) {
	// Chain 0-1-2-3: a flow 0->3 crosses three links back to back.
	f := topoFabric(t, "chain", 4)
	end := f.Reserve(0, 0, 3, 640)
	// 640 bytes at 64 B/cycle = 10 cycles per hop, three hops serialized.
	if end != 30 {
		t.Errorf("chain 0->3 end = %v, want 30", end)
	}
	if linkServer(t, f, 0, 1).TotalServed() != 640 || linkServer(t, f, 1, 2).TotalServed() != 640 || linkServer(t, f, 2, 3).TotalServed() != 640 {
		t.Errorf("hops did not each carry the flow's bytes")
	}
}

func TestSharedLinkContention(t *testing.T) {
	// Chain: flows 0->2 and 1->2 share link 1->2; the second queues.
	f := topoFabric(t, "chain", 3)
	e1 := f.Reserve(0, 0, 2, 640)
	if e1 != 20 { // two 10-cycle hops
		t.Fatalf("0->2 end = %v, want 20", e1)
	}
	e2 := f.Reserve(0, 1, 2, 640)
	// 1->2 is busy until cycle 20 serving the first flow's second hop.
	if e2 != 30 {
		t.Errorf("1->2 end = %v, want 30 (queued behind the routed flow)", e2)
	}
	// The second flow asked for the link at cycle 0 but waited for the
	// first flow's second hop to drain at cycle 20.
	if d := linkServer(t, f, 1, 2).MaxQueueDelay(); d != 20 {
		t.Errorf("peak queue delay on the shared link = %v, want 20", d)
	}
}

func TestSwitchBackplaneIsShared(t *testing.T) {
	// Switch with a tight backplane: two simultaneous flows between
	// disjoint GPM pairs still serialize on the backplane.
	g, err := topo.Build(topo.Params{Name: "switch", NumGPMs: 4, LinkGBs: 64, BackplaneGBs: 64})
	if err != nil {
		t.Fatal(err)
	}
	f := New(g, 1)
	e1 := f.Reserve(0, 0, 1, 640)
	e2 := f.Reserve(0, 2, 3, 640)
	// Each flow: up 10 + backplane 10 + down 10 = 30 uncontended; the
	// second flow's backplane hop queues behind the first's.
	if e1 != 30 {
		t.Errorf("first switch flow end = %v, want 30", e1)
	}
	if e2 != 40 {
		t.Errorf("second switch flow end = %v, want 40 (backplane serialized)", e2)
	}
}

// TestAccountHops pins the per-link byte ledger: a 2-hop chain flow puts
// its bytes on the server of each link it crosses, and on no other.
func TestAccountHops(t *testing.T) {
	f := topoFabric(t, "chain", 3)
	f.Reserve(0, 0, 2, 640)
	route := f.Topology().Route(0, 2)
	if len(route) != 2 {
		t.Fatalf("chain route 0->2 crosses %d links, want 2", len(route))
	}
	for _, lid := range route {
		if got := f.Resource(lid).TotalServed(); got != 640 {
			t.Errorf("hop %s served %v bytes, want 640", f.Resource(lid).Name(), got)
		}
	}
	if total := servedBytes(f); total != 1280 {
		t.Errorf("links served %v bytes in all, want 1280 (640 on each of the two hops)", total)
	}
}
