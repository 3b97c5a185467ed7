package mem

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// TestFlowCacheSlotsDoNotAlias pins the aliasing contract on Flow: a
// returned RemoteBySrc stays intact until the same (requester, op-class)
// slot is refilled. Every requester drives all five op classes once against
// one segment, and the Duplicates keep moving the placement, so every fill
// writes fresh values into its own slot. A slot whose remote vector shared
// storage with another's would overwrite a held flow.
func TestFlowCacheSlotsDoNotAlias(t *testing.T) {
	for _, gpms := range []int{4, 20} { // 20 exercises the heap-scratch path
		t.Run(fmt.Sprintf("gpms=%d", gpms), func(t *testing.T) {
			s := NewSystem(Config{NumGPMs: gpms, PageSize: 512, RemoteCacheHitRate: 0.5})
			size := int64(512 * 2 * gpms)
			id := s.Alloc(KindTexture, "tex", size)
			s.PlaceStriped(id)

			type held struct {
				what string
				got  []float64 // the returned RemoteBySrc, still aliased
				want []float64 // its value when returned
			}
			var all []held
			hold := func(what string, f Flow) {
				if cap(f.RemoteBySrc) != len(f.RemoteBySrc) {
					t.Fatalf("%s: RemoteBySrc cap %d > len %d: an append could spill into a neighbour",
						what, cap(f.RemoteBySrc), len(f.RemoteBySrc))
				}
				all = append(all, held{what, f.RemoteBySrc, slices.Clone(f.RemoteBySrc)})
			}
			for g := 0; g < gpms; g++ {
				gpm := GPMID(g)
				hold(fmt.Sprintf("gpm%d read-cold", g), s.Read(gpm, id, 0, size))
				hold(fmt.Sprintf("gpm%d read-warm", g), s.Read(gpm, id, 0, size))
				hold(fmt.Sprintf("gpm%d write", g), s.Write(gpm, id, 0, size))
				hold(fmt.Sprintf("gpm%d prop", g), s.ReadProportional(gpm, id, 3*float64(size)))
				hold(fmt.Sprintf("gpm%d dup", g), s.Duplicate(id, gpm))
			}
			nonzero := 0
			for _, h := range all {
				if !slices.Equal(h.got, h.want) {
					t.Errorf("%s: held RemoteBySrc changed from %v to %v by another slot's fill", h.what, h.want, h.got)
				}
				for _, b := range h.want {
					if b != 0 {
						nonzero++
						break
					}
				}
			}
			// Guard the test's own power: most flows must carry remote
			// bytes, or an overwrite with zeros would go unseen.
			if nonzero < len(all)/2 {
				t.Fatalf("only %d of %d flows carry remote bytes", nonzero, len(all))
			}
		})
	}
}

// TestColdSegmentAllocBudget bounds what allocating a segment and reading
// it cold costs on a warmed System: the sparse state itself (the Segment
// header, its histogram, warmth and remote vectors, one flow-cache slot)
// plus a little slack for size-class rounding and the segment table's
// amortized growth. A dense slot array sized by every (requester,
// op-class) pair costs numFlowOps x NumGPMs slots and blows the budget.
// Above maxStackGPMs an access's histogram scratch is heap-allocated by
// design, so the budget covers the stack-scratch sizes only.
func TestColdSegmentAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	for _, gpms := range []int{4, maxStackGPMs} {
		s := NewSystem(DefaultConfig(gpms))
		coldRead := func() {
			id := s.Alloc(KindTexture, "tex", 4*4096)
			s.ReadAll(GPMID(int(id)%gpms), id)
		}
		for i := 0; i < 1000; i++ { // warm: the segment table has grown
			coldRead()
		}
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			coldRead()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		const slack = 128
		budget := int(unsafe.Sizeof(Segment{})+unsafe.Sizeof(flowSlot{})) + (3*gpms+1)*8 + slack
		dense := int(unsafe.Sizeof(flowSlot{})) * numFlowOps * gpms
		if bytes > float64(budget) {
			t.Errorf("gpms=%d: Alloc + cold ReadAll = %.0f B/op, budget %d (a dense slot array alone is %d B)",
				gpms, bytes, budget, dense)
		}
	}
}

// TestAllLocalAccessesBypassTheFlowCache pins the all-local fast path: on
// a segment homed entirely on the requester, reads, writes and proportional
// reads return the per-page reference's flows with the flow cache on and
// off, create no slot, allocate nothing, and still arm the remote cache
// for a later remote read. A registered copy (Copy) of a striped segment
// must read exactly as a segment placed on the requester does: equal
// flows, equal Traffic and equal warmth, across a frame boundary. One
// proportional volume is chosen so that bytes*Size/Size != bytes in
// float64, which a shortcut returning the volume itself would get wrong.
func TestAllLocalAccessesBypassTheFlowCache(t *testing.T) {
	cfg := DefaultConfig(4)
	const size = 3*4096 + 100
	const g = GPMID(2)
	vol := 0.0
	for v := 1.1; v < 1000; v += 0.1 {
		if v*size/size != v {
			vol = v
			break
		}
	}
	if vol == 0 {
		t.Fatal("no volume found whose share differs from itself")
	}
	for _, cache := range []bool{true, false} {
		s := NewSystem(cfg)
		s.SetFlowCache(cache)
		ref := newPageRef(cfg)
		id := s.Alloc(KindTexture, "tex", size)
		rid := ref.alloc(KindTexture, size)
		s.Place(id, g)
		ref.place(rid, g)

		check := func(what string, got, want Flow) {
			t.Helper()
			if !flowsEqual(got, want) {
				t.Errorf("cache=%v %s: flow %+v, reference %+v", cache, what, got, want)
			}
		}
		check("cold read", s.ReadAll(g, id), ref.access(g, rid, 0, size, true))
		check("warm read", s.Read(g, id, 4000, 5000), ref.access(g, rid, 4000, 5000, true))
		check("write", s.Write(g, id, 100, size-100), ref.access(g, rid, 100, size-100, false))
		check("proportional", s.ReadProportional(g, id, vol), ref.readProportional(g, rid, vol))
		check("proportional > size", s.ReadProportional(g, id, 3*size), ref.readProportional(g, rid, 3*size))
		if n := len(s.Segment(id).flows); n != 0 {
			t.Errorf("cache=%v: all-local accesses created %d flow-cache slots", cache, n)
		}
		if cache {
			allocs := testing.AllocsPerRun(100, func() {
				s.ReadAll(g, id)
				s.Write(g, id, 100, size-100)
				s.ReadProportional(g, id, vol)
			})
			if allocs != 0 {
				t.Errorf("all-local accesses allocate %v times per run", allocs)
			}
		}
		// The fast reads kept the warmth stamp: once the segment is
		// striped, g's next read is warm and the remote cache absorbs half.
		s.PlaceStriped(id)
		ref.placeStriped(rid)
		check("warm remote read", s.ReadAll(g, id), ref.access(g, rid, 0, size, true))

		placed, copied := NewSystem(cfg), NewSystem(cfg)
		placed.SetFlowCache(cache)
		copied.SetFlowCache(cache)
		pid := placed.Alloc(KindTexture, "tex", size)
		placed.Place(pid, g)
		cid := copied.Alloc(KindTexture, "tex", size)
		copied.PlaceStriped(cid)
		if !copied.Copy(cid, g) || copied.Copy(cid, g) {
			t.Errorf("cache=%v: Copy must report new once, then not", cache)
		}
		warmth := func(when string) {
			t.Helper()
			if got, want := copied.CopyTouched(g, cid), placed.Touched(g, pid); got != want {
				t.Errorf("cache=%v %s: copy warm=%v, placed segment warm=%v", cache, when, got, want)
			}
		}
		for frame := 0; frame < 2; frame++ {
			if frame > 0 {
				placed.ResetWarmth()
				copied.ResetWarmth()
			}
			warmth("at frame start")
			check("copy empty read", copied.ReadCopy(g, cid, 100, 0), placed.Read(g, pid, 100, 0))
			check("copy zero proportional", copied.ReadCopyProportional(g, cid, 0), placed.ReadProportional(g, pid, 0))
			check("copy proportional", copied.ReadCopyProportional(g, cid, vol), placed.ReadProportional(g, pid, vol))
			warmth("before the first read")
			check("copy read", copied.ReadCopy(g, cid, 0, size), placed.Read(g, pid, 0, size))
			warmth("after a read")
			check("copy partial read", copied.ReadCopy(g, cid, 4000, 5000), placed.Read(g, pid, 4000, 5000))
		}
		if !reflect.DeepEqual(copied.Traffic(), placed.Traffic()) {
			t.Errorf("cache=%v: copy traffic %v, placed segment traffic %v", cache, copied.Traffic(), placed.Traffic())
		}
		if cache {
			allocs := testing.AllocsPerRun(100, func() {
				copied.ReadCopy(g, cid, 0, size)
				copied.ReadCopyProportional(g, cid, vol)
				copied.CopyTouched(g, cid)
			})
			if allocs != 0 {
				t.Errorf("copy reads allocate %v times per run", allocs)
			}
		}
	}
}
