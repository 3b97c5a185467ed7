package mem

import (
	"fmt"
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
