package mem

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestRemoteAccessesDoNotAllocate pins the scratch contract on Flow: every
// access that splits bytes across GPMs — Read, Write and ReadProportional
// on striped and partitioned segments — writes its RemoteBySrc
// and its byte split into the System's reused vectors, and neither an
// access nor a re-placement allocates, at any GPM count. Each access must
// carry remote bytes, or the all-local path would be measured instead.
func TestRemoteAccessesDoNotAllocate(t *testing.T) {
	for _, gpms := range []int{4, 17, 32} {
		s := NewSystem(DefaultConfig(gpms))
		size := int64(4096 * 3 * gpms)
		for _, layout := range []Layout{LayoutStriped, LayoutPartitioned} {
			id := s.Alloc(KindTexture, "tex", size)
			place := func() {
				if layout == LayoutStriped {
					s.PlaceStriped(id)
				} else {
					s.PlacePartitioned(id)
				}
			}
			place()
			remote := func(what string, f Flow) {
				if f.RemoteTotal() == 0 {
					t.Fatalf("gpms=%d %v %s: no remote bytes", gpms, layout, what)
				}
			}
			run := func() {
				for g := GPMID(0); g < GPMID(gpms); g++ {
					remote("cold read", s.Read(g, id, 0, size))
					remote("warm read", s.Read(g, id, 100, size-200))
					remote("write", s.Write(g, id, 100, size-100))
					remote("proportional", s.ReadProportional(g, id, 3*float64(size)))
					place()
				}
				s.ResetWarmth()
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("gpms=%d %v: remote accesses allocate %v times per run", gpms, layout, allocs)
			}
		}
	}
}

// TestColdSegmentAllocBudget bounds what allocating a segment and reading
// it cold costs on the path multigpu.New takes: a fresh System whose table
// is sized once by Grow, inside the measured window, then Alloc and a cold
// ReadAll per segment. Per segment that is the Segment record and its
// N-entry histogram and warmth entries, plus a little slack for size-class
// rounding. The read itself allocates nothing, at any GPM count.
func TestColdSegmentAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	for _, gpms := range []int{4, 16, 32} {
		s := NewSystem(DefaultConfig(gpms))
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Grow(runs)
		for i := 0; i < runs; i++ {
			id := s.Alloc(KindTexture, "tex", 4*4096)
			s.ReadAll(GPMID(int(id)%gpms), id)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		const slack = 128
		budget := int(unsafe.Sizeof(Segment{})) + 2*gpms*8 + slack
		t.Logf("gpms=%d: %.0f B/op, budget %d", gpms, bytes, budget)
		if bytes > float64(budget) {
			t.Errorf("gpms=%d: Alloc + cold ReadAll = %.0f B/op, budget %d", gpms, bytes, budget)
		}
	}
}

// TestAllLocalAccessesMatchTheReference pins the all-local fast path: on
// a segment homed entirely on the requester, reads, writes and proportional
// reads return the per-page reference's flows with a nil RemoteBySrc,
// allocate nothing, and still arm the remote cache for a later remote read. A registered copy (Copy) of
// a striped segment must read exactly as a segment placed on the requester
// does: equal flows, equal Traffic and equal warmth, across a frame
// boundary. One proportional volume is chosen so that bytes*Size/Size !=
// bytes in float64, which a shortcut returning the volume itself would get
// wrong.
func TestAllLocalAccessesMatchTheReference(t *testing.T) {
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
	s := NewSystem(cfg)
	ref := newPageRef(cfg)
	id := s.Alloc(KindTexture, "tex", size)
	rid := ref.alloc(KindTexture, size)
	s.Place(id, g)
	ref.place(rid, g)

	check := func(what string, got, want Flow) {
		t.Helper()
		if !flowsEqual(got, want) {
			t.Errorf("%s: flow %+v, reference %+v", what, got, want)
		}
	}
	local := func(what string, got, want Flow) {
		t.Helper()
		check(what, got, want)
		if got.RemoteBySrc != nil {
			t.Errorf("%s: all-local flow carries RemoteBySrc %v, want nil", what, got.RemoteBySrc)
		}
	}
	local("cold read", s.ReadAll(g, id), ref.access(g, rid, 0, size, true))
	local("warm read", s.Read(g, id, 4000, 5000), ref.access(g, rid, 4000, 5000, true))
	local("write", s.Write(g, id, 100, size-100), ref.access(g, rid, 100, size-100, false))
	local("empty read", s.Read(g, id, 100, 0), ref.access(g, rid, 100, 0, true))
	local("proportional", s.ReadProportional(g, id, vol), ref.readProportional(g, rid, vol))
	local("proportional > size", s.ReadProportional(g, id, 3*size), ref.readProportional(g, rid, 3*size))
	local("zero proportional", s.ReadProportional(g, id, 0), ref.readProportional(g, rid, 0))
	allocs := testing.AllocsPerRun(100, func() {
		s.ReadAll(g, id)
		s.Write(g, id, 100, size-100)
		s.ReadProportional(g, id, vol)
	})
	if allocs != 0 {
		t.Errorf("all-local accesses allocate %v times per run", allocs)
	}
	// The fast reads kept the warmth stamp: once the segment is
	// striped, g's next read is warm and the remote cache absorbs half.
	s.PlaceStriped(id)
	ref.placeStriped(rid)
	check("warm remote read", s.ReadAll(g, id), ref.access(g, rid, 0, size, true))

	placed, copied := NewSystem(cfg), NewSystem(cfg)
	pid := placed.Alloc(KindTexture, "tex", size)
	placed.Place(pid, g)
	cid := copied.Alloc(KindTexture, "tex", size)
	copied.PlaceStriped(cid)
	if !copied.Copy(cid, g) || copied.Copy(cid, g) {
		t.Errorf("Copy must report new once, then not")
	}
	warmth := func(when string) {
		t.Helper()
		if got, want := copied.CopyTouched(g, cid), placed.Touched(g, pid); got != want {
			t.Errorf("%s: copy warm=%v, placed segment warm=%v", when, got, want)
		}
	}
	for frame := 0; frame < 2; frame++ {
		if frame > 0 {
			placed.ResetWarmth()
			copied.ResetWarmth()
		}
		warmth("at frame start")
		local("copy empty read", copied.ReadCopy(g, cid, 100, 0), placed.Read(g, pid, 100, 0))
		local("copy zero proportional", copied.ReadCopyProportional(g, cid, 0), placed.ReadProportional(g, pid, 0))
		local("copy proportional", copied.ReadCopyProportional(g, cid, vol), placed.ReadProportional(g, pid, vol))
		warmth("before the first read")
		local("copy read", copied.ReadCopy(g, cid, 0, size), placed.Read(g, pid, 0, size))
		warmth("after a read")
		local("copy partial read", copied.ReadCopy(g, cid, 4000, 5000), placed.Read(g, pid, 4000, 5000))
	}
	if !reflect.DeepEqual(copied.Traffic(), placed.Traffic()) {
		t.Errorf("copy traffic %v, placed segment traffic %v", copied.Traffic(), placed.Traffic())
	}
	allocs = testing.AllocsPerRun(100, func() {
		copied.ReadCopy(g, cid, 0, size)
		copied.ReadCopyProportional(g, cid, vol)
		copied.CopyTouched(g, cid)
	})
	if allocs != 0 {
		t.Errorf("copy reads allocate %v times per run", allocs)
	}
}
