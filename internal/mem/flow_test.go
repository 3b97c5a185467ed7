package mem

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"oovr/internal/sim"
)

// Flow is one access's split as a recording fake of Links sees it: the
// local bytes the access returned and the remote bytes it booked from each
// source GPM (RemoteBySrc is nil when no byte crossed a link). Accesses
// returned this value before they booked their remote bytes themselves;
// the tests and the per-page reference still speak it.
type Flow struct {
	Requester   GPMID
	LocalBytes  float64
	RemoteBySrc []float64
	Kind        SegmentKind
}

// RemoteTotal returns the total remote bytes of the flow.
func (f Flow) RemoteTotal() float64 {
	var t float64
	for _, b := range f.RemoteBySrc {
		t += b
	}
	return t
}

// startAt is the time the tests issue their accesses at.
const startAt sim.Time = 100

// recorder is a recording fake of Links. It sums the bytes booked from
// each source since the last reset, and flags any booking that breaks the
// contract: every Reserve of one access is to the requester at the issue
// time, with b > 0, from a source other than the requester, in ascending
// source order. Each booking arrives a source-dependent time later, so the
// latest arrival is not always the last one booked.
type recorder struct {
	dst    GPMID
	bySrc  []float64
	booked int
	prev   GPMID
	bad    bool
	latest sim.Time
}

func newRecorder(n int) *recorder { return &recorder{bySrc: make([]float64, n)} }

// reset starts recording one access of dst.
func (r *recorder) reset(dst GPMID) {
	clear(r.bySrc)
	r.dst, r.booked, r.prev, r.bad, r.latest = dst, 0, -1, false, startAt
}

func (r *recorder) Reserve(at sim.Time, src, dst GPMID, b float64) sim.Time {
	if at != startAt || dst != r.dst || src == dst || src <= r.prev || !(b > 0) {
		r.bad = true
	}
	r.prev = src
	r.bySrc[src] += b
	r.booked++
	end := at + sim.Time(1+int(src)*5%3)
	r.latest = max(r.latest, end)
	return end
}

// split runs one access of gpm to a segment of the given kind through a
// fresh recorder at startAt, fails t unless the access kept the booking
// contract and returned the latest arrival (startAt when nothing crossed a
// link), and returns what it recorded as a Flow.
func split(t testing.TB, s *System, gpm GPMID, kind SegmentKind, access func(Links, sim.Time) (float64, sim.Time)) Flow {
	t.Helper()
	r := newRecorder(s.NumGPMs())
	r.reset(gpm)
	local, arrive := access(r, startAt)
	if r.bad {
		t.Fatalf("GPM %d access broke the booking contract", gpm)
	}
	if arrive != r.latest {
		t.Fatalf("GPM %d access arrives at %v, want the latest booking's %v", gpm, arrive, r.latest)
	}
	f := Flow{Requester: gpm, LocalBytes: local, Kind: kind}
	if r.booked > 0 {
		f.RemoteBySrc = r.bySrc
	}
	return f
}

// read, write and readProportional run one access through split.
func read(t testing.TB, s *System, gpm GPMID, id SegmentID, offset, n int64) Flow {
	t.Helper()
	return split(t, s, gpm, s.Segment(id).Kind, func(l Links, at sim.Time) (float64, sim.Time) {
		return s.Read(gpm, id, offset, n, l, at)
	})
}

func write(t testing.TB, s *System, gpm GPMID, id SegmentID, offset, n int64) Flow {
	t.Helper()
	return split(t, s, gpm, s.Segment(id).Kind, func(l Links, at sim.Time) (float64, sim.Time) {
		return s.Write(gpm, id, offset, n, l, at)
	})
}

func readProportional(t testing.TB, s *System, gpm GPMID, id SegmentID, bytes float64) Flow {
	t.Helper()
	return split(t, s, gpm, s.Segment(id).Kind, func(l Links, at sim.Time) (float64, sim.Time) {
		return s.ReadProportional(gpm, id, bytes, l, at)
	})
}

// copyFlow is the Flow of a copy read: local bytes only.
func copyFlow(s *System, g GPMID, id SegmentID, local float64) Flow {
	return Flow{Requester: g, LocalBytes: local, Kind: s.Segment(id).Kind}
}

// TestRemoteAccessesDoNotAllocate pins that every access that splits bytes
// across GPMs — Read, Write and ReadProportional on striped and
// partitioned segments — computes its split in the System's reused vector
// and books each source on the Links as it goes, and that neither an
// access nor a re-placement allocates, at any GPM count. Each access must
// book remote bytes, or the all-local path would be measured instead.
func TestRemoteAccessesDoNotAllocate(t *testing.T) {
	for _, gpms := range []int{4, 17, 32} {
		s := NewSystem(Config{NumGPMs: gpms, PageSize: 4096, RemoteCacheHitRate: 0.5})
		size := int64(4096 * 3 * gpms)
		for _, layout := range []Layout{LayoutStriped, LayoutPartitioned} {
			id := s.Alloc(KindTexture, size)
			place := func() {
				if layout == LayoutStriped {
					s.placeStriped(id)
				} else {
					s.PlacePartitioned(id)
				}
			}
			place()
			rec := newRecorder(gpms)
			remote := func(what string, g GPMID, access func() (float64, sim.Time)) {
				rec.reset(g)
				if access(); rec.booked == 0 || rec.bad {
					t.Fatalf("gpms=%d %v %s: %d bookings (contract broken: %v)", gpms, layout, what, rec.booked, rec.bad)
				}
			}
			run := func() {
				for g := GPMID(0); g < GPMID(gpms); g++ {
					remote("cold read", g, func() (float64, sim.Time) { return s.Read(g, id, 0, size, rec, startAt) })
					remote("warm read", g, func() (float64, sim.Time) { return s.Read(g, id, 100, size-200, rec, startAt) })
					remote("write", g, func() (float64, sim.Time) { return s.Write(g, id, 100, size-100, rec, startAt) })
					remote("proportional", g, func() (float64, sim.Time) { return s.ReadProportional(g, id, 3*float64(size), rec, startAt) })
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
// whole-segment Read per segment. Per segment that is the 24-byte Segment
// record, its N-entry histogram and its N bits in each of the three
// bitsets (warmth, copy residency, copy warmth), plus a little slack for
// size-class rounding. The read itself allocates nothing, at any GPM
// count.
func TestColdSegmentAllocBudget(t *testing.T) {
	if size := unsafe.Sizeof(Segment{}); size != 24 {
		t.Errorf("Segment is %d bytes, want 24", size)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	for _, gpms := range []int{4, 16, 32} {
		s := NewSystem(Config{NumGPMs: gpms, PageSize: 4096, RemoteCacheHitRate: 0.5})
		rec := newRecorder(gpms)
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Grow(runs)
		for i := 0; i < runs; i++ {
			id := s.Alloc(KindTexture, 4*4096)
			rec.reset(GPMID(int(id) % gpms))
			s.Read(GPMID(int(id)%gpms), id, 0, 4*4096, rec, startAt)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		const slack = 32
		budget := int(unsafe.Sizeof(Segment{})) + gpms*8 + 3*gpms/8 + slack
		t.Logf("gpms=%d: %.0f B/op, budget %d", gpms, bytes, budget)
		if bytes > float64(budget) {
			t.Errorf("gpms=%d: Alloc + cold Read = %.0f B/op, budget %d", gpms, bytes, budget)
		}
	}
}

// TestAllLocalAccessesMatchTheReference pins the all-local fast path: on
// a segment homed entirely on the requester, reads, writes and proportional
// reads return the per-page reference's local bytes, book nothing on the
// Links and arrive at once, allocate nothing, and still arm the remote
// cache for a later remote read. A registered copy (Copy) of
// a striped segment must read exactly as a segment placed on the requester
// does: equal flows, equal Traffic and equal warmth, across a frame
// boundary. One proportional volume is chosen so that bytes*Size/Size !=
// bytes in float64, which a shortcut returning the volume itself would get
// wrong.
func TestAllLocalAccessesMatchTheReference(t *testing.T) {
	cfg := Config{NumGPMs: 4, PageSize: 4096, RemoteCacheHitRate: 0.5}
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
	id := s.Alloc(KindTexture, size)
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
	local("cold read", read(t, s, g, id, 0, size), ref.access(g, rid, 0, size, true))
	local("warm read", read(t, s, g, id, 4000, 5000), ref.access(g, rid, 4000, 5000, true))
	local("write", write(t, s, g, id, 100, size-100), ref.access(g, rid, 100, size-100, false))
	local("empty read", read(t, s, g, id, 100, 0), ref.access(g, rid, 100, 0, true))
	local("proportional", readProportional(t, s, g, id, vol), ref.readProportional(g, rid, vol))
	local("proportional > size", readProportional(t, s, g, id, 3*size), ref.readProportional(g, rid, 3*size))
	local("zero proportional", readProportional(t, s, g, id, 0), ref.readProportional(g, rid, 0))
	rec := newRecorder(cfg.NumGPMs)
	allocs := testing.AllocsPerRun(100, func() {
		s.Read(g, id, 0, size, rec, startAt)
		s.Write(g, id, 100, size-100, rec, startAt)
		s.ReadProportional(g, id, vol, rec, startAt)
	})
	if allocs != 0 {
		t.Errorf("all-local accesses allocate %v times per run", allocs)
	}
	// The fast reads kept the warmth stamp: once the segment is
	// striped, g's next read is warm and the remote cache absorbs half.
	s.placeStriped(id)
	ref.placeStriped(rid)
	check("warm remote read", read(t, s, g, id, 0, size), ref.access(g, rid, 0, size, true))

	placed, copied := NewSystem(cfg), NewSystem(cfg)
	pid := placed.Alloc(KindTexture, size)
	placed.Place(pid, g)
	cid := copied.Alloc(KindTexture, size) // striped
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
		local("copy empty read", copyFlow(copied, g, cid, copied.ReadCopy(g, cid, 100, 0)), read(t, placed, g, pid, 100, 0))
		local("copy zero proportional", copyFlow(copied, g, cid, copied.ReadCopyProportional(g, cid, 0)), readProportional(t, placed, g, pid, 0))
		local("copy proportional", copyFlow(copied, g, cid, copied.ReadCopyProportional(g, cid, vol)), readProportional(t, placed, g, pid, vol))
		warmth("before the first read")
		local("copy read", copyFlow(copied, g, cid, copied.ReadCopy(g, cid, 0, size)), read(t, placed, g, pid, 0, size))
		warmth("after a read")
		local("copy partial read", copyFlow(copied, g, cid, copied.ReadCopy(g, cid, 4000, 5000)), read(t, placed, g, pid, 4000, 5000))
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
