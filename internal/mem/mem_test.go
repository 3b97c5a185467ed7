package mem

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func newSys(t *testing.T) *System {
	t.Helper()
	return NewSystem(Config{NumGPMs: 4, PageSize: 4096, RemoteCacheHitRate: 0.5})
}

// TestAllocPages pins that a new segment is homed at allocation: its
// pages are striped across the GPMs and its home histogram is written at
// once.
func TestAllocPages(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindTexture, 4096*5+1)
	seg := s.Segment(id)
	if seg.nPages != 6 {
		t.Errorf("Pages = %d, want 6", seg.nPages)
	}
	if seg.Layout() != LayoutStriped {
		t.Errorf("Layout = %v, want striped", seg.Layout())
	}
	for i := 0; i < seg.nPages; i++ {
		if s.pageHome(id, i) != GPMID(i%4) {
			t.Errorf("page %d home = %d, want %d", i, s.pageHome(id, i), i%4)
		}
	}
	hist := s.homeHist(id)
	for g, want := range []int64{2 * 4096, 4096 + 1, 4096, 4096} {
		if hist[g] != want {
			t.Errorf("GPM %d homes %d bytes, want %d", g, hist[g], want)
		}
	}
	if s.NumSegments() != 1 {
		t.Errorf("NumSegments = %d", s.NumSegments())
	}
}

func TestRemoteReadCrossesLink(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindTexture, 4096)
	s.Place(id, 0)
	f := read(t, s, 1, id, 0, 4096)
	if f.LocalBytes != 0 {
		t.Errorf("cold remote read should have no local bytes, got %v", f.LocalBytes)
	}
	if f.RemoteBySrc[0] != 4096 {
		t.Errorf("remote from 0 = %v", f.RemoteBySrc[0])
	}
	if got := s.Traffic().LinkBytes(0, 1); got != 4096 {
		t.Errorf("link 0->1 = %v", got)
	}
}

func TestRemoteCacheAbsorbsRepeatedReads(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindTexture, 4096)
	s.Place(id, 0)
	read(t, s, 1, id, 0, 4096) // cold remote: arms cache
	f := read(t, s, 1, id, 0, 4096)
	if f.RemoteBySrc[0] != 2048 {
		t.Errorf("warm remote read should be halved by the cache, got %v", f.RemoteBySrc[0])
	}
	if f.LocalBytes != 2048 {
		t.Errorf("cache hits should count as local, got %v", f.LocalBytes)
	}
}

func TestWritesNotCached(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindFramebuffer, 4096)
	s.Place(id, 0)
	write(t, s, 1, id, 0, 4096)
	f := write(t, s, 1, id, 0, 4096)
	if f.RemoteBySrc[0] != 4096 {
		t.Errorf("repeated remote writes must not hit the read cache, got %v", f.RemoteBySrc[0])
	}
}

func TestPlaceExplicit(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindTexture, 16384)
	s.Place(id, 3)
	f := read(t, s, 3, id, 0, 16384)
	if f.RemoteTotal() != 0 {
		t.Errorf("read from home should be local, remote=%v", f.RemoteTotal())
	}
	if h := s.homeHist(id); h[3] != 16384 {
		t.Errorf("GPM 3 homes %d bytes, want 16384", h[3])
	}
}

func TestPlaceStriped(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindFramebuffer, 4096*8)
	s.Place(id, 1)
	s.placeStriped(id)
	hist := s.homeHist(id)
	if len(hist) != 4 {
		t.Fatalf("histogram has %d entries, want 4", len(hist))
	}
	for g := 0; g < 4; g++ {
		if hist[g] != 4096*2 {
			t.Errorf("GPM %d homed %d bytes, want %d", g, hist[g], 4096*2)
		}
	}
}

func TestPlacePartitioned(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindFramebuffer, 4096*8)
	s.PlacePartitioned(id)
	// First two pages on GPM0, next two on GPM1, etc.
	want := []GPMID{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if s.pageHome(id, i) != w {
			t.Errorf("page %d home = %d, want %d", i, s.pageHome(id, i), w)
		}
	}
}

func TestPartialLastPageAccounting(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindVertex, 4096+100)
	s.Place(id, 0)
	if h := s.homeHist(id); h[0] != 4196 {
		t.Errorf("GPM 0 homes %d bytes, want 4196 (partial page counted by bytes)", h[0])
	}
	f := read(t, s, 0, id, 0, 4196)
	if f.LocalBytes != 4196 {
		t.Errorf("LocalBytes = %v", f.LocalBytes)
	}
}

func TestAccessRangeSplitAcrossPages(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindTexture, 4096*2)
	s.Place(id, 0)
	// Read 1000 bytes straddling the page boundary from a remote GPM.
	f := read(t, s, 1, id, 4096-500, 1000)
	if f.RemoteBySrc[0] != 1000 {
		t.Errorf("straddling read remote bytes = %v", f.RemoteBySrc[0])
	}
}

// TestAccessOutOfRangePanics also pins that the panic names the segment
// by id and size.
func TestAccessOutOfRangePanics(t *testing.T) {
	s := newSys(t)
	s.Alloc(KindVertex, 100)
	id := s.Alloc(KindVertex, 100)
	defer func() {
		msg, _ := recover().(string)
		if want := "segment 1 of size 100"; !strings.Contains(msg, want) {
			t.Errorf("out-of-range access panicked with %q, want a message naming %s", msg, want)
		}
	}()
	read(t, s, 0, id, 50, 100)
}

func TestTrafficByKind(t *testing.T) {
	s := newSys(t)
	tex := s.Alloc(KindTexture, 4096)
	fb := s.Alloc(KindFramebuffer, 4096)
	s.Place(tex, 0)
	s.Place(fb, 0)
	read(t, s, 1, tex, 0, 4096)
	write(t, s, 1, fb, 0, 4096)
	tr := s.Traffic()
	if tr.RemoteByKind(KindTexture) != 4096 {
		t.Errorf("texture remote = %v", tr.RemoteByKind(KindTexture))
	}
	if tr.RemoteByKind(KindFramebuffer) != 4096 {
		t.Errorf("fb remote = %v", tr.RemoteByKind(KindFramebuffer))
	}
	if tr.TotalInterGPM() != 8192 {
		t.Errorf("total inter-GPM = %v", tr.TotalInterGPM())
	}
}

func TestKindString(t *testing.T) {
	names := map[SegmentKind]string{
		KindVertex: "vertex", KindTexture: "texture", KindFramebuffer: "framebuffer",
		KindDepth: "depth", KindCommand: "command",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// Property: for any access pattern, conservation holds — every byte read is
// either local or remote, and link traffic equals the sum of remote flows.
func TestConservationPropertyQuick(t *testing.T) {
	f := func(ops []struct {
		G    uint8
		Seg  uint8
		Off  uint16
		Len  uint16
		Read bool
	}) bool {
		s := NewSystem(Config{NumGPMs: 4, PageSize: 512, RemoteCacheHitRate: 0.25})
		const segSize = 8192
		ids := make([]SegmentID, 4)
		for i := range ids {
			ids[i] = s.Alloc(KindTexture, segSize)
		}
		var wantTotal float64
		var gotLocal, gotRemote float64
		for _, op := range ops {
			g := GPMID(op.G % 4)
			id := ids[op.Seg%4]
			off := int64(op.Off) % segSize
			n := int64(op.Len) % (segSize - off)
			var fl Flow
			if op.Read {
				fl = read(t, s, g, id, off, n)
			} else {
				fl = write(t, s, g, id, off, n)
			}
			wantTotal += float64(n)
			gotLocal += fl.LocalBytes
			gotRemote += fl.RemoteTotal()
		}
		if math.Abs(gotLocal+gotRemote-wantTotal) > 1e-6 {
			return false
		}
		return math.Abs(s.Traffic().TotalInterGPM()-gotRemote) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the bytes a segment homes per GPM (its home histogram, the
// DRAM it occupies) are never negative and always total its size: a
// segment is homed from allocation on.
func TestDRAMAccountingPropertyQuick(t *testing.T) {
	f := func(moves []uint8) bool {
		s := NewSystem(Config{NumGPMs: 4, PageSize: 256, RemoteCacheHitRate: 0})
		id := s.Alloc(KindTexture, 256*7+13)
		for _, m := range moves {
			s.Place(id, GPMID(m%4))
		}
		var total int64
		for _, u := range s.homeHist(id) {
			if u < 0 {
				return false
			}
			total += u
		}
		return total == 256*7+13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
