package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReadProportionalSplitsByHomeShares(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindTexture, 4096*4) // striped: one page per GPM
	f := readProportional(t, s, 0, id, 8000)
	if !nearly(f.LocalBytes, 2000) {
		t.Errorf("local share = %v, want 2000", f.LocalBytes)
	}
	for g := 1; g < 4; g++ {
		if !nearly(f.RemoteBySrc[g], 2000) {
			t.Errorf("remote share from %d = %v, want 2000", g, f.RemoteBySrc[g])
		}
	}
}

func TestReadProportionalVolumeMayExceedSize(t *testing.T) {
	// Repeated sampling of the same texels: the request volume models link
	// traffic, not storage, so it may exceed the segment size.
	s := newSys(t)
	id := s.Alloc(KindTexture, 4096)
	s.Place(id, 1)
	f := readProportional(t, s, 0, id, 1<<20)
	if f.RemoteBySrc[1] != 1<<20 {
		t.Errorf("oversized proportional read = %v, want %v", f.RemoteBySrc[1], 1<<20)
	}
}

func TestReadProportionalZeroAndNegative(t *testing.T) {
	s := newSys(t)
	id := s.Alloc(KindTexture, 4096)
	f := readProportional(t, s, 0, id, 0)
	if f.LocalBytes != 0 || f.RemoteTotal() != 0 {
		t.Errorf("zero read moved bytes: %+v", f)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("negative proportional read did not panic")
		}
	}()
	readProportional(t, s, 0, id, -1)
}

func TestReadProportionalManyGPMs(t *testing.T) {
	// More GPMs than pages per GPM: the shares still sum to the volume.
	s := NewSystem(Config{NumGPMs: 20, PageSize: 512, RemoteCacheHitRate: 0})
	id := s.Alloc(KindTexture, 512*20)
	f := readProportional(t, s, 0, id, 2000)
	total := f.LocalBytes + f.RemoteTotal()
	if !nearly(total, 2000) {
		t.Errorf("proportional read conservation broken: %v", total)
	}
}

// Property: ReadProportional conserves the requested volume exactly across
// local and remote shares for any placement.
func TestReadProportionalConservationQuick(t *testing.T) {
	f := func(layout, home uint8, vol uint16) bool {
		s := NewSystem(Config{NumGPMs: 4, PageSize: 256, RemoteCacheHitRate: 0.5})
		id := s.Alloc(KindTexture, 256*8+13) // striped
		switch layout % 3 {
		case 1:
			s.PlacePartitioned(id)
		case 2:
			s.Place(id, GPMID(home%4))
		}
		flow := readProportional(t, s, 1, id, float64(vol))
		return math.Abs(flow.LocalBytes+flow.RemoteTotal()-float64(vol)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func nearly(a, b float64) bool { return math.Abs(a-b) < 1e-6 }
