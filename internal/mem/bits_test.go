package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBitsetsMatchTheEpochReference drives random sequences of Alloc,
// Place*, Read, Write, ReadProportional, Copy, ReadCopy,
// ReadCopyProportional and ResetWarmth through the System, whose warmth,
// copy residency and copy warmth are bitsets, and through the per-page
// reference, which keeps them as the epoch-stamp tables the bitsets
// replaced. After every step Touched, HasCopy and CopyTouched must agree
// on every (segment, GPM) pair, and every access's local bytes, arrival
// and the Traffic account must be identical. At 1, 4, 16 and 64 GPMs the
// segments' slots cross 64-bit word boundaries at different places.
func TestBitsetsMatchTheEpochReference(t *testing.T) {
	for _, ng := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprint(ng), func(t *testing.T) {
			cfg := Config{NumGPMs: ng, PageSize: 256, RemoteCacheHitRate: 0.5}
			sys, ref := NewSystem(cfg), newPageRef(cfg)
			rng := rand.New(rand.NewSource(int64(ng)))
			sizes := []int64{0, 100, 256, 256 * 7, 256*31 + 13, 256 * 64}
			alloc := func() {
				kind, size := SegmentKind(rng.Intn(int(numKinds))), sizes[rng.Intn(len(sizes))]
				if id, rid := sys.Alloc(kind, size), ref.alloc(kind, size); int(id) != rid {
					t.Fatalf("Alloc returned %d, reference %d", id, rid)
				}
			}
			alloc()
			for step := 0; step < 1500; step++ {
				if rng.Intn(15) == 0 && sys.NumSegments() < 90 {
					alloc()
				}
				id := SegmentID(rng.Intn(sys.NumSegments()))
				g := GPMID(rng.Intn(ng))
				size := sys.Segment(id).Size
				var off, n int64
				if size > 0 {
					off = rng.Int63n(size)
					n = rng.Int63n(size - off + 1)
				}
				vol := float64(rng.Intn(1 << 16))
				var got, want Flow
				op := rng.Intn(12)
				switch op {
				case 0:
					sys.Place(id, g)
					ref.place(int(id), g)
				case 1:
					sys.PlaceStriped(id)
					ref.placeStriped(int(id))
				case 2:
					sys.PlacePartitioned(id)
					ref.placePartitioned(int(id))
				case 3:
					sys.ResetWarmth()
					ref.resetWarmth()
				case 4, 5, 6: // register the copy (if new), then read it
					if got, want := sys.Copy(id, g), ref.copy(int(id), g); got != want {
						t.Fatalf("step %d: Copy(%d, %d) = %v, reference %v", step, id, g, got, want)
					}
					if op == 5 {
						got = copyFlow(sys, g, id, sys.ReadCopy(g, id, off, n))
						want = ref.readCopy(g, int(id), n)
					} else if op == 6 {
						got = copyFlow(sys, g, id, sys.ReadCopyProportional(g, id, vol))
						want = ref.readCopyProportional(g, int(id), vol)
					}
				case 7:
					got = readProportional(t, sys, g, id, vol)
					want = ref.readProportional(g, int(id), vol)
				case 8:
					got = write(t, sys, g, id, off, n)
					want = ref.access(g, int(id), off, n, false)
				default:
					got = read(t, sys, g, id, off, n)
					want = ref.access(g, int(id), off, n, true)
				}
				// read, write and readProportional fail unless the access
				// returned the latest arrival of the bookings it made, so
				// equal flows mean equal (local, arrive) pairs.
				if !flowsEqual(got, want) {
					t.Fatalf("step %d op %d (GPM %d, segment %d): flow %+v, reference %+v", step, op, g, id, got, want)
				}
				if !trafficEqual(sys.Traffic(), ref.traffic, ng) {
					t.Fatalf("step %d op %d: traffic %+v, reference %+v", step, op, sys.Traffic(), ref.traffic)
				}
				for id := range SegmentID(sys.NumSegments()) {
					for g := range GPMID(ng) {
						held := sys.HasCopy(g, id)
						if sys.Touched(g, id) != ref.touched(g, int(id)) || held != ref.hasCopy(g, int(id)) ||
							held && sys.CopyTouched(g, id) != ref.copyTouched(g, int(id)) {
							t.Fatalf("step %d op %d: segment %d GPM %d: touched %v, holds %v; reference %v, %v",
								step, op, id, g, sys.Touched(g, id), held, ref.touched(g, int(id)), ref.hasCopy(g, int(id)))
						}
					}
				}
			}
		})
	}
}
