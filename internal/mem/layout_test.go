package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// pageRefSystem is the seed's per-page reference implementation of the
// memory model: every page's home is stored in a []GPMID walked on each
// access. The analytic layout representation must produce byte-identical
// Flows against it for every operation sequence (the configs under test use
// dyadic RemoteCacheHitRate values, for which the per-page and per-GPM
// orderings of the cache arithmetic are exactly equal).
//
// Its warmth and copy residency are the epoch-stamp tables the System's
// bitsets replaced: warmth[id*N+g] is the epoch of g's last read of
// segment id, and copies[g][id] is 0 while g holds no copy of id,
// otherwise copyCold until g reads the copy and then the epoch of g's last
// read. A stamp equal to epoch is warm; resetWarmth bumps epoch.
type pageRefSystem struct {
	cfg     Config
	pages   [][]GPMID
	sizes   []int64
	kinds   []SegmentKind
	warmth  []uint64
	copies  [][]uint64
	epoch   uint64
	traffic *Traffic
}

// pageHome is the home GPM of page i of segment id as its layout
// defines it: what the reference stores per page.
func (s *System) pageHome(id SegmentID, i int) GPMID {
	seg := s.Segment(id)
	switch seg.layout {
	case LayoutUniform:
		return GPMID(seg.home)
	case LayoutStriped:
		return GPMID(i % s.cfg.NumGPMs)
	default: // LayoutPartitioned
		return GPMID(i / s.pagesPerPartition(seg))
	}
}

// placeStriped re-stripes segment id across all GPMs, as Alloc homes it.
func (s *System) placeStriped(id SegmentID) { s.setLayout(id, LayoutStriped, 0) }

// copyCold is the stamp of a registered copy no read has warmed yet;
// epochs start above it.
const copyCold = 1

func newPageRef(cfg Config) *pageRefSystem {
	return &pageRefSystem{cfg: cfg, copies: make([][]uint64, cfg.NumGPMs), epoch: copyCold + 1, traffic: NewTraffic(cfg.NumGPMs)}
}

// record books a returned flow into the reference's traffic account as a
// separate pass over the flow: local bytes, then each non-zero source in
// ascending order.
func (r *pageRefSystem) record(f Flow) Flow {
	t := r.traffic
	t.local[f.Requester] += f.LocalBytes
	for src, b := range f.RemoteBySrc {
		if b == 0 {
			continue
		}
		t.link[src][f.Requester] += b
		t.kindRemote[f.Kind] += b
	}
	return f
}

// alloc homes the new segment's pages striped, page by page.
func (r *pageRefSystem) alloc(kind SegmentKind, size int64) int {
	n := int((size + r.cfg.PageSize - 1) / r.cfg.PageSize)
	r.pages = append(r.pages, make([]GPMID, n))
	r.sizes = append(r.sizes, size)
	r.kinds = append(r.kinds, kind)
	r.warmth = append(r.warmth, make([]uint64, r.cfg.NumGPMs)...)
	for g := range r.copies {
		r.copies[g] = append(r.copies[g], 0)
	}
	id := len(r.pages) - 1
	for p := range r.pages[id] {
		r.pages[id][p] = GPMID(p % r.cfg.NumGPMs)
	}
	return id
}

func (r *pageRefSystem) pageBytes(id, p int) int64 {
	if p < len(r.pages[id])-1 {
		return r.cfg.PageSize
	}
	rem := r.sizes[id] - int64(p)*r.cfg.PageSize
	if rem < 0 {
		rem = 0
	}
	return rem
}

func (r *pageRefSystem) rehome(id, p int, g GPMID) { r.pages[id][p] = g }

func (r *pageRefSystem) place(id int, g GPMID) {
	for p := range r.pages[id] {
		r.rehome(id, p, g)
	}
}

func (r *pageRefSystem) placeStriped(id int) {
	for p := range r.pages[id] {
		r.rehome(id, p, GPMID(p%r.cfg.NumGPMs))
	}
}

func (r *pageRefSystem) placePartitioned(id int) {
	n := len(r.pages[id])
	if n == 0 {
		return
	}
	per := (n + r.cfg.NumGPMs - 1) / r.cfg.NumGPMs
	for p := range r.pages[id] {
		r.rehome(id, p, GPMID(p/per))
	}
}

func (r *pageRefSystem) access(gpm GPMID, id int, offset, n int64, isRead bool) Flow {
	flow := Flow{Requester: gpm, RemoteBySrc: make([]float64, r.cfg.NumGPMs), Kind: r.kinds[id]}
	if n == 0 {
		return flow
	}
	slot := id*r.cfg.NumGPMs + int(gpm)
	warm := r.warmth[slot] == r.epoch
	first := int(offset / r.cfg.PageSize)
	last := int((offset + n - 1) / r.cfg.PageSize)
	for p := first; p <= last; p++ {
		pStart := int64(p) * r.cfg.PageSize
		pEnd := pStart + r.pageBytes(id, p)
		aStart, aEnd := offset, offset+n
		if pStart > aStart {
			aStart = pStart
		}
		if pEnd < aEnd {
			aEnd = pEnd
		}
		bytes := float64(aEnd - aStart)
		home := r.pages[id][p]
		if home == gpm {
			flow.LocalBytes += bytes
			continue
		}
		remote := bytes
		if isRead && warm {
			hit := remote * r.cfg.RemoteCacheHitRate
			flow.LocalBytes += hit
			remote -= hit
		}
		flow.RemoteBySrc[home] += remote
	}
	if isRead {
		r.warmth[slot] = r.epoch
	}
	return r.record(flow)
}

func (r *pageRefSystem) readProportional(gpm GPMID, id int, bytes float64) Flow {
	flow := Flow{Requester: gpm, RemoteBySrc: make([]float64, r.cfg.NumGPMs), Kind: r.kinds[id]}
	if bytes == 0 || r.sizes[id] == 0 {
		return flow
	}
	homes := make([]int64, r.cfg.NumGPMs)
	for p := range r.pages[id] {
		homes[r.pages[id][p]] += r.pageBytes(id, p)
	}
	for h, b := range homes {
		if b == 0 {
			continue
		}
		share := bytes * float64(b) / float64(r.sizes[id])
		if GPMID(h) == gpm {
			flow.LocalBytes += share
		} else {
			flow.RemoteBySrc[h] += share
		}
	}
	return r.record(flow)
}

func (r *pageRefSystem) resetWarmth() { r.epoch++ }

func (r *pageRefSystem) touched(g GPMID, id int) bool {
	return r.warmth[id*r.cfg.NumGPMs+int(g)] == r.epoch
}

// copy registers g's copy of id and reports whether it is new.
func (r *pageRefSystem) copy(id int, g GPMID) bool {
	if r.hasCopy(g, id) {
		return false
	}
	r.copies[g][id] = copyCold
	return true
}

func (r *pageRefSystem) hasCopy(g GPMID, id int) bool { return r.copies[g][id] != 0 }

func (r *pageRefSystem) copyTouched(g GPMID, id int) bool { return r.copies[g][id] == r.epoch }

// readCopy and readCopyProportional read g's copy of id: all local.
func (r *pageRefSystem) readCopy(g GPMID, id int, n int64) Flow {
	if n > 0 {
		r.copies[g][id] = r.epoch
	}
	return r.record(Flow{Requester: g, LocalBytes: float64(n), Kind: r.kinds[id]})
}

func (r *pageRefSystem) readCopyProportional(g GPMID, id int, bytes float64) Flow {
	f := Flow{Requester: g, Kind: r.kinds[id]}
	if size := float64(r.sizes[id]); bytes > 0 && size > 0 {
		f.LocalBytes = bytes * size / size
	}
	return r.record(f)
}

func (r *pageRefSystem) homeHistogram(id int) []int64 {
	hist := make([]int64, r.cfg.NumGPMs)
	for p := range r.pages[id] {
		hist[r.pages[id][p]] += r.pageBytes(id, p)
	}
	return hist
}

// flowsEqual requires exact (==) equality of every field. A nil
// RemoteBySrc (an all-local flow) equals a vector of zeros.
func flowsEqual(a, b Flow) bool {
	if a.Requester != b.Requester || a.Kind != b.Kind || a.LocalBytes != b.LocalBytes {
		return false
	}
	ar, br := a.RemoteBySrc, b.RemoteBySrc
	if ar == nil {
		ar = make([]float64, len(br))
	}
	if br == nil {
		br = make([]float64, len(ar))
	}
	return slices.Equal(ar, br)
}

// trafficEqual requires exact (==) equality of the two accounts' local
// total, every GPM pair's bytes and every kind's remote bytes.
func trafficEqual(a, b *Traffic, ng int) bool {
	if a.TotalLocal() != b.TotalLocal() {
		return false
	}
	for src := GPMID(0); src < GPMID(ng); src++ {
		for dst := GPMID(0); dst < GPMID(ng); dst++ {
			if a.LinkBytes(src, dst) != b.LinkBytes(src, dst) {
				return false
			}
		}
	}
	for k := SegmentKind(0); k < numKinds; k++ {
		if a.RemoteByKind(k) != b.RemoteByKind(k) {
			return false
		}
	}
	return true
}

// TestLayoutEquivalenceProperty drives randomized operation sequences
// against the analytic-layout System and the per-page reference, asserting
// byte-identical Flows, Traffic accounts and final state for every
// operation. The reference books each flow after the fact, so this also
// pins that the System's in-split booking adds the same values in the same
// order. This is the correctness gate of the layout rewrite.
func TestLayoutEquivalenceProperty(t *testing.T) {
	// Dyadic hit rates: exactly representable, multiplication is exact, so
	// per-page and per-GPM cache arithmetic agree bit-for-bit.
	rates := []float64{0, 0.25, 0.5, 1}
	gpmCounts := []int{1, 2, 4, 7, 20}
	for trial := 0; trial < 40; trial++ {
		rate := rates[trial%len(rates)]
		ng := gpmCounts[trial%len(gpmCounts)]
		cfg := Config{NumGPMs: ng, PageSize: 256, RemoteCacheHitRate: rate}
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		sys := NewSystem(cfg)
		ref := newPageRef(cfg)

		sizes := []int64{0, 100, 256, 256 * 7, 256*31 + 13, 256 * 64}
		var ids []SegmentID
		for _, size := range sizes {
			id := sys.Alloc(KindTexture, size)
			rid := ref.alloc(KindTexture, size)
			if int(id) != rid {
				t.Fatalf("id mismatch %d vs %d", id, rid)
			}
			ids = append(ids, id)
		}
		// State must agree everywhere: page homes, home histograms (the
		// bytes each GPM's DRAM holds of the segment), and warmth.
		checkState := func(when string) {
			t.Helper()
			for _, id := range ids {
				seg := sys.Segment(id)
				for p := 0; p < seg.nPages; p++ {
					if sys.pageHome(id, p) != ref.pages[int(id)][p] {
						t.Fatalf("trial %d %s: seg %d page %d home %d != ref %d (layout=%v)",
							trial, when, id, p, sys.pageHome(id, p), ref.pages[int(id)][p], seg.Layout())
					}
				}
				gotHist := sys.homeHist(id)
				wantHist := ref.homeHistogram(int(id))
				if len(gotHist) != len(wantHist) {
					t.Fatalf("trial %d %s: seg %d hist has %d entries, want %d", trial, when, id, len(gotHist), len(wantHist))
				}
				for i := range wantHist {
					if gotHist[i] != wantHist[i] {
						t.Fatalf("trial %d %s: seg %d hist[%d] = %d, want %d", trial, when, id, i, gotHist[i], wantHist[i])
					}
				}
				for g := 0; g < ng; g++ {
					if sys.Touched(GPMID(g), id) != ref.touched(GPMID(g), int(id)) {
						t.Fatalf("trial %d %s: seg %d touched[%d] mismatch", trial, when, id, g)
					}
				}
			}
		}
		checkState("after Alloc")

		for step := 0; step < 400; step++ {
			id := ids[rng.Intn(len(ids))]
			g := GPMID(rng.Intn(ng))
			size := sizes[int(id)]
			var got, want Flow
			op := rng.Intn(8)
			switch op {
			case 0:
				sys.Place(id, g)
				ref.place(int(id), g)
			case 1:
				sys.placeStriped(id)
				ref.placeStriped(int(id))
			case 2:
				sys.PlacePartitioned(id)
				ref.placePartitioned(int(id))
			case 3:
				vol := float64(rng.Intn(1 << 20))
				got = readProportional(t, sys, g, id, vol)
				want = ref.readProportional(g, int(id), vol)
			case 4:
				sys.ResetWarmth()
				ref.resetWarmth()
			default: // reads and writes dominate the mix, as in real runs
				var off, n int64
				if size > 0 {
					off = rng.Int63n(size)
					n = rng.Int63n(size - off + 1)
				}
				isRead := rng.Intn(3) > 0
				if isRead {
					got = read(t, sys, g, id, off, n)
					want = ref.access(g, int(id), off, n, true)
				} else {
					got = write(t, sys, g, id, off, n)
					want = ref.access(g, int(id), off, n, false)
				}
			}
			if !flowsEqual(got, want) {
				t.Fatalf("trial %d step %d op %d (rate=%v ng=%d): flow mismatch\n got %+v\nwant %+v\nlayout=%v",
					trial, step, op, rate, ng, got, want, sys.Segment(id).Layout())
			}
			if !trafficEqual(sys.Traffic(), ref.traffic, ng) {
				t.Fatalf("trial %d step %d op %d (rate=%v ng=%d): traffic mismatch\n got %+v\nwant %+v",
					trial, step, op, rate, ng, sys.Traffic(), ref.traffic)
			}
		}

		checkState("after the last step")
	}
}

// TestAnalyticLayoutsStayAnalytic pins the layout each placement installs
// and that accesses never change it: a fresh segment is striped, and reads
// and proportional reads leave every layout as placed.
func TestAnalyticLayoutsStayAnalytic(t *testing.T) {
	s := NewSystem(Config{NumGPMs: 4, PageSize: 4096, RemoteCacheHitRate: 0.5})
	id := s.Alloc(KindTexture, 4096*1000)
	if got := s.Segment(id).Layout(); got != LayoutStriped {
		t.Fatalf("fresh segment layout = %v, want striped", got)
	}
	read(t, s, 1, id, 123, 4096*700)
	readProportional(t, s, 2, id, 1e9)
	if got := s.Segment(id).Layout(); got != LayoutStriped {
		t.Fatalf("layout after striped reads = %v, want striped", got)
	}
	s.PlacePartitioned(id)
	read(t, s, 3, id, 4096*200, 4096*600)
	if got := s.Segment(id).Layout(); got != LayoutPartitioned {
		t.Fatalf("layout after partitioned reads = %v, want partitioned", got)
	}
	s.Place(id, 2)
	read(t, s, 3, id, 0, 4096*1000)
	if got := s.Segment(id).Layout(); got != LayoutUniform {
		t.Fatalf("layout after uniform reads = %v, want uniform", got)
	}
}
