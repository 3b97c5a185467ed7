// Package mem models the NUMA memory system of the multi-GPU architecture
// in the paper (Section 2.3): one DRAM partition per GPM sharing a single
// address space, page-granular placement, a remote-access cache, and full
// accounting of which bytes moved locally and which crossed inter-GPM
// links.
//
// The simulator works at *segment* granularity: a segment is a logically
// contiguous allocation (a texture, a vertex buffer, a framebuffer
// partition, a command stream). Segments are divided into pages, and every
// page has a home GPM from the moment the segment is allocated: Alloc
// stripes a new segment, and the Place* family re-homes it (the OO-VR
// pre-allocation units use explicit placement, Section 5.2). The paper's
// first-touch policy has no counterpart here, because the simulated driver
// pre-places every allocation before any access.
//
// # Placement layouts
//
// Every placement is one of three layouts, so a segment stores a layout
// descriptor instead of a per-page home array:
//
//   - LayoutUniform: every page homed on one GPM (Place);
//   - LayoutStriped: page i homed on GPM i mod N (Alloc, PlaceStriped);
//   - LayoutPartitioned: N contiguous 1/N shares (PlacePartitioned).
//
// The local/remote byte split of any [offset, n) range is computed in
// closed form over only the GPMs the range overlaps — no page iteration —
// and the Place* family are O(NumGPMs) layout swaps. Each segment also
// caches its home histogram (bytes per GPM), rewritten on every placement,
// so ReadProportional and HomeHistogram never rescan pages.
//
// # The segment table
//
// A segment is a 24-byte record whose id is its index in one table. Its
// per-GPM state lives in System arenas indexed by slot id*NumGPMs+g: the
// home histogram, and one bit each for "g's remote cache is armed for it",
// "g holds a private copy" (Copy) and "g read that copy". The two warmth
// bits are per frame: ResetWarmth, which the execution core calls once at
// each frame start, clears them. Grow sizes every arena once, so Alloc
// and the accesses allocate nothing.
//
// # One pass per access
//
// Every access books its bytes in the same pass that splits them: each
// source GPM's remote share goes into the Traffic account and onto the
// interconnect (the Links the caller passes, link.Fabric in a simulated
// machine) as it is computed, in ascending source order. The access
// returns the requester's local bytes and the time the last remote byte
// arrives; the caller books the local bytes on the requester's DRAM.
//
// All byte counts are integers, accumulated in int64 and converted to
// float64 once per GPM, so the closed forms produce splits byte-identical
// to summing the per-page contributions (integer sums below 2^53 are exact
// in float64). The remote-cache scaling is applied once per source GPM
// instead of once per page; for dyadic hit rates (0.5 is the paper's
// value) the two orders are exactly equal. DESIGN.md §2 states the
// equivalence guarantee; layout_test.go proves it against a per-page
// reference implementation.
package mem

import (
	"fmt"
	"slices"

	"oovr/internal/registry"
	"oovr/internal/sim"
)

// GPMID identifies a GPU module. GPMs are numbered 0..N-1.
type GPMID int

// SegmentID identifies an allocation in the shared address space.
type SegmentID int

// SegmentKind classifies allocations; the traffic report breaks totals down
// by kind so experiments can attribute inter-GPM traffic to textures,
// composition, commands and depth the way Section 6.2 does.
type SegmentKind uint8

const (
	// KindVertex is application-issued vertex/index data.
	KindVertex SegmentKind = iota
	// KindTexture is sampled texture data, the dominant traffic class.
	KindTexture
	// KindFramebuffer is color-output storage.
	KindFramebuffer
	// KindDepth is the Z/stencil surface.
	KindDepth
	// KindCommand is the command/state stream from the driver.
	KindCommand
	numKinds
)

// String returns the kind's short name.
func (k SegmentKind) String() string {
	switch k {
	case KindVertex:
		return "vertex"
	case KindTexture:
		return "texture"
	case KindFramebuffer:
		return "framebuffer"
	case KindDepth:
		return "depth"
	case KindCommand:
		return "command"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Layout identifies how a segment's pages map to home GPMs.
type Layout uint8

const (
	// LayoutUniform homes every page on one GPM.
	LayoutUniform Layout = iota
	// LayoutStriped homes page i on GPM i mod NumGPMs.
	LayoutStriped
	// LayoutPartitioned splits the pages into NumGPMs contiguous shares.
	LayoutPartitioned
)

// String returns the layout's short name.
func (l Layout) String() string {
	switch l {
	case LayoutUniform:
		return "uniform"
	case LayoutStriped:
		return "striped"
	case LayoutPartitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// Segment is one allocation, a 24-byte record; its id is its index in the
// segment table. Its per-GPM state lives in System arenas.
type Segment struct {
	Size   int64
	nPages int
	Kind   SegmentKind
	layout Layout
	home   int32 // LayoutUniform only: the shared home GPM
}

// Pages returns the number of pages in the segment.
func (s *Segment) Pages() int { return s.nPages }

// Layout returns the segment's current placement layout.
func (s *Segment) Layout() Layout { return s.layout }

// Config parameterizes the memory system.
type Config struct {
	NumGPMs  int
	PageSize int64 // bytes per page (the paper's FT policy is page granular)
	// RemoteCacheHitRate is the fraction of *repeated* remote reads that the
	// remote cache scheme of Arunkumar et al. [5] satisfies locally. The
	// paper applies this scheme to its baseline (Section 3) so we do too.
	RemoteCacheHitRate float64
}

// DefaultConfig mirrors the paper's baseline memory setup.
func DefaultConfig(numGPMs int) Config {
	return Config{
		NumGPMs:            numGPMs,
		PageSize:           4096,
		RemoteCacheHitRate: 0.5,
	}
}

// Validate returns an error naming the first field outside its domain.
func (c Config) Validate() error {
	return registry.Check("mem",
		registry.In("NumGPMs", float64(c.NumGPMs), 1, registry.MaxGPMs),
		registry.In("PageSize", float64(c.PageSize), 1, 1e9),
		registry.In("RemoteCacheHitRate", c.RemoteCacheHitRate, 0, 1))
}

// Links carries remote bytes between GPMs: the interconnect an access's
// remote shares cross. Reserve books b > 0 bytes moved from src's DRAM to
// dst, starting at at, and returns the time the last byte arrives.
type Links interface {
	Reserve(at sim.Time, src, dst GPMID, b float64) sim.Time
}

// System is the NUMA memory system.
type System struct {
	cfg      Config
	segments []Segment
	// hists[id*N+g] caches the bytes of segment id homed on GPM g (every
	// placement rewrites them). The bitsets have one bit per such slot:
	// warm is set once g has read segment id since the last ResetWarmth
	// (g's remote cache is armed for it); held is set while g holds a
	// private copy of it (see Copy), and copyWarm once g has read that
	// copy since the last ResetWarmth. A copy is homed entirely on g, so
	// those two bits are all the state its reads consult.
	hists                []int64
	warm, held, copyWarm Bitset
	traffic              *Traffic
	// hist is access's per-GPM byte split of the accessed range, valid in
	// the window rangeHist returns.
	hist []int64
}

// Bitset holds one bit per index, 64 to a word: the per-slot yes/no
// tables of the memory system and of the execution core. clear(b) clears
// every bit.
type Bitset []uint64

// NewBitset returns a clear bitset of n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)>>6) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (i & 63) }

// extend returns b grown in place, zero-filled, to hold n bits: nothing
// sets a bit past the length, so the words it uncovers are zero.
func (b Bitset) extend(n int) Bitset {
	w := (n + 63) >> 6
	return slices.Grow(b, w-len(b))[:w]
}

// reserve returns b with room for n bits, so extending it to n allocates
// nothing.
func (b Bitset) reserve(n int) Bitset {
	return append(make(Bitset, 0, (n+63)>>6), b...)
}

// NewSystem creates a memory system for the given configuration. It
// panics with Validate's error on an invalid one.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &System{
		cfg:     cfg,
		traffic: NewTraffic(cfg.NumGPMs),
		hist:    make([]int64, cfg.NumGPMs),
	}
}

// NumGPMs returns the GPM count.
func (s *System) NumGPMs() int { return s.cfg.NumGPMs }

// Traffic returns the accumulated traffic accounting.
func (s *System) Traffic() *Traffic { return s.traffic }

// Grow reserves room for n more segments, so the next n Allocs allocate
// nothing.
func (s *System) Grow(n int) {
	slots := s.slot(SegmentID(len(s.segments)+n), 0)
	s.segments = append(make([]Segment, 0, len(s.segments)+n), s.segments...)
	s.hists = append(make([]int64, 0, slots), s.hists...)
	s.warm, s.held, s.copyWarm = s.warm.reserve(slots), s.held.reserve(slots), s.copyWarm.reserve(slots)
}

// Alloc creates a new segment, striped across the GPMs: the driver's
// default placement for shared surfaces. O(NumGPMs).
func (s *System) Alloc(kind SegmentKind, size int64) SegmentID {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative size %d", size))
	}
	id := SegmentID(len(s.segments))
	s.segments = append(s.segments, Segment{
		Kind: kind, Size: size,
		nPages: int((size + s.cfg.PageSize - 1) / s.cfg.PageSize),
	})
	// Extended in place: nothing writes past a table's length, so it is zero.
	slots := s.slot(id+1, 0)
	s.hists = slices.Grow(s.hists, s.cfg.NumGPMs)[:slots]
	s.warm, s.held, s.copyWarm = s.warm.extend(slots), s.held.extend(slots), s.copyWarm.extend(slots)
	s.setLayout(id, LayoutStriped, 0)
	return id
}

// Segment returns the segment with the given id. The pointer aliases the
// segment table: it is valid until the next Alloc.
func (s *System) Segment(id SegmentID) *Segment {
	return &s.segments[int(id)]
}

// homeHist returns segment id's N-entry home histogram.
func (s *System) homeHist(id SegmentID) []int64 { return s.hists[s.slot(id, 0):s.slot(id+1, 0)] }

// slot is the index of segment id's GPM g entry in hists and the bitsets.
func (s *System) slot(id SegmentID, g GPMID) int { return int(id)*s.cfg.NumGPMs + int(g) }

// pagesPerPartition returns the ceil(nPages/N) partition stride of the
// partitioned layout.
func (s *System) pagesPerPartition(seg *Segment) int {
	return (seg.nPages + s.cfg.NumGPMs - 1) / s.cfg.NumGPMs
}

// PageHome returns the home GPM of page i of the segment.
func (s *System) PageHome(id SegmentID, i int) GPMID {
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

// NumSegments returns how many segments have been allocated.
func (s *System) NumSegments() int { return len(s.segments) }

// Place assigns every page of the segment to the given GPM, overriding any
// previous placement. This models the OO-VR PA units' pre-allocation and
// the homing of per-GPM buffers. O(NumGPMs).
func (s *System) Place(id SegmentID, gpm GPMID) {
	s.checkGPM(gpm)
	s.setLayout(id, LayoutUniform, gpm)
}

// PlaceStriped distributes the segment's pages round-robin across all GPMs,
// the paper's baseline address mapping for shared surfaces. O(NumGPMs).
func (s *System) PlaceStriped(id SegmentID) {
	s.setLayout(id, LayoutStriped, 0)
}

// PlacePartitioned splits the segment into NumGPMs contiguous ranges, one
// per GPM, the placement the distributed hardware composition unit uses for
// the framebuffer (Section 5.3, Figure 14). O(NumGPMs).
func (s *System) PlacePartitioned(id SegmentID) {
	s.setLayout(id, LayoutPartitioned, 0)
}

// setLayout installs segment id's layout (home is the GPM of
// LayoutUniform) and rewrites its home histogram.
func (s *System) setLayout(id SegmentID, layout Layout, home GPMID) {
	seg, hist := s.Segment(id), s.homeHist(id)
	clear(hist)
	seg.layout, seg.home = layout, int32(home)
	if seg.Size > 0 {
		s.rangeHist(seg, 0, seg.Size, hist)
	}
}

// rangeHist writes into hist the bytes of the range [offset, offset+n),
// n > 0, homed on each GPM of the window [lo, hi] it returns, in closed
// form. Entries outside the window are left as they are; inside it, GPMs
// the range misses (a striped run that wraps) get 0.
func (s *System) rangeHist(seg *Segment, offset, n int64, hist []int64) (lo, hi int) {
	p := s.cfg.PageSize
	ng := s.cfg.NumGPMs
	switch seg.layout {
	case LayoutUniform:
		hist[seg.home] = n
		return int(seg.home), int(seg.home)
	case LayoutStriped:
		first := int(offset / p)
		last := int((offset + n - 1) / p)
		lo, hi = first%ng, last%ng
		if first == last {
			hist[lo] = n
			return lo, hi
		}
		// The m pages strictly inside the range are full: m/ng of them on
		// every GPM, plus one on each GPM of the m%ng run after the first.
		m := last - first - 1
		if m+2 >= ng || lo > hi {
			lo, hi = 0, ng-1
		}
		full := int64(m/ng) * p
		for g := lo; g <= hi; g++ {
			hist[g] = full
		}
		for k := 1; k <= m%ng; k++ {
			hist[(first+k)%ng] += p
		}
		// First page: offset to the page end. Last page: page start to the
		// range end.
		hist[first%ng] += int64(first+1)*p - offset
		hist[last%ng] += offset + n - int64(last)*p
		return lo, hi
	default: // LayoutPartitioned: GPM g's pages are one byte interval
		per := int64(s.pagesPerPartition(seg)) * p
		end := offset + n
		lo, hi = int(offset/per), int((end-1)/per)
		for g := lo; g <= hi; g++ {
			hist[g] = min(int64(g+1)*per, end) - max(int64(g)*per, offset)
		}
		return lo, hi
	}
}

// Read models gpm reading n bytes starting at offset within the segment,
// issued at time at. Each source GPM's remote bytes are booked on l as the
// split computes them; Read returns the bytes served locally and the time
// the last remote byte arrives (at when none crossed a link). The remote
// cache absorbs RemoteCacheHitRate of remote bytes when this GPM has read
// the segment before.
func (s *System) Read(gpm GPMID, id SegmentID, offset, n int64, l Links, at sim.Time) (local float64, arrive sim.Time) {
	return s.access(gpm, id, offset, n, true, l, at)
}

// Write models gpm writing n bytes starting at offset, booked as Read
// books. Writes are never absorbed by the remote cache (it is a read
// cache).
func (s *System) Write(gpm GPMID, id SegmentID, offset, n int64, l Links, at sim.Time) (local float64, arrive sim.Time) {
	return s.access(gpm, id, offset, n, false, l, at)
}

// allLocal records and returns an access served entirely from the
// requester's DRAM: no remote part to split.
func (s *System) allLocal(gpm GPMID, local float64) float64 {
	s.traffic.local[gpm] += local
	return local
}

// remote books b bytes of a kind moved from src's DRAM to dst: in the
// traffic account and on l, starting at at. It returns when they arrive;
// a zero b moves nothing and arrives at at.
func (s *System) remote(src, dst GPMID, kind SegmentKind, b float64, l Links, at sim.Time) sim.Time {
	if b == 0 {
		return at
	}
	s.traffic.link[src][dst] += b
	s.traffic.kindRemote[kind] += b
	return l.Reserve(at, src, dst, b)
}

// checkRange panics unless [offset, offset+n) lies inside segment id.
func checkRange(id SegmentID, seg *Segment, offset, n int64) {
	if offset < 0 || n < 0 || offset+n > seg.Size {
		panic(fmt.Sprintf("mem: access [%d,%d) outside segment %d of size %d", offset, offset+n, id, seg.Size))
	}
}

func (s *System) access(gpm GPMID, id SegmentID, offset, n int64, isRead bool, l Links, at sim.Time) (local float64, arrive sim.Time) {
	s.checkGPM(gpm)
	seg := s.Segment(id)
	checkRange(id, seg, offset, n)
	if n == 0 {
		return 0, at
	}
	slot := s.slot(id, gpm)
	if seg.layout == LayoutUniform && GPMID(seg.home) == gpm {
		// All-local: every byte is homed on the requester, so the split is
		// the access length.
		if isRead {
			s.warm.Set(slot)
		}
		return s.allLocal(gpm, float64(n)), at
	}
	warm := isRead && s.warm.Has(slot)
	arrive = at
	// Split the range's bytes by home GPM, in closed form, and book each
	// source's share as it is computed, in ascending source order.
	hist := s.hist
	lo, hi := s.rangeHist(seg, offset, n, hist)
	for h := lo; h <= hi; h++ {
		bytes := float64(hist[h])
		if bytes == 0 {
			continue
		}
		if GPMID(h) == gpm {
			local += bytes
			continue
		}
		remote := bytes
		if warm {
			hit := remote * s.cfg.RemoteCacheHitRate
			local += hit // served from the local remote-cache copy
			remote -= hit
		}
		if t := s.remote(GPMID(h), gpm, seg.Kind, remote, l, at); t > arrive {
			arrive = t
		}
	}
	if isRead {
		s.warm.Set(slot)
	}
	s.traffic.local[gpm] += local
	return local, arrive
}

// ReadProportional models link-level traffic of `bytes` bytes of reads
// spread across the whole segment, bypassing the remote cache: the request
// volume is distributed over the segment's page homes proportionally to the
// bytes homed there. This is how the single-programming-model baseline's
// shared striped L2 behaves — every texture sample travels to the L2 slice
// that owns the address, hit or miss, so the link traffic is proportional
// to the sample volume, not to the DRAM miss volume. The volume may exceed
// the segment size (the same texels are fetched again and again). It books
// and returns as Read does.
func (s *System) ReadProportional(gpm GPMID, id SegmentID, bytes float64, l Links, at sim.Time) (local float64, arrive sim.Time) {
	s.checkGPM(gpm)
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative proportional read %v", bytes))
	}
	seg := s.Segment(id)
	if bytes == 0 || seg.Size == 0 {
		return s.allLocal(gpm, 0), at
	}
	if seg.layout == LayoutUniform && GPMID(seg.home) == gpm {
		// All-local. The share is still computed as the general path does:
		// bytes*Size/Size is not always bytes in float64.
		return s.allLocal(gpm, bytes*float64(s.homeHist(id)[gpm])/float64(seg.Size)), at
	}
	arrive = at
	// Split the volume by the cached home byte shares.
	for h, b := range s.homeHist(id) {
		if b == 0 {
			continue
		}
		share := bytes * float64(b) / float64(seg.Size)
		if GPMID(h) == gpm {
			local += share
		} else if t := s.remote(GPMID(h), gpm, seg.Kind, share, l, at); t > arrive {
			arrive = t
		}
	}
	s.traffic.local[gpm] += local
	return local, arrive
}

// ResetWarmth clears every GPM's touched sets: caches do not survive a
// frame boundary (the per-GPM L2 is far smaller than a frame's streaming
// working set), so schedulers call this at frame start and every texture is
// re-streamed cold each frame — the steady-state behaviour of a real GPU.
// It clears the warm and copyWarm bitsets, one word per 64 slots.
func (s *System) ResetWarmth() {
	clear(s.warm)
	clear(s.copyWarm)
}

// Touched reports whether the GPM has read the segment before (remote cache
// warm).
func (s *System) Touched(gpm GPMID, id SegmentID) bool {
	s.checkGPM(gpm)
	return s.warm.Has(s.slot(id, gpm))
}

// Copy registers GPM g's private copy of segment id: a replica homed
// entirely in g's DRAM, such as AFR's per-GPM memory spaces or a
// framework's shipped working set. The copy is no segment of its own;
// ReadCopy, ReadCopyProportional and CopyTouched read it, always
// all-local. Copy is idempotent and reports whether the copy is new.
func (s *System) Copy(id SegmentID, g GPMID) bool {
	s.checkGPM(g)
	if s.HasCopy(g, id) {
		return false
	}
	s.held.Set(s.slot(id, g))
	return true
}

// HasCopy reports whether GPM g holds a copy of segment id (see Copy); a
// GPM out of range holds none. It is small enough to inline into the
// per-texture paths that call it.
func (s *System) HasCopy(g GPMID, id SegmentID) bool {
	return uint(g) < uint(s.cfg.NumGPMs) && s.held.Has(s.slot(id, g))
}

// copySlot returns the slot of g's copy of id and panics when g holds no
// copy of it.
func (s *System) copySlot(g GPMID, id SegmentID) int {
	slot := s.slot(id, g)
	if uint(g) >= uint(s.cfg.NumGPMs) || !s.held.Has(slot) {
		panic("mem: read of a copy that was never registered")
	}
	return slot
}

// ReadCopy is Read on GPM g's copy of the segment: the local bytes a
// segment homed entirely on g would give. Nothing crosses a link.
func (s *System) ReadCopy(g GPMID, id SegmentID, offset, n int64) float64 {
	slot := s.copySlot(g, id)
	checkRange(id, s.Segment(id), offset, n)
	if n == 0 {
		return 0
	}
	s.copyWarm.Set(slot)
	return s.allLocal(g, float64(n))
}

// ReadCopyProportional is ReadProportional on GPM g's copy of the segment:
// the all-local share bytes*Size/Size.
func (s *System) ReadCopyProportional(g GPMID, id SegmentID, bytes float64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative proportional read %v", bytes))
	}
	s.copySlot(g, id) // panics unless g holds a copy
	seg := s.Segment(id)
	if bytes == 0 || seg.Size == 0 {
		return s.allLocal(g, 0)
	}
	return s.allLocal(g, bytes*float64(seg.Size)/float64(seg.Size)) // not always bytes
}

// CopyTouched is Touched on GPM g's copy of the segment.
func (s *System) CopyTouched(g GPMID, id SegmentID) bool {
	return s.copyWarm.Has(s.copySlot(g, id))
}

// HomeHistogram returns, for the given segment, how many bytes are homed on
// each GPM.
func (s *System) HomeHistogram(id SegmentID) []int64 {
	return append([]int64(nil), s.homeHist(id)...)
}

func (s *System) checkGPM(g GPMID) {
	if g < 0 || int(g) >= s.cfg.NumGPMs {
		panic(fmt.Sprintf("mem: GPM %d out of range [0,%d)", g, s.cfg.NumGPMs))
	}
}
