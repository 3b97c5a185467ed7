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
//   - LayoutUniform: every page homed on one GPM (Place, Duplicate);
//   - LayoutStriped: page i homed on GPM i mod N (Alloc, PlaceStriped);
//   - LayoutPartitioned: N contiguous 1/N shares (PlacePartitioned).
//
// The local/remote byte split of any [offset, n) range is computed in
// closed form over only the GPMs the range overlaps — no page iteration —
// and the Place* family are O(NumGPMs) layout swaps. Each segment also
// caches its home histogram (bytes per GPM), rewritten on every placement,
// so ReadProportional, Duplicate and HomeHistogram never rescan pages.
// Every access books its bytes into the Traffic account in the same pass
// that splits them.
//
// All byte counts are integers, accumulated in int64 and converted to
// float64 once per GPM, so the closed forms produce Flows byte-identical
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
)

// GPMID identifies a GPU module. GPMs are numbered 0..N-1.
type GPMID int

// SegmentID identifies an allocation in the shared address space.
type SegmentID int

// SegmentKind classifies allocations; the traffic report breaks totals down
// by kind so experiments can attribute inter-GPM traffic to textures,
// composition, commands and depth the way Section 6.2 does.
type SegmentKind int

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
type Layout int

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

// Segment is one allocation. Its per-GPM state lives in System arenas.
type Segment struct {
	ID   SegmentID
	Kind SegmentKind
	// Name labels the segment in panic messages. It need not be unique.
	Name string
	Size int64

	nPages int
	layout Layout
	home   GPMID // LayoutUniform only: the shared home
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

// Flow describes where the bytes of one access went. RemoteBySrc[g] is the
// number of bytes that crossed the link from GPM g's DRAM to the requester.
// A nil RemoteBySrc means every byte was local: the access crossed no link.
//
// A non-nil RemoteBySrc aliases one scratch vector owned by the System, so
// it is valid only until the next access on the same System, and must
// never be written. The production consumer (fabric reservation) reads the
// flow immediately; callers that need to hold one across accesses must
// copy it.
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

// System is the NUMA memory system.
type System struct {
	cfg      Config
	segments []Segment
	// hists[id*N+g] caches the bytes of segment id homed on GPM g (every
	// placement rewrites them); warmth[id*N+g] is the epoch of g's last read.
	hists  []int64
	warmth []uint64
	// epoch is the warmth epoch: a segment's warmth entry matching it means
	// the GPM's remote cache is armed for the segment. ResetWarmth bumps it
	// instead of clearing per-GPM state. It starts above copyCold.
	epoch uint64
	// copies[g][id] is GPM g's private copy of segment id (see Copy): 0
	// when g holds none, otherwise the copy's warmth stamp — copyCold until
	// g first reads it, then the epoch of g's last read. A copy is homed
	// entirely on g, so this stamp is all the state its reads consult.
	copies  [][]uint64
	traffic *Traffic
	dramUse []int64 // bytes homed per GPM (capacity accounting)
	// remote is the RemoteBySrc of every Flow with remote bytes (see Flow).
	remote []float64
	// hist is access's per-GPM byte split of the accessed range, valid in
	// the window rangeHist returns.
	hist []int64
}

// NewSystem creates a memory system for the given configuration. It
// panics with Validate's error on an invalid one.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &System{
		cfg:     cfg,
		epoch:   copyCold + 1,
		copies:  make([][]uint64, cfg.NumGPMs),
		traffic: NewTraffic(cfg.NumGPMs),
		dramUse: make([]int64, cfg.NumGPMs),
		remote:  make([]float64, cfg.NumGPMs),
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
	s.segments = append(make([]Segment, 0, len(s.segments)+n), s.segments...)
	s.hists = append(make([]int64, 0, len(s.hists)+n*s.cfg.NumGPMs), s.hists...)
	s.warmth = append(make([]uint64, 0, len(s.warmth)+n*s.cfg.NumGPMs), s.warmth...)
}

// Alloc creates a new segment, striped across the GPMs: the driver's
// default placement for shared surfaces. O(NumGPMs).
func (s *System) Alloc(kind SegmentKind, name string, size int64) SegmentID {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative size %d for %q", size, name))
	}
	id := SegmentID(len(s.segments))
	s.segments = append(s.segments, Segment{
		ID: id, Kind: kind, Name: name, Size: size,
		nPages: int((size + s.cfg.PageSize - 1) / s.cfg.PageSize),
	})
	// Extended in place: nothing writes past a table's length, so it is zero.
	s.hists = slices.Grow(s.hists, s.cfg.NumGPMs)[:s.slot(id+1, 0)]
	s.warmth = slices.Grow(s.warmth, s.cfg.NumGPMs)[:s.slot(id+1, 0)]
	s.setLayout(&s.segments[id], LayoutStriped, 0)
	return id
}

// Segment returns the segment with the given id. The pointer aliases the
// segment table: it is valid until the next Alloc.
func (s *System) Segment(id SegmentID) *Segment {
	return &s.segments[int(id)]
}

// homeHist returns segment id's N-entry home histogram.
func (s *System) homeHist(id SegmentID) []int64 { return s.hists[s.slot(id, 0):s.slot(id+1, 0)] }

// slot is the index of segment id's GPM g entry in hists and warmth.
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
		return seg.home
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
	s.setLayout(s.Segment(id), LayoutUniform, gpm)
}

// PlaceStriped distributes the segment's pages round-robin across all GPMs,
// the paper's baseline address mapping for shared surfaces. O(NumGPMs).
func (s *System) PlaceStriped(id SegmentID) {
	s.setLayout(s.Segment(id), LayoutStriped, 0)
}

// PlacePartitioned splits the segment into NumGPMs contiguous ranges, one
// per GPM, the placement the distributed hardware composition unit uses for
// the framebuffer (Section 5.3, Figure 14). O(NumGPMs).
func (s *System) PlacePartitioned(id SegmentID) {
	s.setLayout(s.Segment(id), LayoutPartitioned, 0)
}

// setLayout installs a layout (home is the GPM of LayoutUniform) and
// rewrites the segment's home histogram, moving the per-GPM DRAM capacity
// accounting from the old homes to the new ones.
func (s *System) setLayout(seg *Segment, layout Layout, home GPMID) {
	hist := s.homeHist(seg.ID)
	for g, b := range hist {
		s.dramUse[g] -= b
	}
	clear(hist)
	seg.layout, seg.home = layout, home
	if seg.Size > 0 {
		s.rangeHist(seg, 0, seg.Size, hist)
	}
	for g, b := range hist {
		s.dramUse[g] += b
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

// DRAMUsed returns the bytes homed on the given GPM.
func (s *System) DRAMUsed(gpm GPMID) int64 {
	s.checkGPM(gpm)
	return s.dramUse[gpm]
}

// HomedBytes returns how many bytes of the segment are homed on the GPM,
// without allocating (the histogram is cached).
func (s *System) HomedBytes(id SegmentID, gpm GPMID) int64 {
	s.checkGPM(gpm)
	return s.homeHist(id)[gpm]
}

// Read models gpm reading n bytes starting at offset within the segment.
// The returned Flow says how many bytes were local and how many crossed
// each link. The remote cache absorbs RemoteCacheHitRate of remote bytes
// when this GPM has read the segment before.
func (s *System) Read(gpm GPMID, id SegmentID, offset, n int64) Flow {
	return s.access(gpm, id, offset, n, true)
}

// ReadAll reads the entire segment.
func (s *System) ReadAll(gpm GPMID, id SegmentID) Flow {
	return s.Read(gpm, id, 0, s.Segment(id).Size)
}

// Write models gpm writing n bytes starting at offset. Writes are never
// absorbed by the remote cache (it is a read cache).
func (s *System) Write(gpm GPMID, id SegmentID, offset, n int64) Flow {
	return s.access(gpm, id, offset, n, false)
}

// allLocal records and returns an access served entirely from the
// requester's DRAM: no remote part to split.
func (s *System) allLocal(gpm GPMID, kind SegmentKind, local float64) Flow {
	s.traffic.local[gpm] += local
	return Flow{Requester: gpm, LocalBytes: local, Kind: kind}
}

// addRemote books b bytes moved from src's DRAM to the flow's requester,
// on the flow and in the traffic account; a zero b moves nothing. The
// first remote byte of a flow gives it the System's zeroed scratch.
func (s *System) addRemote(f *Flow, src GPMID, b float64) {
	if b == 0 {
		return
	}
	if f.RemoteBySrc == nil {
		clear(s.remote)
		f.RemoteBySrc = s.remote
	}
	f.RemoteBySrc[src] = b
	s.traffic.link[src][f.Requester] += b
	s.traffic.kindRemote[f.Kind] += b
}

// checkRange panics unless [offset, offset+n) lies inside the segment.
func checkRange(seg *Segment, offset, n int64) {
	if offset < 0 || n < 0 || offset+n > seg.Size {
		panic(fmt.Sprintf("mem: access [%d,%d) outside segment %d %q of size %d", offset, offset+n, seg.ID, seg.Name, seg.Size))
	}
}

func (s *System) access(gpm GPMID, id SegmentID, offset, n int64, isRead bool) Flow {
	s.checkGPM(gpm)
	seg := s.Segment(id)
	checkRange(seg, offset, n)
	if n == 0 {
		return Flow{Requester: gpm, Kind: seg.Kind}
	}
	if seg.layout == LayoutUniform && seg.home == gpm {
		// All-local: every byte is homed on the requester, so the flow is
		// the access length.
		if isRead {
			s.warmth[s.slot(id, gpm)] = s.epoch
		}
		return s.allLocal(gpm, seg.Kind, float64(n))
	}
	warm := isRead && s.warmth[s.slot(id, gpm)] == s.epoch
	flow := Flow{Requester: gpm, Kind: seg.Kind}
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
			flow.LocalBytes += bytes
			continue
		}
		remote := bytes
		if warm {
			hit := remote * s.cfg.RemoteCacheHitRate
			flow.LocalBytes += hit // served from the local remote-cache copy
			remote -= hit
		}
		s.addRemote(&flow, GPMID(h), remote)
	}
	if isRead {
		s.warmth[s.slot(id, gpm)] = s.epoch
	}
	s.traffic.local[gpm] += flow.LocalBytes
	return flow
}

// ReadProportional models link-level traffic of `bytes` bytes of reads
// spread across the whole segment, bypassing the remote cache: the request
// volume is distributed over the segment's page homes proportionally to the
// bytes homed there. This is how the single-programming-model baseline's
// shared striped L2 behaves — every texture sample travels to the L2 slice
// that owns the address, hit or miss, so the link traffic is proportional
// to the sample volume, not to the DRAM miss volume. The volume may exceed
// the segment size (the same texels are fetched again and again).
func (s *System) ReadProportional(gpm GPMID, id SegmentID, bytes float64) Flow {
	s.checkGPM(gpm)
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative proportional read %v", bytes))
	}
	seg := s.Segment(id)
	if bytes == 0 || seg.Size == 0 {
		return s.allLocal(gpm, seg.Kind, 0)
	}
	if seg.layout == LayoutUniform && seg.home == gpm {
		// All-local. The share is still computed as the general path does:
		// bytes*Size/Size is not always bytes in float64.
		return s.allLocal(gpm, seg.Kind, bytes*float64(s.homeHist(id)[gpm])/float64(seg.Size))
	}
	flow := Flow{Requester: gpm, Kind: seg.Kind}
	// Split the volume by the cached home byte shares.
	for h, b := range s.homeHist(id) {
		if b == 0 {
			continue
		}
		share := bytes * float64(b) / float64(seg.Size)
		if GPMID(h) == gpm {
			flow.LocalBytes += share
		} else {
			s.addRemote(&flow, GPMID(h), share)
		}
	}
	s.traffic.local[gpm] += flow.LocalBytes
	return flow
}

// Duplicate models copying the whole segment into the given GPM's DRAM (the
// AFR scheme's separate memory spaces, and OO-VR's straggler data
// duplication). The copy itself moves bytes over the links from each page's
// current home; afterwards the pages are homed on dst.
func (s *System) Duplicate(id SegmentID, dst GPMID) Flow {
	s.checkGPM(dst)
	seg := s.Segment(id)
	flow := Flow{Requester: dst, Kind: seg.Kind}
	hist := s.homeHist(id)
	flow.LocalBytes = float64(hist[dst])
	for h, b := range hist {
		if GPMID(h) != dst {
			s.addRemote(&flow, GPMID(h), float64(b))
		}
	}
	s.setLayout(seg, LayoutUniform, dst)
	s.warmth[s.slot(id, dst)] = s.epoch
	s.traffic.local[dst] += flow.LocalBytes
	return flow
}

// ResetWarmth clears every GPM's touched sets: caches do not survive a
// frame boundary (the per-GPM L2 is far smaller than a frame's streaming
// working set), so schedulers call this at frame start and every texture is
// re-streamed cold each frame — the steady-state behaviour of a real GPU.
// Bumping the warmth epoch invalidates all entries in O(1).
func (s *System) ResetWarmth() {
	s.epoch++
}

// Touched reports whether the GPM has read the segment before (remote cache
// warm).
func (s *System) Touched(gpm GPMID, id SegmentID) bool {
	s.checkGPM(gpm)
	return s.warmth[s.slot(id, gpm)] == s.epoch
}

// copyCold is the warmth stamp of a registered copy that no read has
// warmed yet; warmth epochs start above it.
const copyCold = 1

// Copy registers GPM g's private copy of segment id: a replica homed
// entirely in g's DRAM, such as AFR's per-GPM memory spaces or a
// framework's shipped working set. The copy costs the original's size in
// g's DRAM capacity but is no segment of its own; ReadCopy,
// ReadCopyProportional and CopyTouched read it, always all-local. Copy is
// idempotent and reports whether the copy is new.
func (s *System) Copy(id SegmentID, g GPMID) bool {
	s.checkGPM(g)
	if s.HasCopy(g, id) {
		return false
	}
	size := s.Segment(id).Size
	c := s.copies[g]
	if int(id) >= len(c) {
		c = append(c, make([]uint64, len(s.segments)-len(c))...)
		s.copies[g] = c
	}
	c[id] = copyCold
	s.dramUse[g] += size
	return true
}

// HasCopy reports whether GPM g holds a copy of segment id (see Copy).
func (s *System) HasCopy(g GPMID, id SegmentID) bool {
	c := s.copies[g]
	return int(id) < len(c) && c[id] != 0
}

// copyStamp returns the warmth stamp of g's copy of id and panics when g
// holds no copy of it.
func (s *System) copyStamp(g GPMID, id SegmentID) *uint64 {
	if !s.HasCopy(g, id) {
		panic("mem: read of a copy that was never registered")
	}
	return &s.copies[g][id]
}

// ReadCopy is Read on GPM g's copy of the segment: the flow a segment
// homed entirely on g would give, local bytes only.
func (s *System) ReadCopy(g GPMID, id SegmentID, offset, n int64) Flow {
	stamp := s.copyStamp(g, id)
	seg := s.Segment(id)
	checkRange(seg, offset, n)
	if n == 0 {
		return Flow{Requester: g, Kind: seg.Kind}
	}
	*stamp = s.epoch
	return s.allLocal(g, seg.Kind, float64(n))
}

// ReadCopyProportional is ReadProportional on GPM g's copy of the segment:
// the all-local share bytes*Size/Size.
func (s *System) ReadCopyProportional(g GPMID, id SegmentID, bytes float64) Flow {
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative proportional read %v", bytes))
	}
	s.copyStamp(g, id) // panics unless g holds a copy
	seg := s.Segment(id)
	if bytes == 0 || seg.Size == 0 {
		return s.allLocal(g, seg.Kind, 0)
	}
	return s.allLocal(g, seg.Kind, bytes*float64(seg.Size)/float64(seg.Size)) // not always bytes
}

// CopyTouched is Touched on GPM g's copy of the segment.
func (s *System) CopyTouched(g GPMID, id SegmentID) bool {
	return *s.copyStamp(g, id) == s.epoch
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
