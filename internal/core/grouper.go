package core

import (
	"fmt"
	"slices"

	"oovr/internal/scene"
)

// groupScratch is the reusable working storage of one batching pass. The
// mark arrays (rootOwner, candMark) are marked monotonically (never reset):
// every batch claims a fresh mark, so entries left over from earlier
// batches or earlier frames can never be misread. Growing an array
// zero-fills it, and mark 0 is never issued, which keeps the invariant
// across reallocation too.
type groupScratch struct {
	// texBytes mirrors the scene's texture sizes so the Equation (1) inner
	// loop costs one slice index per texture, not a struct copy.
	texBytes []int64
	texScene *scene.Scene

	// rootOwner[t] is the mark of the batch whose root set currently claims
	// texture t; rootPos[t] is t's position inside that root set. Both are
	// only trusted for the batch being scanned right now: dependency merges
	// into earlier batches bypass them (see mergePlace).
	rootOwner []int64
	rootPos   []int32
	nextMark  int64

	candTotal []int64 // per object: Σ texture bytes, duplicates counted (Pn denominator)
	used      []bool
	batchOf   []int32
	rootTotal []int64   // per batch: Σ deduplicated root texture bytes (Pr denominator)
	objIdx    [][]int32 // per batch: member object indices in placement order
	shared    []sharedTex

	// The frame's texture → users index in CSR form: the independent
	// objects sampling texture t are texUsers[texStart[t]:texStart[t+1]],
	// in increasing position (an object listing t twice appears twice).
	// Dependent objects are left out: they are never TSL candidates.
	texStart []int32
	texUsers []int32
	// deps[i] counts the draws whose dependency chain passes i, and their refs.
	deps []struct{ objs, refs int }
	// Batches carve their Objects, Textures and objIdx from these per-frame
	// arenas instead of allocating each. The newest batch grows at an
	// arena's tail and is capped when its scan ends, after room for its
	// members' dependents, so a dependency merge appends in place.
	objArena []*scene.Object
	texArena []scene.TextureID
	idxArena []int32
	// frontier is a min-heap of the candidate positions of the batch being
	// scanned; candMark[i] is the mark of the last batch that pushed object
	// i, so no object enters one batch's frontier twice.
	frontier []int32
	candMark []int64
}

// sharedTex is one texture common to the scanned batch's root set and the
// candidate, carried with its root-set position so the Equation (1) sum can
// run in exactly the root slice order the reference TSL uses.
type sharedTex struct {
	pos   int32
	bytes int64
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve returns s emptied with room for n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// groupFrame is the batching pass behind both Middleware.GroupFrame and
// Grouper: the Figure 12 control flow, with each batch scoring only the
// draws that can join it. A draw sharing no texture with the root set
// scores TSL 0, which never exceeds a threshold in [0,1], so the scan pops
// the later users of the root textures in increasing position and scores
// each once against the root set as it stands there: the candidates, order
// and Equation (1) operands of a scan over every later draw, so the output
// is bit-identical. A frame costs O(draws + textures) for the index plus
// time proportional to its texture-sharing pairs. batches is an optional
// storage donor whose array is reused.
func (m Middleware) groupFrame(s *groupScratch, sc *scene.Scene, f *scene.Frame, batches []Batch) []Batch {
	if !(m.TSLThreshold >= 0 && m.TSLThreshold <= 1) {
		panic(fmt.Sprintf("core: TSL threshold %v out of [0,1]", m.TSLThreshold))
	}
	if m.TriangleCap <= 0 {
		panic("core: triangle cap must be positive")
	}
	n := len(f.Objects)
	nt := len(sc.Textures)

	if s.texScene != sc || len(s.texBytes) != nt {
		s.texBytes = grow(s.texBytes, nt)
		for i := range sc.Textures {
			s.texBytes[i] = sc.Textures[i].Bytes
		}
		s.texScene = sc
	}
	s.rootOwner = grow(s.rootOwner, nt)
	s.rootPos = grow(s.rootPos, nt)

	s.candTotal = grow(s.candTotal, n)
	s.used = grow(s.used, n)
	s.batchOf = grow(s.batchOf, n)
	s.candMark = grow(s.candMark, n)
	// Counting sort into CSR: count t's users in texStart[t+2], prefix-sum
	// so texStart[t+1] is t's first slot, then fill advancing texStart[t+1]
	// to t's end, which is where t+1 starts.
	s.texStart = grow(s.texStart, nt+2)
	clear(s.texStart)
	users, refs := 0, 0
	for i := 0; i < n; i++ {
		o := &f.Objects[i]
		var tot int64
		refs += len(o.Textures)
		for _, t := range o.Textures {
			tot += s.texBytes[t]
			if o.DependsOn == scene.NoDependency {
				s.texStart[t+2]++
				users++
			}
		}
		s.candTotal[i] = tot
		s.used[i] = false
		s.batchOf[i] = -1
	}
	for t := 2; t < nt+2; t++ {
		s.texStart[t] += s.texStart[t-1]
	}
	// Dependencies point backward, so one reverse pass totals them.
	s.deps = grow(s.deps, n)
	clear(s.deps)
	for i := n - 1; i >= 0; i-- {
		if d := f.Objects[i].DependsOn; d != scene.NoDependency {
			s.deps[d].objs += 1 + s.deps[i].objs
			s.deps[d].refs += len(f.Objects[i].Textures) + s.deps[i].refs
		}
	}
	s.texUsers = grow(s.texUsers, users)
	for i := 0; i < n; i++ {
		if f.Objects[i].DependsOn != scene.NoDependency {
			continue
		}
		for _, t := range f.Objects[i].Textures {
			s.texUsers[s.texStart[t+1]] = int32(i)
			s.texStart[t+1]++
		}
	}
	// A frame has at most n batches: reserve them up front instead of
	// regrowing, so a new batch reslices its slot below.
	s.rootTotal = reserve(s.rootTotal, n)
	batches = reserve(batches, n)
	s.objIdx = reserve(s.objIdx, n)
	markBase := s.nextMark + 1
	// Each object is placed once, and a root set is a subset of its members'
	// texture lists, so n and refs bound what the arenas hold.
	s.objArena = grow(s.objArena, n)
	s.idxArena = grow(s.idxArena, n)
	s.texArena = grow(s.texArena, refs)
	objOff, texOff := 0, 0

	for head := 0; head < n; head++ {
		if s.used[head] {
			continue
		}
		o := &f.Objects[head]
		// Dependency rule: an object depending on an already-batched object
		// joins that batch regardless of TSL or cap ("we directly merge
		// them to the batch and increase the triangle limitation").
		if o.DependsOn != scene.NoDependency && s.batchOf[o.DependsOn] >= 0 {
			s.mergePlace(&batches[s.batchOf[o.DependsOn]], o, head)
			continue
		}

		id := len(batches)
		batches = batches[:id+1]
		b := &batches[id]
		b.ID = id
		b.Triangles = 0
		b.Objects = s.objArena[objOff:objOff]
		b.Textures = s.texArena[texOff:texOff]
		s.rootTotal = append(s.rootTotal, 0)
		s.objIdx = s.objIdx[:id+1]
		s.objIdx[id] = s.idxArena[objOff:objOff]
		mark := markBase + int64(id)
		s.nextMark = mark

		s.frontier = s.frontier[:0]
		s.place(b, o, head, mark)
		s.pushUsers(b.Textures, head, mark)
		// Scan the later users of the root textures while under cap.
		for len(s.frontier) > 0 && b.Triangles < m.TriangleCap {
			j := int(s.popFrontier())
			cand := &f.Objects[j]
			if s.tslAgainstRoot(b, mark, cand.Textures, s.candTotal[j]) > m.TSLThreshold {
				k := len(b.Textures)
				s.place(b, cand, j, mark)
				s.pushUsers(b.Textures[k:], j, mark)
			}
		}
		// Members are independent: the batch's later merges are exactly
		// their dependents, so cap its slices after room for them.
		mo, mt := 0, 0
		for _, i := range s.objIdx[id] {
			mo, mt = mo+s.deps[i].objs, mt+s.deps[i].refs
		}
		b.Objects = b.Objects[: len(b.Objects) : len(b.Objects)+mo]
		b.Textures = b.Textures[: len(b.Textures) : len(b.Textures)+mt]
		s.objIdx[id] = s.objIdx[id][: len(b.Objects) : len(b.Objects)+mo]
		objOff += cap(b.Objects)
		texOff += cap(b.Textures)
	}
	s.objIdx = s.objIdx[:len(batches)]
	return batches
}

// pushUsers adds to the frontier every unused object after position pos
// that samples one of the given textures, newly added to the root set of
// the batch with the given mark. Users at or before pos have already been
// scored against this batch, or are its members.
func (s *groupScratch) pushUsers(textures []scene.TextureID, pos int, mark int64) {
	for _, t := range textures {
		users := s.texUsers[s.texStart[t]:s.texStart[t+1]]
		k, _ := slices.BinarySearch(users, int32(pos)+1)
		for _, u := range users[k:] {
			if s.used[u] || s.candMark[u] == mark {
				continue
			}
			s.candMark[u] = mark
			h := append(s.frontier, u)
			c := len(h) - 1
			for c > 0 && h[(c-1)/2] > u {
				h[c] = h[(c-1)/2]
				c = (c - 1) / 2
			}
			h[c] = u
			s.frontier = h
		}
	}
}

// popFrontier removes and returns the frontier's smallest position.
func (s *groupScratch) popFrontier() int32 {
	h := s.frontier
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for c, l := 0, 1; l < n; c, l = l, 2*l+1 {
		if l+1 < n && h[l+1] < h[l] {
			l++
		}
		if h[c] <= h[l] {
			break
		}
		h[c], h[l] = h[l], h[c]
	}
	s.frontier = h
	return top
}

// place adds an object to the batch currently being built (whose root-set
// stamps are authoritative), deduplicating its textures through the stamp
// arrays.
func (s *groupScratch) place(b *Batch, o *scene.Object, idx int, mark int64) {
	b.Objects = append(b.Objects, o)
	b.Triangles += o.Triangles
	for _, t := range o.Textures {
		if s.rootOwner[t] != mark {
			s.rootOwner[t] = mark
			s.rootPos[t] = int32(len(b.Textures))
			b.Textures = append(b.Textures, t)
			s.rootTotal[b.ID] += s.texBytes[t]
		}
	}
	s.used[idx] = true
	s.batchOf[idx] = int32(b.ID)
	s.objIdx[b.ID] = append(s.objIdx[b.ID], int32(idx))
}

// mergePlace adds a dependent object to an earlier, already-closed batch.
// A later batch may have claimed some of this batch's textures in the
// stamp arrays since, so deduplication falls back to the linear root scan
// (dependency merges are rare; correctness beats stamps here) and the
// stamps are left untouched — they only need to be right for the newest
// batch.
func (s *groupScratch) mergePlace(b *Batch, o *scene.Object, idx int) {
	b.Objects = append(b.Objects, o)
	b.Triangles += o.Triangles
	for _, t := range o.Textures {
		if !slices.Contains(b.Textures, t) {
			b.Textures = append(b.Textures, t)
			s.rootTotal[b.ID] += s.texBytes[t]
		}
	}
	s.used[idx] = true
	s.batchOf[idx] = int32(b.ID)
	s.objIdx[b.ID] = append(s.objIdx[b.ID], int32(idx))
}

// tslAgainstRoot evaluates Equation (1) between the batch under
// construction and a candidate texture set in O(|candidate|): shared
// textures are found through the stamp arrays and summed in root-set
// order, reproducing the reference TSL's accumulation sequence (and hence
// its exact float result) without walking the root set.
func (s *groupScratch) tslAgainstRoot(b *Batch, mark int64, cand []scene.TextureID, candTotal int64) float64 {
	if len(b.Textures) == 0 || len(cand) == 0 {
		return 0
	}
	rootTotal := s.rootTotal[b.ID]
	if rootTotal == 0 || candTotal == 0 {
		return 0
	}
	sh := s.shared[:0]
	for _, t := range cand {
		if s.rootOwner[t] != mark {
			continue
		}
		p := s.rootPos[t]
		// Insertion sort by root position, dropping candidate duplicates:
		// the reference computation credits each shared root texture once,
		// in root slice order.
		k := len(sh)
		dup := false
		for k > 0 && sh[k-1].pos >= p {
			if sh[k-1].pos == p {
				dup = true
				break
			}
			k--
		}
		if dup {
			continue
		}
		sh = append(sh, sharedTex{})
		copy(sh[k+1:], sh[k:])
		sh[k] = sharedTex{pos: p, bytes: s.texBytes[t]}
	}
	s.shared = sh[:0]
	var num float64
	for k := range sh {
		pr := float64(sh[k].bytes) / float64(rootTotal)
		pn := float64(sh[k].bytes) / float64(candTotal)
		num += pr * pn
	}
	return num
}

// Grouper is a stateful frame batcher exploiting temporal coherence: a VR
// application re-renders the same draw list every frame with jittered
// bounds and fragment counts, and Equation (1) grouping depends only on
// the structural fields — object order, Triangles, the Textures sequence,
// and DependsOn. Grouper keys the previous frame's grouping on exactly
// those fields; when a frame matches, the cached batches are re-pointed at
// the new frame's objects without recomputing anything, and the
// steady-state path allocates nothing. Any structural change (an object
// added, removed, reordered, resized, or rebound) rebuilds from scratch
// with the same pass as Middleware.GroupFrame, so the output is
// byte-identical either way — the cache changes cost, never results.
//
// The returned batches alias the Grouper's cache and stay valid until the
// next GroupFrame call. A Grouper is single-goroutine state: planners
// create one per run in Begin and never share it across concurrent runs.
type Grouper struct {
	mw      Middleware
	scratch groupScratch

	sc        *scene.Scene
	valid     bool
	sigTri    []int32
	sigDep    []int32
	sigTexLen []int32
	sigTex    []scene.TextureID
	batches   []Batch
}

// NewGrouper returns a Grouper batching with the given middleware
// parameters.
func NewGrouper(mw Middleware) *Grouper { return &Grouper{mw: mw} }

// GroupFrame returns the frame's batches, reusing the previous frame's
// grouping when the structural signature matches (see the type comment).
func (g *Grouper) GroupFrame(sc *scene.Scene, f *scene.Frame) []Batch {
	if g.valid && !g.mw.NoCache && g.sc == sc && g.sigMatches(f) {
		for bi := range g.batches {
			objs := g.batches[bi].Objects
			for k, oi := range g.scratch.objIdx[bi] {
				objs[k] = &f.Objects[oi]
			}
		}
		return g.batches
	}
	g.batches = g.mw.groupFrame(&g.scratch, sc, f, g.batches)
	g.sc = sc
	g.record(f)
	g.valid = true
	return g.batches
}

func (g *Grouper) sigMatches(f *scene.Frame) bool {
	if len(f.Objects) != len(g.sigTri) {
		return false
	}
	ti := 0
	for i := range f.Objects {
		o := &f.Objects[i]
		if int32(o.Triangles) != g.sigTri[i] || int32(o.DependsOn) != g.sigDep[i] ||
			int32(len(o.Textures)) != g.sigTexLen[i] {
			return false
		}
		for k, t := range o.Textures {
			if t != g.sigTex[ti+k] {
				return false
			}
		}
		ti += len(o.Textures)
	}
	return true
}

func (g *Grouper) record(f *scene.Frame) {
	n := len(f.Objects)
	g.sigTri = grow(g.sigTri, n)
	g.sigDep = grow(g.sigDep, n)
	g.sigTexLen = grow(g.sigTexLen, n)
	g.sigTex = g.sigTex[:0]
	for i := range f.Objects {
		o := &f.Objects[i]
		g.sigTri[i] = int32(o.Triangles)
		g.sigDep[i] = int32(o.DependsOn)
		g.sigTexLen[i] = int32(len(o.Textures))
		g.sigTex = append(g.sigTex, o.Textures...)
	}
}
