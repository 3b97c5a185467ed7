package workload

import (
	"math"
	"math/rand"
	"slices"
	"strconv"

	"oovr/internal/geom"
	"oovr/internal/scene"
)

// Stream generates a benchmark's frames one at a time, so a scene never
// needs full materialization: the prefix — the texture pool and the object
// set (frame 0) — is synthesized once, and every Next call derives the
// following camera-jittered frame on demand. Header returns the bindable
// scene header — textures, resolution and the declared allocation
// Capacity, no frames — which is what a streaming rendering session
// (driver.Open + SubmitFrame) binds its system to.
//
// Streams opened with the same recipe, resolution and seed share one
// prefix from a bounded process cache: the header's texture names and
// frame 0's objects, names and texture-binding arena. What stays per
// stream is the PRNG, the frame counter and everything handed out: Header
// returns a fresh copy, and NextInto copies each frame's objects into the
// caller's buffer. An object's Textures still point into the shared
// arena, capped so appending reallocates; the bindings are read-only.
//
// Generate is Stream drained to completion, so a streamed run sees exactly
// the frames a batch run sees: same PRNG, same draw order, same jitter.
type Stream struct {
	frames int // <= 0 means unbounded
	rng    *rand.Rand
	pre    *prefix
	next   int

	// Motion, when set, drives the per-frame camera pan (dx, dy in pixels)
	// instead of the generator's random walk — the hook head-motion traces
	// plug into. Setting it changes the stream away from Generate's output
	// (the random pan draws are skipped); fragment-level jitter still
	// applies.
	Motion func(fi int) (dx, dy float64)
}

// Stream opens a frame stream at the given per-eye resolution. frames <= 0
// streams without bound (the multi-user serving scenario); otherwise the
// stream ends after the given count. The same (spec, resolution, frames,
// seed) prefix always yields identical frames. Stream validates the header
// and frame 0 (Scene.Validate) when it builds them and panics on a
// malformed recipe; every later frame is valid by construction. An open
// whose prefix is cached builds nothing: it seeds a fresh source and
// advances it past the draws the build consumed.
func (sp Spec) Stream(width, height, frames int, seed int64) *Stream {
	src := rand.NewSource(seed ^ int64(len(sp.Abbr))*7919 ^ int64(width)*31 ^ int64(height)*17).(rand.Source64)
	k := keyOf(sp, width, height, seed)
	p := prefixes.get(k)
	if p != nil {
		for range p.draws {
			src.Uint64()
		}
	} else {
		p = sp.buildPrefix(width, height, src)
		prefixes.put(k, p)
	}
	return &Stream{frames: frames, rng: rand.New(src), pre: p}
}

// buildPrefix synthesizes the header and frame 0 from src and records how
// many steps it drew.
func (sp Spec) buildPrefix(width, height int, src rand.Source64) *prefix {
	cs := &countingSource{Source64: src}
	rng := rand.New(cs)
	p := &prefix{}
	p.header = scene.Scene{
		Name:     numbered(sp.Abbr+"-", 0, width),
		Width:    width,
		Height:   height,
		Textures: make([]scene.Texture, 0, sp.TextureCount+sp.Draws), // pool, then privates
	}

	// Texture pool: lognormal sizes around MeanTextureKB.
	nTex := sp.TextureCount
	commonTex := nTex / 12
	if commonTex < 2 {
		commonTex = 2
	}
	mu := math.Log(sp.MeanTextureKB*1024) - sp.TexSigma*sp.TexSigma/2
	for i := 0; i < nTex; i++ {
		size := int64(math.Exp(rng.NormFloat64()*sp.TexSigma + mu))
		if size < 16*1024 {
			size = 16 * 1024
		}
		name := numbered("tex", 3, i)
		if i < commonTex {
			name = numbered("common", 2, i)
		}
		p.header.Textures = append(p.header.Textures, scene.Texture{ID: scene.TextureID(i), Name: name, Bytes: size})
	}

	// Cluster membership: the non-common textures are divided round-robin
	// among the material clusters.
	clusterTex := make([][]scene.TextureID, sp.Clusters)
	for i := commonTex; i < nTex; i++ {
		c := (i - commonTex) % sp.Clusters
		clusterTex[c] = append(clusterTex[c], scene.TextureID(i))
	}

	// One private material texture per draw, appended after the shared pool.
	privateTex := make([]scene.TextureID, sp.Draws)
	muPriv := math.Log(sp.PrivateTexKB*1024) - sp.TexSigma*sp.TexSigma/2
	for i := 0; i < sp.Draws; i++ {
		size := int64(math.Exp(rng.NormFloat64()*sp.TexSigma + muPriv))
		if size < 16*1024 {
			size = 16 * 1024
		}
		id := scene.TextureID(len(p.header.Textures))
		p.header.Textures = append(p.header.Textures, scene.Texture{ID: id, Name: numbered("priv", 4, i), Bytes: size})
		privateTex[i] = id
	}

	// The scene's object set is built once: a game renders the same meshes
	// and textures every frame. Subsequent frames are camera-jittered
	// copies (fragment counts scale a little, bounds pan slightly); the
	// draw list, texture bindings and dependencies stay fixed.
	p.base = sp.buildBaseFrame(rng, width, height, clusterTex, privateTex, commonTex)

	// The allocation envelope: the object set is frame-invariant except
	// for fragment counts and bounds, so frame 0 declares it exactly.
	vcaps := make([]int64, len(p.base.Objects))
	for i := range p.base.Objects {
		vcaps[i] = p.base.Objects[i].VertexBytes()
	}
	p.header.Capacity = scene.Capacity{MaxObjects: len(p.base.Objects), VertexBytes: vcaps}

	// Later frames only rescale clamped fragment counts and shift bounds,
	// so checking the header with frame 0 covers every frame of the stream.
	v := p.header
	v.Frames = []scene.Frame{p.base}
	if err := v.Validate(); err != nil {
		panic(err)
	}
	p.draws = cs.n
	p.weight = len(p.header.Textures) + len(p.base.Objects)
	return p
}

// buildBaseFrame synthesizes frame 0 — the draw list every later frame
// jitters.
func (sp Spec) buildBaseFrame(rng *rand.Rand, width, height int, clusterTex [][]scene.TextureID, privateTex []scene.TextureID, commonTex int) scene.Frame {
	frame := scene.Frame{Index: 0, Objects: make([]scene.Object, 0, sp.Draws)}
	// One arena holds every binding: per draw a private, ≤3 picks, ≤1 common.
	texArena := make([]scene.TextureID, 0, 5*sp.Draws)
	jitter := 1.0

	// Draw complexity weights (lognormal) for triangles and coverage.
	triMu := math.Log(sp.MeanTriangles) - sp.TriSigma*sp.TriSigma/2
	weights := make([]float64, sp.Draws)
	tris := make([]int, sp.Draws)
	yfracs := make([]float64, sp.Draws)
	var weightSum float64
	for i := 0; i < sp.Draws; i++ {
		t := math.Exp(rng.NormFloat64()*sp.TriSigma + triMu)
		if t < 8 {
			t = 8
		}
		tris[i] = int(t)
		// Bottom-heavy vertical placement: floors, walls and props sit
		// low in the frame, the sky rows are nearly empty. Fragment
		// mass correlates with it, which is what load-imbalances
		// horizontal tile strips.
		u := rng.Float64()
		yfracs[i] = 1 - math.Pow(u, 1.6)
		// Screen coverage correlates with triangle count sub-linearly:
		// detailed meshes are not proportionally bigger on screen.
		w := math.Pow(t, 0.85) * math.Exp(0.55*rng.NormFloat64()) * (0.6 + 0.8*yfracs[i])
		weights[i] = w
		weightSum += w
	}
	totalFrags := float64(width*height) * sp.Overdraw * jitter

	for i := 0; i < sp.Draws; i++ {
		frags := totalFrags * weights[i] / weightSum
		o := scene.Object{
			Index:        i,
			Name:         numbered("draw", 4, i),
			Triangles:    tris[i],
			Vertices:     tris[i] * 3 * 2 / 3, // indexed meshes reuse vertices
			FragsPerView: frags,
			DependsOn:    scene.NoDependency,
		}
		if o.Vertices < 3 {
			o.Vertices = 3
		}

		// Screen bounds sized from coverage (uniform density model).
		// Big objects are wide and flat (floors, walls, terrain): they
		// span many vertical strips but sit inside one or two horizontal
		// rows, which is why horizontal tiling mishandles them.
		sizeRank := weights[i] / (weightSum / float64(sp.Draws))
		wideness := math.Pow(sizeRank, 0.6)
		if wideness > 6 {
			wideness = 6
		}
		aspect := (0.6 + 1.4*wideness) * (0.7 + 0.6*rng.Float64())
		bw := math.Sqrt(frags / sp.Overdraw * aspect)
		bh := math.Sqrt(frags / sp.Overdraw / aspect)
		if bw < 1 {
			bw = 1
		}
		if bh < 1 {
			bh = 1
		}
		if bw > float64(width) {
			bw = float64(width)
		}
		if bh > float64(height) {
			bh = float64(height)
		}
		x := rng.Float64() * (float64(width) - bw)
		y := yfracs[i] * (float64(height) - bh)
		o.Bounds = geom.AABB{
			Min: geom.Vec2{X: x, Y: y},
			Max: geom.Vec2{X: x + bw, Y: y + bh},
		}

		// Every object samples its private material texture first, then
		// its cluster's shared textures, then possibly a common texture.
		o.Textures = append(texArena[len(texArena):], privateTex[i])
		cluster := clusterOf(rng, sp, i)
		nRefs := 1 + int(rng.ExpFloat64()*(sp.TexturesPerObject-1)+0.5)
		if nRefs < 1 {
			nRefs = 1
		}
		if nRefs > 3 {
			nRefs = 3
		}
		pool := clusterTex[cluster]
		for r := 0; r < nRefs && len(pool) > 0; r++ {
			tid := pool[rng.Intn(len(pool))]
			if !slices.Contains(o.Textures[1:], tid) { // the picks so far
				o.Textures = append(o.Textures, tid)
			}
		}
		if rng.Float64() < sp.CommonTextureFrac {
			tid := scene.TextureID(rng.Intn(commonTex))
			if !slices.Contains(o.Textures[1:], tid) {
				o.Textures = append(o.Textures, tid)
			}
		}
		texArena = texArena[:len(texArena)+len(o.Textures)]
		o.Textures = slices.Clip(o.Textures) // so appends never reach the next object's

		if i > 0 && rng.Float64() < sp.DependencyFrac {
			o.DependsOn = i - 1
		}
		frame.Objects = append(frame.Objects, o)
	}
	return frame
}

// numbered is fmt.Sprintf("%s%0*d", prefix, width, i) in one allocation.
func numbered(prefix string, width, i int) string {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], prefix...), int64(i), 10)
	for len(b) < len(prefix)+width {
		b = slices.Insert(b, len(prefix), '0')
	}
	return string(b)
}

// Header returns the bindable scene header: textures, resolution and the
// declared capacity, with no materialized frames. Bind it with
// multigpu.New and feed frames through a driver.Session. Each call returns
// an independent copy — mutating one header never leaks into the stream or
// into headers handed out earlier.
func (st *Stream) Header() *scene.Scene {
	h := st.pre.header
	h.Frames = nil
	h.Textures = append([]scene.Texture(nil), h.Textures...)
	h.Capacity.VertexBytes = append([]int64(nil), h.Capacity.VertexBytes...)
	return &h
}

// Next returns the stream's next frame, or false when a bounded stream is
// exhausted. The returned frame is the caller's to keep (a fresh copy each
// call).
func (st *Stream) Next() (*scene.Frame, bool) {
	var f scene.Frame
	if !st.NextInto(&f) {
		return nil, false
	}
	return &f, true
}

// NextInto writes the stream's next frame into f, reusing f's backing
// storage, and reports false when a bounded stream is exhausted. It
// produces exactly Next's sequence — steady-state frame loops use it to
// stream without a per-frame allocation.
func (st *Stream) NextInto(f *scene.Frame) bool {
	if st.frames > 0 && st.next >= st.frames {
		return false
	}
	fi := st.next
	st.next++
	base := st.pre.base.Objects
	n := len(base)
	if cap(f.Objects) < n {
		f.Objects = make([]scene.Object, n)
	}
	f.Objects = f.Objects[:n]
	f.Index = fi
	if fi == 0 {
		copy(f.Objects, base)
		return true
	}
	jitter := 1 + 0.05*st.rng.NormFloat64()
	if jitter < 0.85 {
		jitter = 0.85
	}
	var dx, dy float64
	if st.Motion != nil {
		dx, dy = st.Motion(fi)
	} else {
		dx = st.rng.NormFloat64() * 4
		dy = st.rng.NormFloat64() * 2
	}
	viewRect := geom.AABB{Max: geom.Vec2{X: float64(st.pre.header.Width), Y: float64(st.pre.header.Height)}}
	for oi := range base {
		o := base[oi] // copy
		o.FragsPerView *= jitter * (1 + 0.03*st.rng.NormFloat64())
		if o.FragsPerView < 0 {
			o.FragsPerView = 0
		}
		o.Bounds = o.Bounds.Translate(geom.Vec2{X: dx, Y: dy}).Clamp(viewRect)
		f.Objects[oi] = o
	}
	return true
}
