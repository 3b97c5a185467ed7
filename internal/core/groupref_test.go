package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"oovr/internal/scene"
	"oovr/internal/workload"
)

// groupFrameRef is the reference batching pass: the Figure 12 control flow
// scanning every unused later draw against each new batch, O(draws²) per
// frame. groupFrame must return byte-identical batches while visiting only
// the draws that share a texture with the batch.
func (m Middleware) groupFrameRef(s *groupScratch, sc *scene.Scene, f *scene.Frame, batches []Batch) []Batch {
	if m.TSLThreshold < 0 || m.TSLThreshold > 1 {
		panic(fmt.Sprintf("core: TSL threshold %v out of [0,1]", m.TSLThreshold))
	}
	if m.TriangleCap <= 0 {
		panic("core: triangle cap must be positive")
	}
	n := len(f.Objects)

	if s.texScene != sc || len(s.texBytes) != len(sc.Textures) {
		s.texBytes = grow(s.texBytes, len(sc.Textures))
		for i := range sc.Textures {
			s.texBytes[i] = sc.Textures[i].Bytes
		}
		s.texScene = sc
	}
	s.rootOwner = grow(s.rootOwner, len(sc.Textures))
	s.rootPos = grow(s.rootPos, len(sc.Textures))

	s.candTotal = grow(s.candTotal, n)
	s.used = grow(s.used, n)
	s.batchOf = grow(s.batchOf, n)
	for i := 0; i < n; i++ {
		var tot int64
		for _, t := range f.Objects[i].Textures {
			tot += s.texBytes[t]
		}
		s.candTotal[i] = tot
		s.used[i] = false
		s.batchOf[i] = -1
	}
	s.rootTotal = s.rootTotal[:0]
	batches = batches[:0]
	markBase := s.nextMark + 1

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
		if id < cap(batches) {
			batches = batches[:id+1]
		} else {
			batches = append(batches, Batch{})
		}
		b := &batches[id]
		b.ID = id
		b.Triangles = 0
		b.Objects = b.Objects[:0]
		b.Textures = b.Textures[:0]
		s.rootTotal = append(s.rootTotal, 0)
		if id < len(s.objIdx) {
			s.objIdx[id] = s.objIdx[id][:0]
		} else {
			s.objIdx = append(s.objIdx, nil)
		}
		mark := markBase + int64(id)
		s.nextMark = mark

		s.place(b, o, head, mark)
		// Scan the remaining queue for shareable objects while under cap.
		for j := head + 1; j < n && b.Triangles < m.TriangleCap; j++ {
			if s.used[j] {
				continue
			}
			cand := &f.Objects[j]
			if cand.DependsOn != scene.NoDependency {
				// Dependent objects are never TSL-grouped; the dependency
				// rule merges them into their predecessor's batch when they
				// reach the queue head.
				continue
			}
			if s.tslAgainstRoot(b, mark, cand.Textures, s.candTotal[j]) > m.TSLThreshold {
				s.place(b, cand, j, mark)
			}
		}
	}
	s.objIdx = s.objIdx[:len(batches)]
	return batches
}

// groupCase decodes bytes into a small batching problem: a threshold in
// [0,1] (0, 0.1, 0.5 and 1 included), a triangle cap from 1 to 1<<30, and a
// one-frame scene whose objects may depend on an earlier object, repeat a
// texture id, sample zero-byte textures or sample none. scene.Validate
// rejects the last two, but the batching pass must survive them. Missing
// bytes read as zero, so every input decodes.
func groupCase(b []byte) (*scene.Scene, Middleware) {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	caps := []int{1, 2, 16, 300, 4096, 1 << 30}
	m := Middleware{TSLThreshold: float64(next()%101) / 100, TriangleCap: caps[next()%len(caps)]}
	sc := &scene.Scene{Name: "fuzz", Width: 64, Height: 64, Frames: []scene.Frame{{}}}
	for t := next() % 9; len(sc.Textures) < t; {
		sc.Textures = append(sc.Textures, scene.Texture{ID: scene.TextureID(len(sc.Textures)), Bytes: int64(next()%4) * 64})
	}
	objs := make([]scene.Object, next()%48)
	for i := range objs {
		o := &objs[i]
		o.Index, o.Triangles, o.DependsOn = i, 1+8*next(), scene.NoDependency
		if d := next(); d&1 == 1 && i > 0 {
			o.DependsOn = (d >> 1) % i
		}
		for k := next() % 5; k > 0 && len(sc.Textures) > 0; k-- {
			o.Textures = append(o.Textures, scene.TextureID(next()%len(sc.Textures)))
		}
	}
	sc.Frames[0].Objects = objs
	return sc, m
}

// sameGrouping fails t unless both passes left identical batches and the
// per-batch object indices the Grouper cache re-points. Empty slices
// compare equal to nil: whether an empty one is nil depends only on the
// storage a pass was handed.
func sameGrouping(t *testing.T, what string, got, want []Batch, gs, ws *groupScratch) {
	t.Helper()
	if !reflect.DeepEqual(normalized(got), normalized(want)) {
		t.Fatalf("%s: batches differ from the reference\n got %s\nwant %s", what, batchesString(got), batchesString(want))
	}
	if !reflect.DeepEqual(normalized(gs.objIdx), normalized(ws.objIdx)) {
		t.Fatalf("%s: object indices differ from the reference\n got %v\nwant %v", what, gs.objIdx, ws.objIdx)
	}
}

func normalized[T any](xs []T) []T {
	out := append([]T(nil), xs...)
	v := reflect.ValueOf(out)
	for i := range out {
		normalizeEmpty(v.Index(i))
	}
	return out
}

// normalizeEmpty sets every empty slice reachable from v's fields (or v
// itself) to nil.
func normalizeEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalizeEmpty(v.Field(i))
		}
	}
}

func batchesString(bs []Batch) string {
	var sb strings.Builder
	for _, b := range bs {
		fmt.Fprintf(&sb, "[%d tri=%d tex=%v objs=", b.ID, b.Triangles, b.Textures)
		for _, o := range b.Objects {
			fmt.Fprintf(&sb, " %d", o.Index)
		}
		sb.WriteString("] ")
	}
	return sb.String()
}

// TestGroupFrameMatchesReference requires the sharing-driven scan to batch
// exactly like the full scan: over every evaluation case's frames at
// several thresholds and caps, and over thousands of random scenes. Each
// pass keeps one scratch across its frames, as a Grouper does, so marks
// left by earlier frames and scenes are exercised too.
func TestGroupFrameMatchesReference(t *testing.T) {
	for _, c := range workload.Cases() {
		for seed := int64(1); seed <= 2; seed++ {
			sc := c.Spec.Generate(c.Width, c.Height, 3, seed)
			var gs, ws groupScratch
			var got, want []Batch
			for fi := range sc.Frames {
				for _, th := range []float64{0, 0.1, 0.5, 1} {
					for _, cp := range []int{1, 4096, 1 << 30} {
						m := Middleware{TSLThreshold: th, TriangleCap: cp}
						got = m.groupFrame(&gs, sc, &sc.Frames[fi], got)
						want = m.groupFrameRef(&ws, sc, &sc.Frames[fi], want)
						sameGrouping(t, fmt.Sprintf("%s seed %d frame %d threshold %v cap %d", c.Name, seed, fi, th, cp), got, want, &gs, &ws)
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	var gs, ws groupScratch
	var got, want []Batch
	var deps, dupTex, zeroTex, noTex int
	buf := make([]byte, 256)
	for i := 0; i < 3000; i++ {
		rng.Read(buf)
		sc, m := groupCase(buf)
		objs := sc.Frames[0].Objects
		got = m.groupFrame(&gs, sc, &sc.Frames[0], got)
		want = m.groupFrameRef(&ws, sc, &sc.Frames[0], want)
		sameGrouping(t, fmt.Sprintf("random scene %d (threshold %v cap %d)", i, m.TSLThreshold, m.TriangleCap), got, want, &gs, &ws)
		for _, tx := range sc.Textures {
			if tx.Bytes == 0 {
				zeroTex++
			}
		}
		for k := range objs {
			o := &objs[k]
			if o.DependsOn != scene.NoDependency {
				deps++
			}
			if len(o.Textures) == 0 {
				noTex++
			}
			for a := range o.Textures {
				if slices.Contains(o.Textures[:a], o.Textures[a]) {
					dupTex++
					break
				}
			}
		}
	}
	if deps == 0 || dupTex == 0 || zeroTex == 0 || noTex == 0 {
		t.Fatalf("random scenes miss a corner: %d dependencies, %d duplicate texture ids, %d zero-byte textures, %d objects without textures",
			deps, dupTex, zeroTex, noTex)
	}
}

// FuzzGroupFrameMatchesReference decodes the input into a small scene,
// threshold and cap (see groupCase) and requires the sharing-driven scan to
// batch exactly like the reference, twice on one scratch, without
// panicking.
func FuzzGroupFrameMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		sc, m := groupCase(b)
		var gs, ws groupScratch
		want := m.groupFrameRef(&ws, sc, &sc.Frames[0], nil)
		var got []Batch
		for i := 0; i < 2; i++ {
			got = m.groupFrame(&gs, sc, &sc.Frames[0], got)
			sameGrouping(t, fmt.Sprintf("pass %d (threshold %v cap %d)", i, m.TSLThreshold, m.TriangleCap), got, want, &gs, &ws)
		}
	})
}

// TestGroupFrameRejectsNaNThreshold pins the guard the sharing-driven scan's
// exactness rests on: a NaN threshold passes both comparisons of a naive
// range check, and would silently group nothing.
func TestGroupFrameRejectsNaNThreshold(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	sc := sp.Generate(640, 480, 1, 1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of [0,1]") {
			t.Fatalf("a NaN threshold gave %v, want the out-of-range panic", r)
		}
	}()
	Middleware{TSLThreshold: math.NaN(), TriangleCap: 4096}.GroupFrame(sc, &sc.Frames[0])
}
