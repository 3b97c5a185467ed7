package core

import (
	"math"
	"testing"
	"testing/quick"

	"oovr/internal/geom"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

func sceneWith(textures []scene.Texture, objs []scene.Object) *scene.Scene {
	s := &scene.Scene{
		Name: "t", Width: 640, Height: 480,
		Textures: textures,
		Frames:   []scene.Frame{{Index: 0, Objects: objs}},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func obj(i, tris int, deps int, tex ...scene.TextureID) scene.Object {
	return scene.Object{
		Index: i, Name: "o", Triangles: tris, Vertices: tris * 2,
		FragsPerView: 100,
		Bounds:       geom.AABB{Max: geom.Vec2{X: 10, Y: 10}},
		Textures:     tex,
		DependsOn:    deps,
	}
}

func TestTSLIdenticalSetsIsOne(t *testing.T) {
	sc := sceneWith(
		[]scene.Texture{{ID: 0, Name: "a", Bytes: 1000}, {ID: 1, Name: "b", Bytes: 3000}},
		[]scene.Object{obj(0, 10, -1, 0, 1)},
	)
	got := TSL(sc, []scene.TextureID{0, 1}, []scene.TextureID{0, 1})
	if math.Abs(got-(0.25*0.25+0.75*0.75)) >= 1e-12 {
		t.Errorf("TSL identical = %v", got)
	}
}

func TestTSLDisjointIsZero(t *testing.T) {
	sc := sceneWith(
		[]scene.Texture{{ID: 0, Name: "a", Bytes: 1000}, {ID: 1, Name: "b", Bytes: 1000}},
		[]scene.Object{obj(0, 10, -1, 0), obj(1, 10, -1, 1)},
	)
	if got := TSL(sc, []scene.TextureID{0}, []scene.TextureID{1}); got != 0 {
		t.Errorf("TSL disjoint = %v", got)
	}
	if got := TSL(sc, nil, []scene.TextureID{1}); got != 0 {
		t.Errorf("TSL empty root = %v", got)
	}
}

func TestTSLSingleSharedTexture(t *testing.T) {
	// Root and candidate both sample only the shared texture: TSL = 1.
	sc := sceneWith(
		[]scene.Texture{{ID: 0, Name: "stone", Bytes: 4096}},
		[]scene.Object{obj(0, 10, -1, 0), obj(1, 10, -1, 0)},
	)
	if got := TSL(sc, []scene.TextureID{0}, []scene.TextureID{0}); math.Abs(got-1) >= 1e-12 {
		t.Errorf("TSL fully shared = %v", got)
	}
}

func TestTSLInRangeQuick(t *testing.T) {
	sp, _ := workload.ByAbbr("HL2")
	sc := sp.Generate(640, 480, 1, 3)
	objs := sc.Frames[0].Objects
	f := func(a, b uint16) bool {
		oa := objs[int(a)%len(objs)]
		ob := objs[int(b)%len(objs)]
		v := TSL(sc, oa.Textures, ob.Textures)
		return v >= 0 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGroupFramePillarExample(t *testing.T) {
	// The Figure 12 example: pillar1 and pillar2 share "stone", the flag
	// uses "cloth". The pillars must batch together despite the flag
	// sitting between them in the queue.
	sc := sceneWith(
		[]scene.Texture{{ID: 0, Name: "stone", Bytes: 1 << 20}, {ID: 1, Name: "cloth", Bytes: 1 << 18}},
		[]scene.Object{
			obj(0, 100, -1, 0), // pillar1
			obj(1, 100, -1, 1), // flag
			obj(2, 100, -1, 0), // pillar2
		},
	)
	batches := NewMiddleware().GroupFrame(sc, &sc.Frames[0])
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	b0 := batches[0]
	if len(b0.Objects) != 2 || b0.Objects[0].Index != 0 || b0.Objects[1].Index != 2 {
		t.Errorf("pillars not grouped: %+v", b0.Objects)
	}
	if batches[1].Objects[0].Index != 1 {
		t.Errorf("flag should form its own batch")
	}
}

func TestGroupFrameTriangleCap(t *testing.T) {
	// Objects all share one texture; the cap must split them into batches
	// of bounded size.
	texs := []scene.Texture{{ID: 0, Name: "stone", Bytes: 4096}}
	var objs []scene.Object
	for i := 0; i < 10; i++ {
		objs = append(objs, obj(i, 1000, -1, 0))
	}
	sc := sceneWith(texs, objs)
	m := Middleware{TSLThreshold: 0.5, TriangleCap: 4096}
	batches := m.GroupFrame(sc, &sc.Frames[0])
	if len(batches) < 2 {
		t.Fatalf("cap not applied: %d batches", len(batches))
	}
	for _, b := range batches {
		// A batch may exceed the cap only by its final member.
		if b.Triangles >= 4096+1000 {
			t.Errorf("batch of %d triangles exceeds cap by more than one object", b.Triangles)
		}
	}
}

func TestGroupFrameDependencyMerges(t *testing.T) {
	// Object 2 depends on object 0 but shares no texture with it; the
	// dependency rule must still merge it into object 0's batch.
	sc := sceneWith(
		[]scene.Texture{{ID: 0, Name: "a", Bytes: 4096}, {ID: 1, Name: "b", Bytes: 4096}},
		[]scene.Object{
			obj(0, 100, -1, 0),
			obj(1, 100, -1, 1),
			obj(2, 100, 0, 1),
		},
	)
	batches := NewMiddleware().GroupFrame(sc, &sc.Frames[0])
	found := false
	for _, b := range batches {
		has0, has2 := false, false
		for _, o := range b.Objects {
			if o.Index == 0 {
				has0 = true
			}
			if o.Index == 2 {
				has2 = true
			}
		}
		if has0 && has2 {
			found = true
		}
	}
	if !found {
		t.Errorf("dependent object not merged with its predecessor's batch: %+v", batches)
	}
}

func TestGroupFrameCoversAllObjectsOnce(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	sc := sp.Generate(640, 480, 1, 5)
	batches := NewMiddleware().GroupFrame(sc, &sc.Frames[0])
	seen := map[int]int{}
	for _, b := range batches {
		for _, o := range b.Objects {
			seen[o.Index]++
		}
	}
	if len(seen) != len(sc.Frames[0].Objects) {
		t.Fatalf("batches cover %d of %d objects", len(seen), len(sc.Frames[0].Objects))
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("object %d appears %d times", idx, c)
		}
	}
}

func TestGroupFrameReducesSchedulingUnits(t *testing.T) {
	sp, _ := workload.ByAbbr("HL2")
	sc := sp.Generate(1280, 1024, 1, 2)
	batches := NewMiddleware().GroupFrame(sc, &sc.Frames[0])
	if len(batches) >= len(sc.Frames[0].Objects) {
		t.Errorf("TSL grouping produced %d batches for %d objects; expected real grouping",
			len(batches), len(sc.Frames[0].Objects))
	}
}

func TestGroupFramePropertyQuick(t *testing.T) {
	// Property: for any threshold, batching is a partition of the frame.
	sp, _ := workload.ByAbbr("WE")
	sc := sp.Generate(640, 480, 1, 9)
	f := func(th uint8) bool {
		m := Middleware{TSLThreshold: float64(th%100) / 100, TriangleCap: 4096}
		batches := m.GroupFrame(sc, &sc.Frames[0])
		count := 0
		for _, b := range batches {
			count += len(b.Objects)
			if b.Triangles <= 0 {
				return false
			}
		}
		return count == len(sc.Frames[0].Objects)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPredictorCalibration(t *testing.T) {
	p := &Predictor{}
	if p.Calibrated() {
		t.Fatalf("fresh predictor claims calibration")
	}
	if p.PredictTotal(1000) != 0 {
		t.Errorf("uncalibrated predictor must return 0")
	}
	// 8 batches: 1000 triangles, 2000 cycles each.
	for i := 0; i < CalibrationBatches; i++ {
		if p.Calibrated() {
			t.Fatalf("predictor calibrated after %d of %d batches", i, CalibrationBatches)
		}
		p.Observe(1000, 2000)
	}
	if !p.Calibrated() {
		t.Fatalf("predictor not calibrated after %d batches", CalibrationBatches)
	}
	if p.c0 != 2 {
		t.Errorf("c0 = %v, want 2 cycles/triangle", p.c0)
	}
	if got := p.PredictTotal(500); got != 1000 {
		t.Errorf("PredictTotal(500) = %v", got)
	}
	// Further observations are ignored once calibrated.
	frozen := *p
	p.Observe(1, 1e9)
	if *p != frozen {
		t.Errorf("post-calibration Observe changed the model: %+v, was %+v", *p, frozen)
	}
}

func TestEarliestAvailable(t *testing.T) {
	counters := []GPMCounters{
		{PredictedFree: 100}, {PredictedFree: 50}, {PredictedFree: 200}, {PredictedFree: 50},
	}
	if g := EarliestAvailable(counters); g != 1 {
		t.Errorf("EarliestAvailable = %d, want 1 (tie broken low)", g)
	}
	counters[1].QueuedBatches = MaxBatchQueue
	if g := EarliestAvailable(counters); g != 3 {
		t.Errorf("EarliestAvailable with full queue = %d, want 3", g)
	}
	for i := range counters {
		counters[i].QueuedBatches = MaxBatchQueue
	}
	if g := EarliestAvailable(counters); g != -1 {
		t.Errorf("all-full should return -1, got %d", g)
	}
}

func TestEngineOverheadMatchesPaper(t *testing.T) {
	b := EngineOverhead(4)
	if b.TotalBits() != 960 {
		t.Errorf("4-GPM engine storage = %d bits, Section 5.4 says 960", b.TotalBits())
	}
	if b.CounterBits != 512 || b.BatchIDBits != 64 || b.RegisterBits != 384 {
		t.Errorf("breakdown wrong: %+v", b)
	}
	if PaperAreaMM2 != 0.59 || PaperPowerW != 0.3 {
		t.Errorf("published constants drifted")
	}
}

// TestGrouperRebuildDoesNotAllocate pins that a warmed Grouper regrouping
// every frame from scratch (NoCache) allocates nothing on any evaluation
// case, dependency merges into closed batches included: each batch
// reserves its members' dependents' room in the arenas when it closes.
func TestGrouperRebuildDoesNotAllocate(t *testing.T) {
	deps := 0
	for _, c := range workload.Cases() {
		sc := c.Spec.Generate(c.Width, c.Height, 1, 1)
		f := &sc.Frames[0]
		for i := range f.Objects {
			if f.Objects[i].DependsOn != scene.NoDependency {
				deps++
			}
		}
		mw := NewMiddleware()
		mw.NoCache = true
		g := NewGrouper(mw)
		g.GroupFrame(sc, f) // sizes the scratch and arenas
		if allocs := testing.AllocsPerRun(10, func() { g.GroupFrame(sc, f) }); allocs != 0 {
			t.Errorf("%s: a warmed rebuild allocates %v times", c.Name, allocs)
		}
	}
	if deps == 0 {
		t.Fatal("no case has a dependent draw; the merge path went unexercised")
	}
}
