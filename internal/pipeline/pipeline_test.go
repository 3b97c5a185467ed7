package pipeline

import (
	"testing"
	"testing/quick"

	"oovr/internal/geom"
	"oovr/internal/gpu"
	"oovr/internal/scene"
)

func testObject() *scene.Object {
	return &scene.Object{
		Index: 0, Name: "obj", Triangles: 1000, Vertices: 2000,
		FragsPerView: 50000,
		Bounds:       geom.AABB{Min: geom.Vec2{}, Max: geom.Vec2{X: 100, Y: 100}},
		Textures:     []scene.TextureID{0},
		DependsOn:    scene.NoDependency,
	}
}

func TestModeString(t *testing.T) {
	if ModeSingleView.String() != "single-view" ||
		ModeBothSMP.String() != "both-smp" ||
		ModeBothSequential.String() != "both-sequential" {
		t.Errorf("mode names wrong")
	}
}

func TestObjectWorkSingleView(t *testing.T) {
	o := testObject()
	w := ObjectWork(o, ModeSingleView, 1, 1)
	if w.Vertices != 2000 || w.SMPTriangles != 0 || w.SetupTriangles != 1000 {
		t.Errorf("single view geometry volumes wrong: %+v", w)
	}
	if w.Fragments != 50000 || w.Pixels != 50000*PixelsPerFragment || w.DrawIssues != 1 {
		t.Errorf("single view fragment volumes wrong: %+v", w)
	}
}

func TestObjectWorkSMPRunsGeometryOnce(t *testing.T) {
	o := testObject()
	smp := ObjectWork(o, ModeBothSMP, 1, 1)
	seq := ObjectWork(o, ModeBothSequential, 1, 1)
	if smp.Vertices != 2000 {
		t.Errorf("SMP must transform each vertex once, got %v", smp.Vertices)
	}
	if seq.Vertices != 4000 {
		t.Errorf("sequential stereo transforms twice, got %v", seq.Vertices)
	}
	if smp.SMPTriangles != 1000 {
		t.Errorf("SMP duplicates each triangle, got %v", smp.SMPTriangles)
	}
	// Both produce the same downstream volumes.
	if smp.Fragments != seq.Fragments || smp.SetupTriangles != seq.SetupTriangles || smp.Pixels != seq.Pixels {
		t.Errorf("downstream volumes differ: smp=%+v seq=%+v", smp, seq)
	}
	if smp.Fragments != 100000 {
		t.Errorf("both-view fragments = %v", smp.Fragments)
	}
}

func TestObjectWorkFragFrac(t *testing.T) {
	o := testObject()
	w := ObjectWork(o, ModeBothSMP, 1, 0.25)
	if w.Fragments != 25000 {
		t.Errorf("fragFrac should scale fragments: %v", w.Fragments)
	}
	// Geometry volumes are not scaled: the GPM still processes the whole
	// mesh to find its tile's fragments.
	if w.Vertices != 2000 || w.SetupTriangles != 2000 {
		t.Errorf("fragFrac must not scale geometry: %+v", w)
	}
}

func TestObjectWorkNegativeFracPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("negative fragFrac did not panic")
		}
	}()
	ObjectWork(testObject(), ModeBothSMP, 1, -1)
}

func TestWorkAddScale(t *testing.T) {
	a := Work{Vertices: 1, SMPTriangles: 2, SetupTriangles: 3, Fragments: 4, Pixels: 5, DrawIssues: 6}
	b := a.Add(a)
	if b.Vertices != 2 || b.DrawIssues != 12 {
		t.Errorf("Add wrong: %+v", b)
	}
}

func TestCyclesPipelineOverlap(t *testing.T) {
	r := gpu.Table2Config().GPMRates()
	// Fragment-bound work: only the fragment stage should determine time
	// (plus issue).
	w := Work{Fragments: 8000, Pixels: 8000, DrawIssues: 1}
	got := Cycles(w, r, 100)
	want := 8000/r.FragmentsPerCycle + 100
	if !geom.NearlyEqual(got, want, 1e-9) {
		t.Errorf("Cycles = %v, want %v", got, want)
	}
	b := Breakdown(w, r, 100)
	if b.Fragment <= b.ROP {
		t.Errorf("expected fragment stage to dominate ROP: %+v", b)
	}
}

func TestCyclesIssueIsSerial(t *testing.T) {
	r := gpu.Table2Config().GPMRates()
	w := Work{Fragments: 8000, DrawIssues: 10}
	with := Cycles(w, r, 50)
	without := Cycles(w, r, 0)
	if with-without != 500 {
		t.Errorf("issue overhead = %v, want 500", with-without)
	}
}

func TestSMPFasterThanSequential(t *testing.T) {
	// The whole point of SMP (Section 3: 27% faster): same object, both
	// views, SMP must cost fewer cycles.
	r := gpu.Table2Config().GPMRates()
	o := testObject()
	o.Vertices = 30000 // geometry-heavy object
	o.Triangles = 15000
	smp := Cycles(ObjectWork(o, ModeBothSMP, 1, 1), r, 100)
	seq := Cycles(ObjectWork(o, ModeBothSequential, 1, 1), r, 100)
	if smp >= seq {
		t.Errorf("SMP (%v cycles) not faster than sequential (%v cycles)", smp, seq)
	}
}

func TestObjectMemVolumes(t *testing.T) {
	o := testObject()
	m := ObjectMemVolumes(o, ModeBothSMP, 1, 1)
	if m.VertexBytes != float64(o.VertexBytes()) {
		t.Errorf("SMP reads vertices once: %v", m.VertexBytes)
	}
	if m.FragsForTexture != 100000*ViewOverlapSMP {
		t.Errorf("SMP samples both views with inter-view reuse: %v", m.FragsForTexture)
	}
	if m.DepthBytes != 100000*DepthBytesPerFragment {
		t.Errorf("DepthBytes = %v", m.DepthBytes)
	}
	if m.ColorBytes != 100000*PixelsPerFragment*scene.BytesPerPixel {
		t.Errorf("ColorBytes = %v", m.ColorBytes)
	}
	if m.CommandBytes != CommandBytesPerDraw {
		t.Errorf("CommandBytes = %v", m.CommandBytes)
	}
	seq := ObjectMemVolumes(o, ModeBothSequential, 1, 1)
	if seq.VertexBytes != 2*float64(o.VertexBytes()) {
		t.Errorf("sequential stereo reads vertices twice: %v", seq.VertexBytes)
	}
	if seq.FragsForTexture <= m.FragsForTexture {
		t.Errorf("sequential stereo must sample more texels than SMP: %v vs %v",
			seq.FragsForTexture, m.FragsForTexture)
	}
	if seq.CommandBytes != 2*CommandBytesPerDraw {
		t.Errorf("sequential stereo issues two draws: %v", seq.CommandBytes)
	}
}

func TestMemVolumesAdd(t *testing.T) {
	a := MemVolumes{VertexBytes: 1, FragsForTexture: 2, DepthBytes: 3, ColorBytes: 4, CommandBytes: 5}
	b := a.Add(a)
	if b.VertexBytes != 2 || b.CommandBytes != 10 {
		t.Errorf("Add wrong: %+v", b)
	}
}

func TestTransformedVertices(t *testing.T) {
	o := testObject()
	w := ObjectWork(o, ModeBothSMP, 1, 1)
	if TransformedVertices(w) != 2000+1000 {
		t.Errorf("TransformedVertices = %v", TransformedVertices(w))
	}
}

// Property: cycles are monotone in every work volume.
func TestCyclesMonotoneQuick(t *testing.T) {
	r := gpu.Table2Config().GPMRates()
	f := func(v, s, fr uint32, extra uint16) bool {
		w := Work{
			Vertices:       float64(v % 1_000_000),
			SetupTriangles: float64(s % 1_000_000),
			Fragments:      float64(fr % 10_000_000),
			Pixels:         float64(fr % 10_000_000),
			DrawIssues:     1,
		}
		bigger := w
		bigger.Fragments += float64(extra)
		bigger.Pixels += float64(extra)
		return Cycles(bigger, r, 10) >= Cycles(w, r, 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: for any object, SMP work is never slower than sequential stereo
// and never faster than a single view.
func TestSMPOrderingQuick(t *testing.T) {
	r := gpu.Table2Config().GPMRates()
	f := func(tris uint16, frags uint32) bool {
		o := &scene.Object{
			Index: 0, Name: "q", Triangles: int(tris%5000) + 1,
			Vertices:     (int(tris%5000) + 1) * 2,
			FragsPerView: float64(frags % 1_000_000),
			Textures:     []scene.TextureID{0},
			DependsOn:    scene.NoDependency,
		}
		single := Cycles(ObjectWork(o, ModeSingleView, 1, 1), r, 50)
		smp := Cycles(ObjectWork(o, ModeBothSMP, 1, 1), r, 50)
		seq := Cycles(ObjectWork(o, ModeBothSequential, 1, 1), r, 50)
		return single <= smp+1e-9 && smp <= seq+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
