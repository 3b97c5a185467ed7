package workload

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"oovr/internal/scene"
)

func TestBenchmarksMatchTable3(t *testing.T) {
	want := map[string]struct {
		draws int
		lib   string
		nRes  int
	}{
		"DM3": {191, "OpenGL", 3},
		"HL2": {328, "DirectX", 3},
		"NFS": {1267, "DirectX", 1},
		"UT3": {876, "DirectX", 1},
		"WE":  {1697, "DirectX", 1},
	}
	bs := Benchmarks()
	if len(bs) != 5 {
		t.Fatalf("got %d benchmarks, Table 3 lists 5", len(bs))
	}
	for _, b := range bs {
		w, ok := want[b.Abbr]
		if !ok {
			t.Errorf("unexpected benchmark %q", b.Abbr)
			continue
		}
		if b.Draws != w.draws {
			t.Errorf("%s draws = %d, Table 3 says %d", b.Abbr, b.Draws, w.draws)
		}
		if b.Library != w.lib {
			t.Errorf("%s library = %s, Table 3 says %s", b.Abbr, b.Library, w.lib)
		}
		if len(b.Resolutions) != w.nRes {
			t.Errorf("%s resolutions = %d, want %d", b.Abbr, len(b.Resolutions), w.nRes)
		}
	}
}

func TestByAbbr(t *testing.T) {
	if sp, ok := ByAbbr("NFS"); !ok || sp.Name != "Need For Speed" {
		t.Errorf("ByAbbr(NFS) = %v, %v", sp, ok)
	}
	if _, ok := ByAbbr("XXX"); ok {
		t.Errorf("ByAbbr(XXX) should fail")
	}
}

func TestCasesAreTheNinePaperPoints(t *testing.T) {
	got := Cases()
	var names []string
	for _, c := range got {
		names = append(names, c.Name)
	}
	want := []string{
		"DM3-640", "DM3-1280", "DM3-1600",
		"HL2-640", "HL2-1280", "HL2-1600",
		"NFS", "UT3", "WE",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("case names = %v, want %v", names, want)
	}
	if c, ok := CaseByName("HL2-1280"); !ok || c.Width != 1280 || c.Height != 1024 {
		t.Errorf("CaseByName(HL2-1280) = %+v, %v", c, ok)
	}
	if _, ok := CaseByName("nope"); ok {
		t.Errorf("CaseByName(nope) should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sp, _ := ByAbbr("DM3")
	a := sp.Generate(640, 480, 2, 42)
	b := sp.Generate(640, 480, 2, 42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different scenes")
	}
	c := sp.Generate(640, 480, 2, 43)
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced identical scenes")
	}
}

func TestGenerateMatchesSpecShape(t *testing.T) {
	for _, cs := range Cases() {
		sc := cs.Spec.Generate(cs.Width, cs.Height, 2, 1)
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(sc.Frames) != 2 {
			t.Errorf("%s: frames = %d", cs.Name, len(sc.Frames))
		}
		for _, f := range sc.Frames {
			if len(f.Objects) != cs.Spec.Draws {
				t.Errorf("%s: draws = %d, spec says %d", cs.Name, len(f.Objects), cs.Spec.Draws)
			}
		}
		if len(sc.Textures) != cs.Spec.TextureCount+cs.Spec.Draws {
			t.Errorf("%s: textures = %d, spec says %d shared + %d private",
				cs.Name, len(sc.Textures), cs.Spec.TextureCount, cs.Spec.Draws)
		}
	}
}

func TestGenerateFragmentBudget(t *testing.T) {
	sp, _ := ByAbbr("HL2")
	sc := sp.Generate(1280, 1024, 1, 7)
	frags := sc.Frames[0].FragsPerView()
	want := float64(1280*1024) * sp.Overdraw
	// Jitter is capped at roughly ±15%.
	if frags < want*0.8 || frags > want*1.2 {
		t.Errorf("frame fragments = %v, want about %v", frags, want)
	}
}

func TestGenerateBoundsInsideViewport(t *testing.T) {
	sp, _ := ByAbbr("UT3")
	sc := sp.Generate(1280, 1024, 1, 3)
	for _, o := range sc.Frames[0].Objects {
		b := o.Bounds
		if b.Min.X < -1e-9 || b.Min.Y < -1e-9 || b.Max.X > 1280+1e-9 || b.Max.Y > 1024+1e-9 {
			t.Fatalf("object %d bounds %v outside viewport", o.Index, b)
		}
	}
}

func TestGenerateTextureSharingExists(t *testing.T) {
	sp, _ := ByAbbr("DM3")
	sc := sp.Generate(1280, 1024, 1, 11)
	st := sc.Frames[0].Sharing()
	if st.SharedTextures == 0 {
		t.Fatalf("no shared textures: the TSL grouping experiment needs sharing")
	}
	if st.AvgSharers() < 1.5 {
		t.Errorf("avg sharers = %v, want clustered sharing > 1.5", st.AvgSharers())
	}
}

func TestGenerateDependenciesBackwardOnly(t *testing.T) {
	sp, _ := ByAbbr("WE")
	sc := sp.Generate(640, 480, 1, 5)
	var deps int
	for i, o := range sc.Frames[0].Objects {
		if o.DependsOn != -1 {
			deps++
			if o.DependsOn != i-1 {
				t.Fatalf("object %d depends on %d, generator only emits prev-draw deps", i, o.DependsOn)
			}
		}
	}
	if deps == 0 {
		t.Errorf("no dependencies generated; spec says %v fraction", sp.DependencyFrac)
	}
}

func TestGenerateRejectsZeroFrames(t *testing.T) {
	sp, _ := ByAbbr("DM3")
	defer func() {
		if recover() == nil {
			t.Errorf("zero frames did not panic")
		}
	}()
	sp.Generate(640, 480, 0, 1)
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatalf("Table 1 has %d rows", len(rows))
	}
	vr := rows[1]
	if vr.MPixels != 58.32*2 {
		t.Errorf("VR pixels = %v, Table 1 says 58.32x2", vr.MPixels)
	}
	if vr.FrameLatencyMs != [2]float64{5, 10} {
		t.Errorf("VR latency = %v, Table 1 says 5-10ms", vr.FrameLatencyMs)
	}
	pc := rows[0]
	if pc.FrameLatencyMs != [2]float64{16, 33} {
		t.Errorf("PC latency = %v", pc.FrameLatencyMs)
	}
}

func TestValidationSpecs(t *testing.T) {
	for _, name := range []string{"Sponza", "SanMiguel"} {
		sp := ValidationSpec(name)
		sc := sp.Generate(1280, 1024, 1, 1)
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(sc.Frames[0].Objects) != sp.Draws {
			t.Errorf("%s: draws mismatch", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("unknown validation scene did not panic")
		}
	}()
	ValidationSpec("nope")
}

func TestHeavyTailExists(t *testing.T) {
	// The biggest draw should be much larger than the median: Figure 10's
	// imbalance requires a heavy tail.
	sp, _ := ByAbbr("DM3")
	sc := sp.Generate(1280, 1024, 1, 9)
	objs := sc.Frames[0].Objects
	maxTri, sumTri := 0, 0
	for _, o := range objs {
		if o.Triangles > maxTri {
			maxTri = o.Triangles
		}
		sumTri += o.Triangles
	}
	mean := float64(sumTri) / float64(len(objs))
	if float64(maxTri) < 4*mean {
		t.Errorf("max triangles %d not heavy-tailed vs mean %.0f", maxTri, mean)
	}
}

// TestTextureBindingsDoNotAlias requires every object's Textures to own
// its backing storage up to its capacity: appending to one object's
// bindings must leave every other object's unchanged, on Generate's frames
// and on frames streamed through NextInto (which share frame 0's
// bindings).
func TestTextureBindingsDoNotAlias(t *testing.T) {
	for _, c := range Cases() {
		sc := c.Spec.Generate(c.Width, c.Height, 2, 1)
		for fi := range sc.Frames {
			checkAppendsDoNotAlias(t, fmt.Sprintf("%s Generate frame %d", c.Name, fi), &sc.Frames[fi])
		}
		st := c.Spec.Stream(c.Width, c.Height, 2, 1)
		var f scene.Frame
		for st.NextInto(&f) {
			checkAppendsDoNotAlias(t, fmt.Sprintf("%s NextInto frame %d", c.Name, f.Index), &f)
		}
	}
}

func checkAppendsDoNotAlias(t *testing.T, what string, f *scene.Frame) {
	t.Helper()
	want := make([][]scene.TextureID, len(f.Objects))
	for i := range f.Objects {
		want[i] = slices.Clone(f.Objects[i].Textures)
	}
	for i := range f.Objects {
		_ = append(f.Objects[i].Textures, -1)
		for j := range f.Objects {
			if !slices.Equal(f.Objects[j].Textures, want[j]) {
				t.Fatalf("%s: appending to object %d's textures changed object %d's: %v, want %v",
					what, i, j, f.Objects[j].Textures, want[j])
			}
		}
	}
}

// TestStreamsSharingAPrefixDoNotAlias opens two streams of each case that
// share one cached prefix. Appending to one stream's bindings and editing
// its frames' objects and header must leave the other stream's frames and
// header, and the cached frame 0, unchanged.
func TestStreamsSharingAPrefixDoNotAlias(t *testing.T) {
	for _, c := range Cases() {
		resetPrefixes()
		a := c.Spec.Stream(c.Width, c.Height, 3, 1)
		b := c.Spec.Stream(c.Width, c.Height, 3, 1)
		pre := cached(c.Spec, c.Width, c.Height, 1)
		if pre == nil || a.pre != pre || b.pre != pre {
			t.Fatalf("%s: the two streams do not share the cached prefix", c.Name)
		}
		base := slices.Clone(pre.base.Objects)
		for i := range base {
			base[i].Textures = slices.Clone(base[i].Textures)
		}
		_, wantB := drain(c.Spec.Stream(c.Width, c.Height, 3, 1))
		wantH := b.Header()

		ha := a.Header()
		ha.Textures[0].Name, ha.Capacity.VertexBytes[0] = "edited", -1
		var f scene.Frame
		for a.NextInto(&f) {
			checkAppendsDoNotAlias(t, fmt.Sprintf("%s stream a frame %d", c.Name, f.Index), &f)
			for i := range f.Objects {
				o := &f.Objects[i]
				o.Textures = append(o.Textures, -2)
				o.Name, o.Triangles, o.FragsPerView = "edited", -1, -1
			}
		}
		if h, got := drain(b); !reflect.DeepEqual(got, wantB) || !reflect.DeepEqual(h, wantH) {
			t.Errorf("%s: editing stream a's frames or header changed stream b's", c.Name)
		}
		if !reflect.DeepEqual(pre.base.Objects, base) {
			t.Errorf("%s: editing stream a's frames changed the cached frame 0", c.Name)
		}
	}
}

// TestRecipeBoundsKeepSizesInRange re-derives Validate's bounds: the
// largest NormFloat64 stays under maxNorm, and at every bound the largest
// triangle count's VertexBytes and the largest texture fit in int64.
func TestRecipeBoundsKeepSizesInRange(t *testing.T) {
	const rn = 3.442619855899 // math/rand's ziggurat tail start
	if z := rn + 63*math.Ln2/rn; z >= maxNorm {
		t.Errorf("NormFloat64 can reach %v, past maxNorm %v", z, float64(maxNorm))
	}
	f := math.Exp(maxNorm*maxSigma - maxSigma*maxSigma/2)
	if vb := maxMeanTriangles * f * 2 * scene.BytesPerVertex; vb >= math.MaxInt64 {
		t.Errorf("VertexBytes can reach %g", vb)
	}
	if b := maxTextureKB * 1024 * f; b >= math.MaxInt64 {
		t.Errorf("a texture can reach %g bytes", b)
	}
	edge := Benchmarks()[0]
	edge.MeanTriangles, edge.TriSigma, edge.TexSigma = maxMeanTriangles, maxSigma, maxSigma
	edge.MeanTextureKB, edge.PrivateTexKB = maxTextureKB, maxTextureKB
	if err := edge.Validate(); err != nil {
		t.Errorf("a recipe at the bounds: %v", err)
	}
	for _, c := range Cases() {
		if err := c.Spec.Validate(); err != nil {
			t.Errorf("built-in %s: %v", c.Name, err)
		}
	}
}
