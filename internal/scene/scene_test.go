package scene

import (
	"bytes"
	"strings"
	"testing"

	"oovr/internal/geom"
)

func box(x0, y0, x1, y1 float64) geom.AABB {
	return geom.AABB{Min: geom.Vec2{X: x0, Y: y0}, Max: geom.Vec2{X: x1, Y: y1}}
}

func validScene() *Scene {
	s := &Scene{
		Name:   "test",
		Width:  640,
		Height: 480,
		Textures: []Texture{
			{ID: 0, Name: "stone", Bytes: 1 << 20},
			{ID: 1, Name: "cloth", Bytes: 1 << 18},
		},
		Frames: []Frame{
			{
				Index: 0,
				Objects: []Object{
					{Index: 0, Name: "pillar1", Triangles: 100, Vertices: 300, FragsPerView: 5000,
						Bounds: box(0, 0, 100, 100), Textures: []TextureID{0}, DependsOn: NoDependency},
					{Index: 1, Name: "flag", Triangles: 50, Vertices: 150, FragsPerView: 2000,
						Bounds: box(50, 50, 150, 150), Textures: []TextureID{1}, DependsOn: NoDependency},
					{Index: 2, Name: "pillar2", Triangles: 80, Vertices: 240, FragsPerView: 4000,
						Bounds: box(200, 0, 300, 100), Textures: []TextureID{0}, DependsOn: NoDependency},
				},
			},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func TestSceneBasics(t *testing.T) {
	s := validScene()
	if s.PixelsPerView() != 640*480 {
		t.Errorf("PixelsPerView = %d", s.PixelsPerView())
	}
	if s.TotalTextureBytes() != 1<<20+1<<18 {
		t.Errorf("TotalTextureBytes = %d", s.TotalTextureBytes())
	}
	if s.Texture(0).Name != "stone" {
		t.Errorf("Texture(0) = %v", s.Texture(0))
	}
	st := s.Stereo()
	if st.Right.X != 640 {
		t.Errorf("stereo right at %d", st.Right.X)
	}
}

func TestFrameAggregates(t *testing.T) {
	f := &validScene().Frames[0]
	if f.Triangles() != 230 {
		t.Errorf("Triangles = %d", f.Triangles())
	}
	if f.FragsPerView() != 11000 {
		t.Errorf("FragsPerView = %v", f.FragsPerView())
	}
}

func TestObjectVertexBytes(t *testing.T) {
	o := &validScene().Frames[0].Objects[0]
	if o.VertexBytes() != 300*BytesPerVertex {
		t.Errorf("VertexBytes = %d", o.VertexBytes())
	}
}

func TestFragsInRectUniformDensity(t *testing.T) {
	o := &Object{FragsPerView: 1000, Bounds: box(0, 0, 100, 100)}
	// Half the bounds -> half the fragments.
	if got := o.FragsInRect(box(0, 0, 50, 100)); got != 500 {
		t.Errorf("half rect frags = %v", got)
	}
	if got := o.FragsInRect(box(0, 0, 100, 100)); got != 1000 {
		t.Errorf("full rect frags = %v", got)
	}
	if got := o.FragsInRect(box(200, 200, 300, 300)); got != 0 {
		t.Errorf("disjoint rect frags = %v", got)
	}
	deg := &Object{FragsPerView: 1000, Bounds: box(5, 5, 5, 5)}
	if got := deg.FragsInRect(box(0, 0, 10, 10)); got != 0 {
		t.Errorf("degenerate bounds frags = %v", got)
	}
}

func TestFragsInTilesSumToWhole(t *testing.T) {
	o := &Object{FragsPerView: 1234, Bounds: box(10, 10, 90, 90)}
	full := box(0, 0, 100, 100)
	var sum float64
	for i := 0; i < 4; i++ {
		tile := box(float64(i)*25, 0, float64(i+1)*25, 100)
		sum += o.FragsInRect(tile)
	}
	if !geom.NearlyEqual(sum, o.FragsInRect(full), 1e-9) {
		t.Errorf("tile frags sum %v != whole %v", sum, o.FragsInRect(full))
	}
}

func TestSharingStats(t *testing.T) {
	f := &validScene().Frames[0]
	st := f.Sharing()
	if st.UniqueTextures != 2 {
		t.Errorf("UniqueTextures = %d", st.UniqueTextures)
	}
	if st.TotalReferences != 3 {
		t.Errorf("TotalReferences = %d", st.TotalReferences)
	}
	if st.SharedTextures != 1 {
		t.Errorf("SharedTextures = %d", st.SharedTextures)
	}
	if st.MaxSharers != 2 {
		t.Errorf("MaxSharers = %d", st.MaxSharers)
	}
	if st.AvgSharers() != 1.5 {
		t.Errorf("AvgSharers = %v", st.AvgSharers())
	}
	if (SharingStats{}).AvgSharers() != 0 {
		t.Errorf("empty AvgSharers should be 0")
	}
}

// TestValidateCatchesBadScenes pins one contract per scene rule: Validate
// returns an error naming the violation, and Decode of the encoded scene
// fails with that same text. Ids and indices are positional in the
// encoding, so those three rules cannot reach Decode.
func TestValidateCatchesBadScenes(t *testing.T) {
	mutations := []struct {
		want    string
		mutate  func(*Scene)
		encoded bool
	}{
		{`scene "test": bad resolution 0x480`, func(s *Scene) { s.Width = 0 }, true},
		{`scene "test": texture 1 has id 5`, func(s *Scene) { s.Textures[1].ID = 5 }, false},
		{`scene "test": texture "stone" has size 0`, func(s *Scene) { s.Textures[0].Bytes = 0 }, true},
		{`scene "test": frame 0 has index 3`, func(s *Scene) { s.Frames[0].Index = 3 }, false},
		{`scene "test" frame 0: object 1 has index 9`, func(s *Scene) { s.Frames[0].Objects[1].Index = 9 }, false},
		{`scene "test" frame 0 obj 0: empty geometry`, func(s *Scene) { s.Frames[0].Objects[0].Triangles = 0 }, true},
		{`scene "test" frame 0 obj 0: scene: FragsPerView -1 out of [0,1e+12]`, func(s *Scene) { s.Frames[0].Objects[0].FragsPerView = -1 }, true},
		{`scene "test" frame 0 obj 0: no textures`, func(s *Scene) { s.Frames[0].Objects[0].Textures = nil }, true},
		{`scene "test" frame 0 obj 0: texture 99 out of range`, func(s *Scene) { s.Frames[0].Objects[0].Textures = []TextureID{99} }, true},
		{`scene "test" frame 0 obj 0: dependency 2 not earlier`, func(s *Scene) { s.Frames[0].Objects[0].DependsOn = 2 }, true},
	}
	for _, m := range mutations {
		s := validScene()
		m.mutate(s)
		err := s.Validate()
		if err == nil || err.Error() != m.want {
			t.Errorf("Validate = %v, want %s", err, m.want)
			continue
		}
		if !m.encoded {
			continue
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err == nil || !strings.HasSuffix(err.Error(), ": "+m.want) {
			t.Errorf("Decode = %v, want Validate's text %s", err, m.want)
		}
	}
}

func TestValidDependencyAccepted(t *testing.T) {
	s := validScene()
	s.Frames[0].Objects[2].DependsOn = 0
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}
