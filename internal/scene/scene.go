// Package scene models the rendering workload the way the paper's
// characterization does: a frame is an ordered list of objects (draw
// commands), each object carries its geometry volume, its screen-space
// coverage per eye, and the set of textures it samples. Textures are shared
// between objects — the data-locality feature OO-VR exploits.
package scene

import (
	"fmt"

	"oovr/internal/geom"
)

// BytesPerVertex is the size of one application-issued vertex (position,
// normal, UV — the typical 32-byte interleaved layout of the era's games).
const BytesPerVertex = 32

// BytesPerPixel is the framebuffer color footprint per pixel (RGBA8).
const BytesPerPixel = 4

// TextureID identifies a texture in the scene's pool.
type TextureID int

// Texture is one sampled image with its storage footprint.
type Texture struct {
	ID    TextureID
	Name  string
	Bytes int64
}

// NoDependency marks an object with no ordering dependency.
const NoDependency = -1

// Object is one draw command: a mesh with materials, drawn into both eye
// viewports. In the paper's terminology this is the unit the object-level
// SFR distributes and the unit the OO-VR programming model attaches
// viewportL/viewportR to (Section 5.1).
type Object struct {
	// Index is the object's position in its frame's draw order.
	Index int
	// Name is a diagnostic label ("pillar1", "flag", ...).
	Name string
	// Triangles is the triangle count after assembly.
	Triangles int
	// Vertices is the application-issued vertex count.
	Vertices int
	// FragsPerView is the number of fragments the object shades in one eye's
	// view, overdraw included.
	FragsPerView float64
	// Bounds is the object's screen-space bounding box in *left-eye viewport
	// coordinates*; the right-eye footprint is Bounds shifted by the stereo
	// eye shift.
	Bounds geom.AABB
	// Textures are the texture ids the object samples.
	Textures []TextureID
	// DependsOn is the Index of an earlier object that must render first
	// (alpha blending order), or NoDependency.
	DependsOn int
}

// VertexBytes returns the vertex buffer footprint of the object.
func (o *Object) VertexBytes() int64 { return int64(o.Vertices) * BytesPerVertex }

// FragsInRect estimates the object's fragments (one view) that fall inside
// r, assuming uniform fragment density over Bounds. Tile-level SFR uses
// this to split the object across screen tiles.
func (o *Object) FragsInRect(r geom.AABB) float64 {
	area := o.Bounds.Area()
	if area <= 0 {
		return 0
	}
	inter := o.Bounds.Intersect(r)
	if inter.Empty() {
		return 0
	}
	return o.FragsPerView * inter.Area() / area
}

// Frame is one rendered frame: an ordered draw list.
type Frame struct {
	Index   int
	Objects []Object
}

// Triangles returns the frame's total triangle count.
func (f *Frame) Triangles() int {
	var t int
	for i := range f.Objects {
		t += f.Objects[i].Triangles
	}
	return t
}

// FragsPerView returns the frame's total per-view fragment count.
func (f *Frame) FragsPerView() float64 {
	var t float64
	for i := range f.Objects {
		t += f.Objects[i].FragsPerView
	}
	return t
}

// Capacity pre-declares the allocation envelope of a scene whose frames
// arrive incrementally (a frame stream): the simulator sizes its vertex
// buffers and command staging at bind time, so a streamed scene must say
// up front how large its frames can get. Generators that materialize every
// frame may leave it zero — the envelope is then derived from the frames.
type Capacity struct {
	// MaxObjects is the largest per-frame draw count.
	MaxObjects int
	// VertexBytes[i] is the vertex-buffer footprint allocated for object
	// index i (the largest that object gets in any frame).
	VertexBytes []int64
}

// Scene is a full workload: a texture pool and a frame sequence rendered at
// a given per-eye resolution. A *streamed* scene carries the texture pool
// and a declared Capacity but no materialized Frames; its frames are
// submitted one at a time to a rendering session.
type Scene struct {
	// Name identifies the benchmark ("HL2-1280", ...).
	Name string
	// Width, Height are the per-eye resolution.
	Width, Height int
	// Textures is the shared texture pool.
	Textures []Texture
	// Frames is the frame sequence (empty for streamed scenes).
	Frames []Frame
	// Capacity is the streamed-scene allocation envelope; zero derives the
	// envelope from Frames.
	Capacity Capacity
}

// MaxObjects returns the largest per-frame draw count the simulator must
// accommodate: the declared capacity and the materialized frames, combined.
func (s *Scene) MaxObjects() int {
	n := s.Capacity.MaxObjects
	if len(s.Capacity.VertexBytes) > n {
		n = len(s.Capacity.VertexBytes)
	}
	for fi := range s.Frames {
		if len(s.Frames[fi].Objects) > n {
			n = len(s.Frames[fi].Objects)
		}
	}
	return n
}

// VertexCapacities returns the per-object-index vertex-buffer allocation
// sizes: the declared capacity joined with the largest footprint each
// object index reaches across materialized frames.
func (s *Scene) VertexCapacities() []int64 {
	out := make([]int64, s.MaxObjects())
	copy(out, s.Capacity.VertexBytes)
	for fi := range s.Frames {
		objs := s.Frames[fi].Objects
		for i := range objs {
			if vb := objs[i].VertexBytes(); vb > out[i] {
				out[i] = vb
			}
		}
	}
	return out
}

// Stereo returns the side-by-side stereo viewport pair for the scene.
func (s *Scene) Stereo() geom.StereoPair { return geom.SideBySide(s.Width, s.Height) }

// PixelsPerView returns the per-eye pixel count.
func (s *Scene) PixelsPerView() int { return s.Width * s.Height }

// Texture returns the texture with the given id.
func (s *Scene) Texture(id TextureID) Texture { return s.Textures[int(id)] }

// TotalTextureBytes returns the pool's aggregate size.
func (s *Scene) TotalTextureBytes() int64 {
	var b int64
	for _, t := range s.Textures {
		b += t.Bytes
	}
	return b
}

// Validate checks internal consistency and returns an error describing
// the first violation. Generators panic on it before returning a scene;
// Decode returns it.
func (s *Scene) Validate() error {
	if s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("scene %q: bad resolution %dx%d", s.Name, s.Width, s.Height)
	}
	for ti, t := range s.Textures {
		if int(t.ID) != ti {
			return fmt.Errorf("scene %q: texture %d has id %d", s.Name, ti, t.ID)
		}
		if t.Bytes <= 0 {
			return fmt.Errorf("scene %q: texture %q has size %d", s.Name, t.Name, t.Bytes)
		}
	}
	for fi := range s.Frames {
		f := &s.Frames[fi]
		if f.Index != fi {
			return fmt.Errorf("scene %q: frame %d has index %d", s.Name, fi, f.Index)
		}
		for oi := range f.Objects {
			o := &f.Objects[oi]
			if o.Index != oi {
				return fmt.Errorf("scene %q frame %d: object %d has index %d", s.Name, fi, oi, o.Index)
			}
			if o.Triangles <= 0 || o.Vertices <= 0 {
				return fmt.Errorf("scene %q frame %d obj %d: empty geometry", s.Name, fi, oi)
			}
			if o.FragsPerView < 0 {
				return fmt.Errorf("scene %q frame %d obj %d: negative fragments", s.Name, fi, oi)
			}
			if len(o.Textures) == 0 {
				return fmt.Errorf("scene %q frame %d obj %d: no textures", s.Name, fi, oi)
			}
			for _, tid := range o.Textures {
				if int(tid) < 0 || int(tid) >= len(s.Textures) {
					return fmt.Errorf("scene %q frame %d obj %d: texture %d out of range", s.Name, fi, oi, tid)
				}
			}
			if o.DependsOn != NoDependency && (o.DependsOn < 0 || o.DependsOn >= oi) {
				return fmt.Errorf("scene %q frame %d obj %d: dependency %d not earlier", s.Name, fi, oi, o.DependsOn)
			}
		}
	}
	return nil
}

// SharingStats summarizes the texture-sharing structure of a frame — the
// property Section 4.3's characterization hinges on.
type SharingStats struct {
	// UniqueTextures is the number of distinct textures the frame samples.
	UniqueTextures int
	// TotalReferences is the number of (object, texture) references.
	TotalReferences int
	// SharedTextures is the number of textures referenced by >1 object.
	SharedTextures int
	// MaxSharers is the largest number of objects sharing one texture.
	MaxSharers int
}

// AvgSharers returns references per unique texture.
func (st SharingStats) AvgSharers() float64 {
	if st.UniqueTextures == 0 {
		return 0
	}
	return float64(st.TotalReferences) / float64(st.UniqueTextures)
}

// Sharing computes the frame's texture sharing statistics.
func (f *Frame) Sharing() SharingStats {
	count := map[TextureID]int{}
	for i := range f.Objects {
		for _, t := range f.Objects[i].Textures {
			count[t]++
		}
	}
	st := SharingStats{UniqueTextures: len(count)}
	for _, c := range count {
		st.TotalReferences += c
		if c > 1 {
			st.SharedTextures++
		}
		if c > st.MaxSharers {
			st.MaxSharers = c
		}
	}
	return st
}
