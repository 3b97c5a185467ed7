package scene

import (
	"encoding/json"
	"fmt"
	"io"

	"oovr/internal/geom"
)

// The JSON trace format lets users feed their own profiled rendering traces
// to the simulator instead of the synthetic Table 3 stand-ins — the
// equivalent of the paper's ATTILA Common Driver Layer traces. The schema
// is versioned and validated on load.

// codecVersion is bumped on breaking schema changes.
const codecVersion = 1

type jsonScene struct {
	Version  int           `json:"version"`
	Name     string        `json:"name"`
	Width    int           `json:"width"`
	Height   int           `json:"height"`
	Textures []jsonTexture `json:"textures"`
	Frames   []jsonFrame   `json:"frames"`
}

type jsonTexture struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

type jsonFrame struct {
	Objects []jsonObject `json:"objects"`
}

type jsonObject struct {
	Name         string     `json:"name"`
	Triangles    int        `json:"triangles"`
	Vertices     int        `json:"vertices"`
	FragsPerView float64    `json:"frags_per_view"`
	Bounds       [4]float64 `json:"bounds"` // minX, minY, maxX, maxY
	Textures     []int      `json:"textures"`
	DependsOn    *int       `json:"depends_on,omitempty"`
}

// Encode writes the scene as versioned JSON.
func (s *Scene) Encode(w io.Writer) error {
	js := jsonScene{
		Version: codecVersion,
		Name:    s.Name,
		Width:   s.Width,
		Height:  s.Height,
	}
	for _, t := range s.Textures {
		js.Textures = append(js.Textures, jsonTexture{Name: t.Name, Bytes: t.Bytes})
	}
	for fi := range s.Frames {
		var jf jsonFrame
		for oi := range s.Frames[fi].Objects {
			o := &s.Frames[fi].Objects[oi]
			jo := jsonObject{
				Name:         o.Name,
				Triangles:    o.Triangles,
				Vertices:     o.Vertices,
				FragsPerView: o.FragsPerView,
				Bounds:       [4]float64{o.Bounds.Min.X, o.Bounds.Min.Y, o.Bounds.Max.X, o.Bounds.Max.Y},
			}
			for _, t := range o.Textures {
				jo.Textures = append(jo.Textures, int(t))
			}
			if o.DependsOn != NoDependency {
				dep := o.DependsOn
				jo.DependsOn = &dep
			}
			jf.Objects = append(jf.Objects, jo)
		}
		js.Frames = append(js.Frames, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

// Decode reads a versioned JSON scene and validates it. It returns a
// descriptive error rather than panicking on malformed input (traces come
// from outside the program).
func Decode(r io.Reader) (*Scene, error) {
	var js jsonScene
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("scene: decode: %w", err)
	}
	if js.Version != codecVersion {
		return nil, fmt.Errorf("scene: unsupported trace version %d (want %d)", js.Version, codecVersion)
	}
	s := &Scene{Name: js.Name, Width: js.Width, Height: js.Height}
	for i, t := range js.Textures {
		s.Textures = append(s.Textures, Texture{ID: TextureID(i), Name: t.Name, Bytes: t.Bytes})
	}
	for fi, jf := range js.Frames {
		frame := Frame{Index: fi}
		for oi, jo := range jf.Objects {
			o := Object{
				Index:        oi,
				Name:         jo.Name,
				Triangles:    jo.Triangles,
				Vertices:     jo.Vertices,
				FragsPerView: jo.FragsPerView,
				Bounds: geom.AABB{
					Min: geom.Vec2{X: jo.Bounds[0], Y: jo.Bounds[1]},
					Max: geom.Vec2{X: jo.Bounds[2], Y: jo.Bounds[3]},
				},
				DependsOn: NoDependency,
			}
			for _, t := range jo.Textures {
				o.Textures = append(o.Textures, TextureID(t))
			}
			if jo.DependsOn != nil {
				o.DependsOn = *jo.DependsOn
			}
			frame.Objects = append(frame.Objects, o)
		}
		s.Frames = append(s.Frames, frame)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scene: invalid trace: %w", err)
	}
	return s, nil
}
