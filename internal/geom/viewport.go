package geom

// Viewport describes a rectangular render target region in pixels. In the
// paper's programming model every object carries two viewports, viewportL
// and viewportR, one per eye (Section 5.1).
type Viewport struct {
	X, Y          int // top-left origin in the framebuffer
	Width, Height int
}

// Bounds returns the viewport rectangle as an AABB.
func (v Viewport) Bounds() AABB {
	return AABB{
		Min: Vec2{float64(v.X), float64(v.Y)},
		Max: Vec2{float64(v.X + v.Width), float64(v.Y + v.Height)},
	}
}

// StereoPair holds the per-eye viewports of a stereo render target. The
// paper's auto-model generates the right viewport by shifting the original
// along the X coordinate (Section 5.1); SideBySide implements that layout.
type StereoPair struct {
	Left, Right Viewport
}

// SideBySide builds a stereo pair for a per-eye resolution of w x h pixels,
// left eye at x=0 and right eye at x=w, matching the paper's Figure 5 where
// the display X range [-W, +W] becomes [-3/2 W, 0] and [0, +3/2 W] halves.
func SideBySide(w, h int) StereoPair {
	return StereoPair{
		Left:  Viewport{X: 0, Y: 0, Width: w, Height: h},
		Right: Viewport{X: w, Y: 0, Width: w, Height: h},
	}
}

// Combined returns the union rectangle covering both eyes.
func (s StereoPair) Combined() AABB { return s.Left.Bounds().Union(s.Right.Bounds()) }

// EyeShift returns the screen-space translation that re-projects a primitive
// rendered in the left viewport into the right viewport. The SMP engine
// applies this shift instead of re-running the geometry stage.
func (s StereoPair) EyeShift() Vec2 {
	return Vec2{
		X: float64(s.Right.X - s.Left.X),
		Y: float64(s.Right.Y - s.Left.Y),
	}
}
