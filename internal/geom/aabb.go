package geom

import "math"

// AABB is a screen-space axis-aligned bounding box, min-inclusive and
// max-exclusive when used for pixel coverage.
type AABB struct {
	Min, Max Vec2
}

// Empty reports whether b encloses no area.
func (b AABB) Empty() bool { return b.Max.X <= b.Min.X || b.Max.Y <= b.Min.Y }

// Width returns the horizontal extent of b (zero if empty).
func (b AABB) Width() float64 {
	if b.Empty() {
		return 0
	}
	return b.Max.X - b.Min.X
}

// Height returns the vertical extent of b (zero if empty).
func (b AABB) Height() float64 {
	if b.Empty() {
		return 0
	}
	return b.Max.Y - b.Min.Y
}

// Area returns the area of b (zero if empty).
func (b AABB) Area() float64 { return b.Width() * b.Height() }

// Intersect returns the intersection of b and o. The result may be empty.
func (b AABB) Intersect(o AABB) AABB {
	return AABB{
		Min: Vec2{math.Max(b.Min.X, o.Min.X), math.Max(b.Min.Y, o.Min.Y)},
		Max: Vec2{math.Min(b.Max.X, o.Max.X), math.Min(b.Max.Y, o.Max.Y)},
	}
}

// Union returns the smallest AABB containing both b and o. Empty boxes are
// ignored.
func (b AABB) Union(o AABB) AABB {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return AABB{
		Min: Vec2{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y)},
		Max: Vec2{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y)},
	}
}

// Translate returns b shifted by d.
func (b AABB) Translate(d Vec2) AABB {
	return AABB{Min: b.Min.Add(d), Max: b.Max.Add(d)}
}

// Clamp returns b clipped to the bounds of o.
func (b AABB) Clamp(o AABB) AABB {
	r := b.Intersect(o)
	if r.Empty() {
		// Collapse to a zero-area box at the nearest corner so that callers
		// can keep using Min as an anchor.
		return AABB{Min: r.Min, Max: r.Min}
	}
	return r
}
