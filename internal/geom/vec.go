// Package geom provides the screen-space geometry of the OO-VR object
// model: 2-D points, axis-aligned boxes and the per-eye stereo viewports.
//
// The simulator is transaction-level and object-level: each object is a
// screen-space box carrying per-view fragment counts, so geom supplies no
// matrices, triangles or clipping. It covers exactly what the workload
// model needs: object bounds, the fragment share of a box inside a screen
// tile, and re-projection between the left and right stereo viewports by a
// box shift, the way the paper's SMP (simultaneous multi-projection) engine
// does (Section 5.1).
package geom

import "fmt"

// Vec2 is a 2-component vector, used for screen-space coordinates.
type Vec2 struct {
	X, Y float64
}

// Add returns v + u.
func (v Vec2) Add(u Vec2) Vec2 { return Vec2{v.X + u.X, v.Y + u.Y} }

func (v Vec2) String() string { return fmt.Sprintf("(%g, %g)", v.X, v.Y) }
