package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec2Ops(t *testing.T) {
	a := Vec2{1, 2}
	b := Vec2{3, -4}
	if got := a.Add(b); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
}

func TestAABBBasics(t *testing.T) {
	b := AABB{Vec2{0, 0}, Vec2{4, 3}}
	if b.Area() != 12 || b.Width() != 4 || b.Height() != 3 {
		t.Errorf("basic dims wrong: %v", b)
	}
	o := AABB{Vec2{2, 1}, Vec2{6, 5}}
	i := b.Intersect(o)
	if i.Area() != 2*2 {
		t.Errorf("Intersect area = %v", i.Area())
	}
	u := b.Union(o)
	if u != (AABB{Vec2{0, 0}, Vec2{6, 5}}) {
		t.Errorf("Union = %v", u)
	}
	far := AABB{Vec2{100, 100}, Vec2{101, 101}}
	if !b.Intersect(far).Empty() {
		t.Errorf("disjoint intersect not empty")
	}
}

func TestAABBUnionWithEmpty(t *testing.T) {
	b := AABB{Vec2{0, 0}, Vec2{4, 3}}
	var empty AABB
	if b.Union(empty) != b || empty.Union(b) != b {
		t.Errorf("union with empty should return the non-empty box")
	}
}

func TestAABBClamp(t *testing.T) {
	b := AABB{Vec2{-5, -5}, Vec2{5, 5}}
	r := AABB{Vec2{0, 0}, Vec2{10, 10}}
	c := b.Clamp(r)
	if c != (AABB{Vec2{0, 0}, Vec2{5, 5}}) {
		t.Errorf("Clamp = %v", c)
	}
	disjoint := AABB{Vec2{20, 20}, Vec2{30, 30}}
	c2 := disjoint.Clamp(r)
	if !c2.Empty() {
		t.Errorf("Clamp of disjoint box should be empty, got %v", c2)
	}
}

func TestViewportBasics(t *testing.T) {
	v := Viewport{X: 10, Y: 20, Width: 100, Height: 50}
	b := v.Bounds()
	if b.Width() != 100 || b.Height() != 50 {
		t.Errorf("Bounds = %v", b)
	}
	if b.Min != (Vec2{10, 20}) {
		t.Errorf("Bounds origin = %v", b.Min)
	}
}

func TestSideBySideStereo(t *testing.T) {
	s := SideBySide(640, 480)
	if s.Left.Width != 640 || s.Right.X != 640 {
		t.Errorf("SideBySide layout wrong: %+v", s)
	}
	if s.Combined().Width() != 1280 {
		t.Errorf("Combined width = %v", s.Combined().Width())
	}
	shift := s.EyeShift()
	if shift != (Vec2{640, 0}) {
		t.Errorf("EyeShift = %v", shift)
	}
}

// Property: AABB intersection is commutative and contained in both inputs.
func TestAABBIntersectPropertyQuick(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		norm := func(lo, hi float64) (float64, float64) {
			lo, hi = math.Mod(lo, 50), math.Mod(hi, 50)
			if lo > hi {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		ax, bx := norm(a, b)
		ay, by := norm(c, d)
		cx, dx := norm(e, g)
		cy, dy := norm(h, i)
		b1 := AABB{Vec2{ax, ay}, Vec2{bx, by}}
		b2 := AABB{Vec2{cx, cy}, Vec2{dx, dy}}
		i1 := b1.Intersect(b2)
		i2 := b2.Intersect(b1)
		if i1.Empty() != i2.Empty() {
			return false
		}
		if i1.Empty() {
			return true
		}
		return i1 == i2 && i1.Area() <= b1.Area()+1e-9 && i1.Area() <= b2.Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
