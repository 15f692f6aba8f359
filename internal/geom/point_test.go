package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(1, 0), Pt(2, 0), 1},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); math.Abs(got-c.want*c.want) > 1e-9 {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by)), Pt(clamp(cx), clamp(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary quick-generated floats into a sane finite range so
// the geometric identities are not destroyed by overflow or NaN.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestBounds(t *testing.T) {
	pts := []Point{Pt(1, 2), Pt(-3, 5), Pt(4, -1)}
	b := Bounds(pts)
	if b.Min != Pt(-3, -1) || b.Max != Pt(4, 5) {
		t.Errorf("Bounds = %+v", b)
	}
	if b.Width() != 7 || b.Height() != 6 {
		t.Errorf("Width/Height = %v/%v", b.Width(), b.Height())
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bounds should contain %v", p)
		}
	}
	if b.Contains(Pt(10, 10)) {
		t.Error("bounds should not contain (10,10)")
	}
}

func TestBoundsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bounds(nil) should panic")
		}
	}()
	Bounds(nil)
}

func TestMidAddSubScale(t *testing.T) {
	p, q := Pt(2, 4), Pt(4, 8)
	if m := p.Mid(q); m != Pt(3, 6) {
		t.Errorf("Mid = %v", m)
	}
	if s := p.Add(q); s != Pt(6, 12) {
		t.Errorf("Add = %v", s)
	}
	if d := q.Sub(p); d != Pt(2, 4) {
		t.Errorf("Sub = %v", d)
	}
	if s := p.Scale(0.5); s != Pt(1, 2) {
		t.Errorf("Scale = %v", s)
	}
}

func TestInDiskBoundary(t *testing.T) {
	// A point exactly on the boundary must count as inside: the paper's
	// disks D(u, r_u) always have the farthest neighbor on the boundary.
	c := Pt(0, 0)
	if !InDisk(c, 1, Pt(1, 0)) {
		t.Error("boundary point should be inside the disk")
	}
	if !InDisk(c, 1, Pt(0, -1)) {
		t.Error("boundary point should be inside the disk")
	}
	if InDisk(c, 1, Pt(1.0001, 0)) {
		t.Error("exterior point should be outside the disk")
	}
	if !InDisk(c, 0, c) {
		t.Error("zero-radius disk should contain its center")
	}
	if InDisk(c, -1, Pt(0.5, 0)) || InDisk(c, -1, c) {
		t.Error("a negative radius is an empty disk")
	}
}

func TestInGabrielDisk(t *testing.T) {
	u, v := Pt(0, 0), Pt(2, 0)
	if !InGabrielDisk(u, v, Pt(1, 0.5)) {
		t.Error("(1,0.5) is inside the diameter disk of (0,0)-(2,0)")
	}
	if InGabrielDisk(u, v, Pt(1, 1)) {
		t.Error("(1,1) is on the boundary, not strictly inside")
	}
	if InGabrielDisk(u, v, Pt(3, 0)) {
		t.Error("(3,0) is outside")
	}
}

func TestInLune(t *testing.T) {
	u, v := Pt(0, 0), Pt(2, 0)
	if !InLune(u, v, Pt(1, 0.2)) {
		t.Error("(1,0.2) is inside the lune")
	}
	if InLune(u, v, Pt(0, 1.99)) {
		t.Error("(0,1.99) is outside the lune (too far from v)")
	}
	if InLune(u, v, Pt(2, 0)) {
		t.Error("an endpoint is not strictly inside the lune")
	}
}

func TestAngle(t *testing.T) {
	u := Pt(0, 0)
	cases := []struct {
		v    Point
		want float64
	}{
		{Pt(1, 0), 0},
		{Pt(0, 1), math.Pi / 2},
		{Pt(-1, 0), math.Pi},
		{Pt(0, -1), 3 * math.Pi / 2},
	}
	for _, c := range cases {
		if got := u.Angle(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Angle to %v = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestConeIndex(t *testing.T) {
	u := Pt(0, 0)
	k := 6
	// Directions in the middle of each of the six cones.
	for i := 0; i < k; i++ {
		a := (float64(i) + 0.5) * 2 * math.Pi / float64(k)
		v := Pt(math.Cos(a), math.Sin(a))
		if got := ConeIndex(u, v, k); got != i {
			t.Errorf("ConeIndex mid-cone %d = %d", i, got)
		}
	}
	// A full turn must never return k.
	if got := ConeIndex(u, Pt(1, -1e-18), k); got < 0 || got >= k {
		t.Errorf("ConeIndex near 2π out of range: %d", got)
	}
}

func TestConeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ConeIndex with k=0 should panic")
		}
	}()
	ConeIndex(Pt(0, 0), Pt(1, 1), 0)
}

func TestPointString(t *testing.T) {
	if s := Pt(1, 2).String(); s != "(1,2)" {
		t.Errorf("String = %q", s)
	}
}
