// Package geom provides the small computational-geometry substrate used by
// the interference model and the topology-control algorithms: points,
// distances, bounding boxes, a uniform grid spatial index, and cone
// sectors for Yao-style constructions.
//
// All coordinates are float64 and all distances Euclidean. The package is
// deliberately dependency-free and allocation-conscious: the grid index is
// built once per point set and reused by every range query.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. One-dimensional (highway) instances
// use Y == 0 throughout.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It is the
// preferred comparison primitive: it avoids the square root and is exact
// for comparisons whenever the products do not overflow.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s about the origin.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Mid returns the midpoint of the segment pq.
func (p Point) Mid(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Angle returns the polar angle of the vector from p to q in [0, 2π).
func (p Point) Angle(q Point) float64 {
	a := math.Atan2(q.Y-p.Y, q.X-p.X)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g,%.6g)", p.X, p.Y) }

// Rect is an axis-aligned bounding box. Min is the lower-left corner and
// Max the upper-right; a Rect with Min == Max contains exactly one point.
type Rect struct {
	Min, Max Point
}

// Bounds returns the bounding box of pts. It panics if pts is empty,
// because an empty bounding box has no meaningful representation.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: Bounds of empty point set")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// InDisk reports whether point p lies within (or on) the disk of radius r
// centered at c. This is the containment test behind the paper's
// D(u, r_u) interference disks. A negative radius is an empty disk (the
// grid queries return nothing for it), not the disk of radius |r|.
func InDisk(c Point, r float64, p Point) bool {
	return r >= 0 && c.Dist2(p) <= r*r*diskGrow
}

// diskGrow/diskShrink absorb floating-point noise in disk-boundary tests
// as a RELATIVE factor on the squared radius: the paper's constructions
// place nodes exactly on disk boundaries (a node's farthest neighbor is
// exactly at distance r_u), and exponential node chains mix distances
// spanning hundreds of orders of magnitude, so an absolute epsilon would
// either miss boundaries at large scales or swallow whole sub-chains at
// tiny ones.
const (
	diskGrow   = 1 + 1e-9
	diskShrink = 1 - 1e-9
)

// InGabrielDisk reports whether w lies strictly inside the disk having the
// segment uv as diameter, the emptiness test of the Gabriel graph.
func InGabrielDisk(u, v, w Point) bool {
	c := u.Mid(v)
	r2 := u.Dist2(v) / 4
	return c.Dist2(w) < r2*diskShrink
}

// InLune reports whether w lies strictly inside the lune of u and v: the
// intersection of the open disks of radius |uv| centered at u and at v.
// This is the emptiness test of the Relative Neighborhood Graph.
func InLune(u, v, w Point) bool {
	d2 := u.Dist2(v) * diskShrink
	return u.Dist2(w) < d2 && v.Dist2(w) < d2
}

// ConeIndex returns which of k equal cones around u (cone 0 starting at
// polar angle 0) contains the direction from u to v. Used by Yao graphs.
func ConeIndex(u, v Point, k int) int {
	if k <= 0 {
		panic("geom: ConeIndex with non-positive k")
	}
	a := u.Angle(v)
	idx := int(a / (2 * math.Pi / float64(k)))
	if idx >= k { // guard against a == 2π from rounding
		idx = k - 1
	}
	return idx
}
