// Package core implements the paper's primary contribution: the robust,
// receiver-centric interference model for wireless ad-hoc networks
// (Definitions 3.1 and 3.2), together with the sender-centric coverage
// measure of Burkhart et al. [2] that the paper argues against, and the
// incremental evaluator used by scan-line algorithms and local search.
//
// # Model
//
// Given a point set V and a topology G' = (V, E') of symmetric links,
// every node u transmits with the minimum power reaching its farthest
// neighbor, so its transmission radius is
//
//	r_u = max_{v ∈ N_u} |u, v|   (0 when u has no neighbors).
//
// The disk D(u, r_u) contains every node possibly affected when u sends.
// The interference experienced by a node v is the number of other nodes
// whose disks cover v (Definition 3.1):
//
//	I(v) = |{u ≠ v : v ∈ D(u, r_u)}| ,
//
// and the interference of the topology is I(G') = max_v I(v)
// (Definition 3.2). Self-interference is never counted.
//
// The measure is receiver-centric — it counts disturbance where message
// collisions actually happen — and robust: one additional node raises any
// I(v) by at most 1, in contrast to the sender-centric measure, which a
// single arrival can push from O(1) to n (the paper's Figure 1).
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Radii returns the transmission radius r_u of every node under topology
// g: the distance to its farthest neighbor, 0 for isolated nodes. The
// topology must be over exactly len(pts) nodes.
func Radii(pts []geom.Point, g *graph.Graph) []float64 {
	if g.N() != len(pts) {
		panic(fmt.Sprintf("core: topology over %d nodes, %d points", g.N(), len(pts)))
	}
	return EdgeRadii(len(pts), g.Edges())
}

// EdgeRadii is Radii for a topology given as an edge list over n nodes.
func EdgeRadii(n int, edges []graph.Edge) []float64 {
	r := make([]float64, n)
	for _, e := range edges {
		if e.W > r[e.U] {
			r[e.U] = e.W
		}
		if e.W > r[e.V] {
			r[e.V] = e.W
		}
	}
	return r
}

// Vector holds per-node interference values I(v).
type Vector []int

// Max returns I(G') = max_v I(v), 0 for an empty vector.
func (iv Vector) Max() int {
	m := 0
	for _, x := range iv {
		if x > m {
			m = x
		}
	}
	return m
}

// Mean returns the average node interference, 0 for an empty vector.
func (iv Vector) Mean() float64 {
	if len(iv) == 0 {
		return 0
	}
	s := 0
	for _, x := range iv {
		s += x
	}
	return float64(s) / float64(len(iv))
}

// ArgMax returns the index of a node attaining the maximum interference
// (the smallest such index), or -1 for an empty vector.
func (iv Vector) ArgMax() int {
	best, bestI := -1, -1
	for i, x := range iv {
		if x > bestI {
			best, bestI = i, x
		}
	}
	return best
}

// Interference evaluates Definition 3.1 for every node of the topology g
// over pts, returning the per-node vector. Use Vector.Max for I(G').
//
// The evaluation is grid-accelerated: each disk D(u, r_u) is enumerated
// once, so total cost is O(n + Σ_u |D(u, r_u) ∩ V|), the output-sensitive
// optimum.
func Interference(pts []geom.Point, g *graph.Graph) Vector {
	return InterferenceRadii(pts, Radii(pts, g))
}

// InterferenceRadii evaluates Definition 3.1 directly from a radius
// assignment. The interference of a topology depends only on its radius
// vector, a fact the exact optimum solver in internal/opt exploits; this
// entry point keeps the two packages consistent by construction.
func InterferenceRadii(pts []geom.Point, radii []float64) Vector {
	if len(radii) != len(pts) {
		panic("core: radius vector length mismatch")
	}
	if len(pts) == 0 {
		return make(Vector, 0)
	}
	grid := geom.NewGrid(pts, gridCell(pts))
	return accumulateInterference(grid, pts, radii, 1, nil)
}

// CoveredBy returns the indices of the nodes whose disks cover v under
// topology g (the witnesses behind I(v)), excluding v itself, in
// ascending order.
//
// The query is grid-accelerated like InterferenceRadii: every covering
// node is within r_max of v, so one range query bounded by the largest
// radius finds all candidates — O(|D(v, r_max) ∩ V|) instead of a full
// scan. oracle.CoveredBy is the O(n) reference.
func CoveredBy(pts []geom.Point, g *graph.Graph, v int) []int {
	radii := Radii(pts, g)
	maxR := 0.0
	for _, r := range radii {
		if r > maxR {
			maxR = r
		}
	}
	if maxR <= 0 {
		return nil
	}
	grid := geom.NewGrid(pts, gridCell(pts))
	var out []int
	for _, u := range grid.Within(pts[v], maxR, nil) {
		if u != v && radii[u] > 0 && geom.InDisk(pts[u], radii[u], pts[v]) {
			out = append(out, u)
		}
	}
	sort.Ints(out)
	return out
}

// GridCell exposes the evaluator's cell-size heuristic, so other indexes
// over the same point set size their cells the same way.
func GridCell(pts []geom.Point) float64 { return gridCell(pts) }

// gridCell picks a cell size for interference evaluation: the mean
// nearest-extent heuristic — 1/√n of the bounding-box diagonal — keeps
// cell occupancy O(1) for roughly uniform instances while degrading
// gracefully (never below a small floor) for degenerate ones.
func gridCell(pts []geom.Point) float64 {
	b := geom.Bounds(pts)
	w, h := b.Width(), b.Height()
	ext := w
	if h > ext {
		ext = h
	}
	if ext <= 0 {
		return 1
	}
	cell := ext / float64(1+isqrt(len(pts)))
	if cell <= 0 {
		return 1
	}
	return cell
}

// isqrt returns ⌊√n⌋ for non-negative n. math.Sqrt gives the answer in
// one instruction; the adjustment loops absorb the at-most-one-off
// rounding of the float path (exact squares near 2^53 could otherwise
// round either way), keeping the result exact for all inputs.
func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	i := int(math.Sqrt(float64(n)))
	for i > 0 && i*i > n {
		i--
	}
	for (i+1)*(i+1) <= n {
		i++
	}
	return i
}
