// Package udg builds Unit Disk Graphs, the standard connectivity model of
// the paper (Clark, Colbourn, Johnson 1990): nodes u and v share an edge
// iff their Euclidean distance is at most the (uniform) maximum
// transmission range, normalized to 1.
//
// Membership is geom.InDisk's range rule, applied through the grid; the
// O(n²) reference constructor is internal/oracle's UDG.
package udg

import (
	"repro/internal/geom"
	"repro/internal/graph"
)

// Radius is the normalized maximum transmission range of every node.
const Radius = 1.0

// Build returns the Unit Disk Graph over pts using the default unit
// radius, grid-accelerated.
func Build(pts []geom.Point) *graph.Graph {
	return BuildRadius(pts, Radius)
}

// BuildRadius returns the disk graph over pts for an arbitrary uniform
// range r: edge {u,v} iff |u,v| <= r.
func BuildRadius(pts []geom.Point, r float64) *graph.Graph {
	g := graph.New(len(pts))
	if len(pts) == 0 || r < 0 {
		return g
	}
	grid := geom.NewGrid(pts, cellFor(r))
	buf := make([]int, 0, 32)
	for i, p := range pts {
		buf = grid.Within(p, r, buf[:0])
		for _, j := range buf {
			if j > i { // each unordered pair once
				g.AddEdge(i, j, p.Dist(pts[j]))
			}
		}
	}
	return g
}

// cellFor picks a grid cell size proportional to the query radius, with a
// floor so a zero radius still builds a valid grid.
func cellFor(r float64) float64 {
	if r <= 0 {
		return 1
	}
	return r
}

// MaxDegree returns Δ of the UDG over pts without materializing the graph;
// used by the highway algorithms, which need only the degree bound.
func MaxDegree(pts []geom.Point, r float64) int {
	if len(pts) == 0 {
		return 0
	}
	grid := geom.NewGrid(pts, cellFor(r))
	d := 0
	for _, p := range pts {
		// CountWithin includes the node itself.
		if c := grid.CountWithin(p, r) - 1; c > d {
			d = c
		}
	}
	return d
}
