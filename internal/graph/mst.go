package graph

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// KruskalMSF returns a minimum spanning forest of g as a new graph over
// the same node set. Ties in edge weight are broken by (U, V) order so the
// forest is deterministic. When g is connected the result is a minimum
// spanning tree.
func KruskalMSF(g *Graph) *Graph {
	t := New(g.N())
	uf := NewUnionFind(g.N())
	for _, e := range g.SortedEdges() {
		if uf.Union(e.U, e.V) {
			t.AddEdge(e.U, e.V, e.W)
		}
	}
	return t
}

// KruskalMSFBy returns a spanning forest of g minimizing the maximum of
// cost(e) over chosen edges in the bottleneck sense: edges are added in
// increasing cost order, skipping cycle-closing edges. With cost = sender-
// centric coverage this is exactly the LIFE algorithm of Burkhart et al.
func KruskalMSFBy(g *Graph, cost func(Edge) float64) *Graph {
	type ce struct {
		e Edge
		c float64
	}
	ces := make([]ce, len(g.Edges()))
	for i, e := range g.Edges() {
		ces[i] = ce{e, cost(e)}
	}
	sort.Slice(ces, func(i, j int) bool {
		if ces[i].c != ces[j].c {
			return ces[i].c < ces[j].c
		}
		if ces[i].e.W != ces[j].e.W {
			return ces[i].e.W < ces[j].e.W
		}
		if ces[i].e.U != ces[j].e.U {
			return ces[i].e.U < ces[j].e.U
		}
		return ces[i].e.V < ces[j].e.V
	})
	t := New(g.N())
	uf := NewUnionFind(g.N())
	for _, x := range ces {
		if uf.Union(x.e.U, x.e.V) {
			t.AddEdge(x.e.U, x.e.V, x.e.W)
		}
	}
	return t
}

// EuclideanMST returns the minimum spanning forest of the complete
// Euclidean graph on pts, restricted to edges of length at most maxLen
// (pass math.Inf(1) for the unrestricted MST). It uses dense Prim, O(n²),
// which is the right tool for the instance sizes of this study and avoids
// materializing the complete edge set.
func EuclideanMST(pts []geom.Point, maxLen float64) *Graph {
	n := len(pts)
	t := New(n)
	if n == 0 {
		return t
	}
	const unseen = -2
	inTree := make([]bool, n)
	bestD := make([]float64, n)
	bestTo := make([]int, n)
	for i := range bestD {
		bestD[i] = math.Inf(1)
		bestTo[i] = unseen
	}
	// Prim from every not-yet-spanned node so forests (disconnected point
	// sets under maxLen) are handled.
	for start := 0; start < n; start++ {
		if inTree[start] {
			continue
		}
		bestD[start] = 0
		bestTo[start] = -1
		for {
			// Extract the cheapest fringe node of this component.
			u, ud := -1, math.Inf(1)
			for v := 0; v < n; v++ {
				if !inTree[v] && bestTo[v] != unseen && bestD[v] < ud {
					u, ud = v, bestD[v]
				}
			}
			if u < 0 {
				break
			}
			inTree[u] = true
			if bestTo[u] >= 0 {
				t.AddEdge(bestTo[u], u, ud)
			}
			for v := 0; v < n; v++ {
				if inTree[v] || v == u {
					continue
				}
				if !geom.InDisk(pts[u], maxLen, pts[v]) {
					continue
				}
				if d := pts[u].Dist(pts[v]); d < bestD[v] {
					bestD[v] = d
					bestTo[v] = u
				}
			}
		}
	}
	return t
}

// TotalWeight returns the sum of edge weights of g.
func TotalWeight(g *Graph) float64 {
	s := 0.0
	for _, e := range g.Edges() {
		s += e.W
	}
	return s
}
