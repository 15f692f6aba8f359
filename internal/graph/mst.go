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
// (pass math.Inf(1) for the unrestricted MST). It is EuclideanMSTEdges
// as a graph.
func EuclideanMST(pts []geom.Point, maxLen float64) *Graph {
	t := New(len(pts))
	for _, e := range EuclideanMSTEdges(pts, maxLen) {
		t.AddEdge(e.U, e.V, e.W)
	}
	return t
}

// EuclideanMSTEdges returns the edges of EuclideanMST(pts, maxLen) in
// the order Prim adds them, so a caller that only needs the forest's
// radii or its component count (n minus the edge count) builds no
// graph.
//
// It is Prim's algorithm over a geom.Grid with an indexed binary heap
// keyed by (distance, index): each node relaxes only the nodes within
// maxLen of it, and a relaxation that lowers a node's distance inserts
// it or sifts it up in place, so the heap holds each node at most once
// (≤ n entries, even unrestricted) and a range-limited forest costs
// O(Σ_u |D(u, maxLen) ∩ V| + k log n) for k key decreases rather than
// Θ(n²). The heap extracts the node dense Prim extracts (the smallest
// distance, ties to the smaller index), relaxation uses the same strict
// <, and every component is started from its smallest index in
// ascending order, so the forest is oracle.EuclideanMST's edge for edge,
// in the same order. The query radius is capped at the bounding-box
// diagonal, which every pair lies within, so the unrestricted forest
// takes the same path (at Θ(n²) distance tests, since every query then
// spans the whole grid).
func EuclideanMSTEdges(pts []geom.Point, maxLen float64) []Edge {
	n := len(pts)
	if n == 0 {
		return nil
	}
	b := geom.Bounds(pts)
	r := math.Min(maxLen, math.Hypot(b.Width(), b.Height()))
	// Cells of side r keep a query to 3×3 cells; the 1/√n-of-the-extent
	// floor keeps the cell count O(n) when r is tiny or zero.
	cell := math.Max(r, math.Max(b.Width(), b.Height())/(1+math.Sqrt(float64(n))))
	if !(cell > 0) {
		cell = 1
	}
	grid := geom.NewGrid(pts, cell)

	edges := make([]Edge, 0, n-1)
	inTree := make([]bool, n)
	bestD := make([]float64, n)
	bestTo := make([]int32, n)
	for i := range bestD {
		bestD[i] = math.Inf(1)
	}
	h := newPrimHeap(bestD)
	var buf []int
	for start := 0; start < n; start++ {
		if inTree[start] {
			continue
		}
		bestD[start] = 0
		bestTo[start] = -1
		h.decrease(int32(start))
		for len(h.heap) > 0 {
			u32 := h.pop()
			u := int(u32)
			inTree[u] = true
			if bestTo[u] >= 0 {
				edges = append(edges, NewEdge(int(bestTo[u]), u, bestD[u]))
			}
			buf = grid.Within(pts[u], r, buf[:0])
			for _, v := range buf {
				if inTree[v] {
					continue
				}
				if d := pts[u].Dist(pts[v]); d < bestD[v] {
					bestD[v] = d
					bestTo[v] = u32
					h.decrease(int32(v))
				}
			}
		}
	}
	return edges
}

// primHeap is an indexed binary min-heap of nodes keyed by key[v], ties
// to the smaller index: the extraction order of dense Prim's scan. The
// keys live in the caller's slice, which lowers key[v] and then calls
// decrease(v). pos[v] is v's slot in heap, or -1 while v is not in it.
type primHeap struct {
	key  []float64
	pos  []int32
	heap []int32
}

func newPrimHeap(key []float64) primHeap {
	pos := make([]int32, len(key))
	for i := range pos {
		pos[i] = -1
	}
	return primHeap{key: key, pos: pos}
}

func (h *primHeap) less(a, b int32) bool {
	return h.key[a] < h.key[b] || (h.key[a] == h.key[b] && a < b)
}

// decrease restores the heap order after key[v] was lowered, inserting v
// if it is not in the heap.
func (h *primHeap) decrease(v int32) {
	i := h.pos[v]
	if i < 0 {
		i = int32(len(h.heap))
		h.heap = append(h.heap, v)
	}
	for i > 0 {
		p := (i - 1) / 2
		u := h.heap[p]
		if !h.less(v, u) {
			break
		}
		h.heap[i] = u
		h.pos[u] = i
		i = p
	}
	h.heap[i] = v
	h.pos[v] = i
}

// pop removes and returns the node of least (key, index).
func (h *primHeap) pop() int32 {
	top := h.heap[0]
	h.pos[top] = -1
	last := int32(len(h.heap) - 1)
	v := h.heap[last]
	h.heap = h.heap[:last]
	if last == 0 {
		return top
	}
	i := int32(0)
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.pos[v] = i
	return top
}

// TotalWeight returns the sum of edge weights of g.
func TotalWeight(g *Graph) float64 {
	s := 0.0
	for _, e := range g.Edges() {
		s += e.W
	}
	return s
}
