package topology

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lazy"
	"repro/internal/udg"
)

// GreedyMinI grows a spanning forest that minimizes the receiver-centric
// interference greedily, in the spirit of the data-gathering trees of
// Fussen, Wattenhofer & Zollinger [4] that inspired the paper's measure:
// starting from each component's first node, it repeatedly attaches the
// outside node whose connecting edge minimizes the resulting I(G') —
// evaluated exactly with the incremental evaluator — breaking ties by
// shorter edge, then smaller ids.
//
// Unlike the NNF-containing constructions, the greedy tree will happily
// skip a nearest neighbor whose link would cover many nodes, which is
// precisely what Theorem 4.1's gadget punishes the zoo for; and unlike
// LIFE it optimizes the receiver-centric objective directly.
//
// Implementation: lazy greedy (internal/lazy). Radii only grow as the
// tree grows, so the current I(G') is a lower bound on any cut edge's
// cost: a cut edge enters the heap under that bound, unevaluated, once
// per directed pair, and is priced exactly — read-only, by
// core.Evaluator.MaxIfGrown — only when it reaches the top. The accepted
// edge is the argmin of the exact (cost, w, u, v) keys, so the output
// equals the eager greedy's that prices every cut edge (kept as
// oracle.GreedyMinI), at the cost of the candidates the tree pops.
// Neighbours come from the evaluator's grid; no UDG is built.
func GreedyMinI(pts []geom.Point) *graph.Graph {
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	inc := core.NewEvaluator(pts)
	inTree := make([]bool, len(pts))
	var h lazy.Heap
	var nbrs []int
	pushFrontier := func(u int) {
		nbrs = inc.Grid().Within(pts[u], udg.Radius, nbrs[:0])
		for _, v := range nbrs {
			if v != u && !inTree[v] {
				h.Push(lazy.Cand{Cost: inc.Max(), W: pts[u].Dist(pts[v]), U: u, V: v})
			}
		}
	}
	dead := func(c lazy.Cand) bool { return inTree[c.V] }
	cost := func(c lazy.Cand) int { return inc.MaxIfGrown(c.U, c.V, c.W) }

	for start := range pts {
		if inTree[start] {
			continue
		}
		inTree[start] = true
		pushFrontier(start)
		for {
			c, ok := h.Pop(dead, cost)
			if !ok {
				break
			}
			g.AddEdge(c.U, c.V, c.W)
			inc.GrowTo(c.U, c.W)
			inc.GrowTo(c.V, c.W)
			inTree[c.V] = true
			pushFrontier(c.V)
		}
	}
	return g
}

// GreedySumI is GreedyMinI's sibling for the AVERAGE-interference
// objective: it grows a spanning forest greedily minimizing the TOTAL
// interference Σ_v I(v) — equivalently the total disk coverage
// Σ_u |D(u, r_u) ∩ V \ {u}| — instead of the maximum that Definition 3.2
// takes. Follow-up literature studies both objectives; having both
// greedy constructions makes the max-vs-average trade-off measurable
// (the X5/MC harness reports mean interference alongside the maximum).
//
// The attachment cost of an edge is the exact coverage increase
// |annulus(u; old r, new r)| + |D(v, |uv|)| − self-counts, computed from
// the grid index; costs only grow as radii grow, so the same lazy-greedy
// engine applies. Keys are exact at push time: the coverage increase
// has no cheap lower bound above zero.
func GreedySumI(pts []geom.Point) *graph.Graph {
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	grid := geom.NewGrid(pts, core.GridCell(pts))
	radii := make([]float64, len(pts))
	inTree := make([]bool, len(pts))

	// coverage increase if u and v grow to w.
	cost := func(c lazy.Cand) int {
		n := 0
		for _, x := range [2]int{c.U, c.V} {
			if c.W > radii[x] {
				n += grid.CountWithin(pts[x], c.W) - grid.CountWithin(pts[x], radii[x])
			}
		}
		return n
	}
	dead := func(c lazy.Cand) bool { return inTree[c.V] }

	var h lazy.Heap
	var nbrs []int
	pushFrontier := func(u int) {
		nbrs = grid.Within(pts[u], udg.Radius, nbrs[:0])
		for _, v := range nbrs {
			if v != u && !inTree[v] {
				c := lazy.Cand{W: pts[u].Dist(pts[v]), U: u, V: v}
				c.Cost = cost(c)
				h.Push(c)
			}
		}
	}
	for start := range pts {
		if inTree[start] {
			continue
		}
		inTree[start] = true
		pushFrontier(start)
		for {
			c, ok := h.Pop(dead, cost)
			if !ok {
				break
			}
			g.AddEdge(c.U, c.V, c.W)
			if c.W > radii[c.U] {
				radii[c.U] = c.W
			}
			if c.W > radii[c.V] {
				radii[c.V] = c.W
			}
			inTree[c.V] = true
			pushFrontier(c.V)
		}
	}
	return g
}
