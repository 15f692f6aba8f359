package topology

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lazy"
	"repro/internal/udg"
)

// RCLISE is LISE re-targeted at the paper's measure: build a t-spanner of
// the UDG while greedily minimizing the RECEIVER-centric interference
// I(G') instead of the sender-centric coverage of [2]. Edges are chosen
// by the exact interference the partial topology would have after adding
// them (ties by shorter length, then ids); an edge is added only when its
// endpoints are not yet connected within t times its length; the loop
// ends when every UDG edge is t-spanned.
//
// Like GreedyMinI this uses lazy greedy (internal/lazy): I(G') is
// monotone in the edge set, so a stale evaluation is a lower bound and
// the heap's usual re-check argument applies; and "already spanned" is
// absorbing (edges only shrink distances), so spanned candidates are
// dropped for good. Every UDG edge is priced when pushed, read-only by
// core.Evaluator.MaxIfGrown: each pop pays a Dijkstra for the spanned
// test, so exact keys that spare re-pushes pay for themselves.
func RCLISE(pts []geom.Point, t float64) *graph.Graph {
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	inc := core.NewEvaluator(pts)
	spanned := func(c lazy.Cand) bool {
		d := g.Dijkstra(c.U)
		return d[c.V] <= t*c.W*(1+1e-9) && !math.IsInf(d[c.V], 1)
	}
	cost := func(c lazy.Cand) int { return inc.MaxIfGrown(c.U, c.V, c.W) }

	var h lazy.Heap
	var nbrs []int
	for u, p := range pts {
		nbrs = inc.Grid().Within(p, udg.Radius, nbrs[:0])
		for _, v := range nbrs {
			if v > u {
				c := lazy.Cand{W: p.Dist(pts[v]), U: u, V: v}
				c.Cost = cost(c)
				h.Push(c)
			}
		}
	}
	for {
		c, ok := h.Pop(spanned, cost)
		if !ok {
			break
		}
		g.AddEdge(c.U, c.V, c.W)
		inc.GrowTo(c.U, c.W)
		inc.GrowTo(c.V, c.W)
	}
	return g
}
