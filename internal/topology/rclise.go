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
// test, bounded at t times the candidate's length, so exact keys that
// spare re-pushes pay for themselves.
func RCLISE(pts []geom.Point, t float64) *graph.Graph {
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	inc := core.NewEvaluator(pts)
	var sc spanCheck
	spanned := func(c lazy.Cand) bool { return sc.within(g, c.U, c.V, t*c.W*(1+1e-9)) }
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

// spanCheck answers RCLISE's spanned test: whether g has a u–v path of
// length at most bound. Dijkstra from u stops once v is settled or the
// next settled distance exceeds bound; every node settled later is at
// least that far, so the verdict is a full run's d[v] <= bound. The
// distances are stamped and the heap reused, so a check allocates
// nothing once the scratch has grown to g's size.
type spanCheck struct {
	dist  []float64
	at    []uint32 // dist[x] is set iff at[x] == stamp
	stamp uint32
	heap  []spanItem
}

type spanItem struct {
	d float64
	v int
}

func (s *spanCheck) within(g *graph.Graph, u, v int, bound float64) bool {
	if n := g.N(); len(s.dist) < n {
		s.dist, s.at, s.stamp = make([]float64, n), make([]uint32, n), 0
	}
	if s.stamp++; s.stamp == 0 {
		clear(s.at)
		s.stamp = 1
	}
	dist := func(x int) float64 {
		if s.at[x] != s.stamp {
			return math.Inf(1)
		}
		return s.dist[x]
	}
	s.dist[u], s.at[u] = 0, s.stamp
	s.heap = append(s.heap[:0], spanItem{0, u})
	for len(s.heap) > 0 {
		it := s.pop()
		switch {
		case it.d > dist(it.v):
			continue // stale entry
		case it.d > bound:
			return false
		case it.v == v:
			return true
		}
		for _, x := range g.Neighbors(it.v) {
			w, _ := g.EdgeWeight(it.v, x)
			if nd := it.d + w; nd < dist(x) {
				s.dist[x], s.at[x] = nd, s.stamp
				s.push(spanItem{nd, x})
			}
		}
	}
	return false
}

// push and pop keep s.heap a binary min-heap on d.
func (s *spanCheck) push(it spanItem) {
	h := append(s.heap, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

func (s *spanCheck) pop() spanItem {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].d < h[c].d {
			c++
		}
		if h[i].d <= h[c].d {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
	return top
}
