package oracle

import (
	"container/heap"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/udg"
)

// GreedyMinI is the eager reference for topology.GreedyMinI: the same
// Prim-style greedy over the (cost, w, u, v) order, where cost is I(G')
// after tentatively adding the edge, but every cut edge is priced when it
// is pushed — grow both endpoints, read Max, restore — from the UDG's
// adjacency, and re-priced on pop, where it is accepted if it still
// beats the next key. The optimized builder, which pushes the current
// I(G') unevaluated and prices read-only on pop only, must return the
// same edges in the same order with bit-equal weights.
func GreedyMinI(pts []geom.Point) *graph.Graph {
	base := udg.Build(pts)
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	inc := core.NewEvaluator(pts)
	inTree := make([]bool, len(pts))

	evaluate := func(u, v int, w float64) int {
		oldU := inc.GrowTo(u, w)
		oldV := inc.GrowTo(v, w)
		cand := inc.Max()
		inc.SetRadius(u, oldU)
		inc.SetRadius(v, oldV)
		return cand
	}

	h := &candHeap{}
	pushFrontier := func(u int) {
		for _, v := range base.Neighbors(u) {
			if !inTree[v] {
				w := pts[u].Dist(pts[v])
				heap.Push(h, candidate{cost: evaluate(u, v, w), w: w, u: u, v: v})
			}
		}
	}

	for start := 0; start < len(pts); start++ {
		if inTree[start] || base.Degree(start) == 0 {
			continue
		}
		inTree[start] = true
		h.items = h.items[:0]
		pushFrontier(start)
		for h.Len() > 0 {
			c := heap.Pop(h).(candidate)
			if inTree[c.v] {
				continue
			}
			// Lazy re-evaluation: the stored cost is a lower bound.
			cur := evaluate(c.u, c.v, c.w)
			if cur != c.cost && h.Len() > 0 && !c.less(candidate{cost: cur, w: c.w, u: c.u, v: c.v}, h.items[0]) {
				c.cost = cur
				heap.Push(h, c)
				continue
			}
			g.AddEdge(c.u, c.v, c.w)
			inc.GrowTo(c.u, c.w)
			inc.GrowTo(c.v, c.w)
			inTree[c.v] = true
			pushFrontier(c.v)
		}
	}
	return g
}

// candidate is a cut edge with its last-evaluated interference cost.
type candidate struct {
	cost int
	w    float64
	u, v int
}

// less orders candidates by (cost, w, u, v) — the greedy tie-break.
func (candidate) less(a, b candidate) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.w != b.w {
		return a.w < b.w
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

type candHeap struct {
	items []candidate
}

func (h *candHeap) Len() int { return len(h.items) }
func (h *candHeap) Less(i, j int) bool {
	var c candidate
	return c.less(h.items[i], h.items[j])
}
func (h *candHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *candHeap) Push(x interface{}) { h.items = append(h.items, x.(candidate)) }
func (h *candHeap) Pop() interface{} {
	old := h.items
	it := old[len(old)-1]
	h.items = old[:len(old)-1]
	return it
}
