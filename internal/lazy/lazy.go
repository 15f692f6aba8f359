// Package lazy is the lazy-greedy engine behind the greedy constructions
// (topology.GreedyMinI, GreedySumI and RCLISE, gather.GreedyMinITree): a
// typed binary min-heap of candidate edges, each keyed by a LOWER BOUND on
// its current cost, and the pop-time re-check that turns those bounds into
// the exact argmin.
//
// The constructions only ever grow radii, so a candidate's cost never
// falls: any earlier evaluation — or any other bound, such as the current
// I(G') — stays a lower bound. Pop re-evaluates the least key and accepts
// it when its exact key still beats every stored key; otherwise it pushes
// the candidate back under its exact cost. Keys are compared by the
// order (cost, w, u, v), which is strict as long as each (u, v) is stored
// at most once, so what Pop accepts is the argmin of the exact keys over
// the live candidates, independent of the bounds pushed and of the
// heap's layout.
package lazy

// Cand is a candidate edge: Cost is a lower bound on its cost, W its
// length, and U, V its endpoints in the order the tie-break reads them.
type Cand struct {
	Cost int
	W    float64
	U, V int
}

// less is the greedy order: (Cost, W, U, V).
func (a Cand) less(b Cand) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.W != b.W {
		return a.W < b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// Heap is a binary min-heap of candidates under the greedy order. The
// zero value is empty and ready to use.
type Heap struct {
	items []Cand
}

// Push stores c under its key c.Cost.
func (h *Heap) Push(c Cand) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.less(h.items[p]) {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = c
}

// popMin removes and returns the least candidate; the heap is non-empty.
func (h *Heap) popMin() Cand {
	top := h.items[0]
	n := len(h.items) - 1
	last := h.items[n]
	h.items = h.items[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h.items[r].less(h.items[l]) {
			l = r
		}
		if !h.items[l].less(last) {
			break
		}
		h.items[i] = h.items[l]
		i = l
	}
	h.items[i] = last
	return top
}

// Pop returns the live candidate with the least exact key, Cost set to its
// exact cost, or false once no live candidate is left. dead reports a
// candidate to drop for good; cost evaluates a live one and must be at
// least every key the candidate was stored under.
func (h *Heap) Pop(dead func(Cand) bool, cost func(Cand) int) (Cand, bool) {
	for len(h.items) > 0 {
		c := h.popMin()
		if dead(c) {
			continue
		}
		cur := cost(c)
		if cur != c.Cost {
			c.Cost = cur
			if len(h.items) > 0 && !c.less(h.items[0]) {
				h.Push(c)
				continue
			}
		}
		return c, true
	}
	return Cand{}, false
}
