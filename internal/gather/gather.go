// Package gather implements the directed data-gathering setting of the
// paper's precursor, Fussen, Wattenhofer & Zollinger [4]: every node
// reports toward a sink along a tree, transmitting only to its parent, so
// node u's radius is r_u = |u, parent(u)| and the sink stays silent. The
// receiver-centric interference definition is the same disk count as
// Definition 3.1 — this package exists to make the paper's adaptation
// concrete: the undirected model charges every node for its farthest
// neighbor in either direction, the directed model only for the uplink.
//
// Tree constructors: the shortest-path tree and MST baselines, and a
// greedy minimum-interference tree (the directed analogue of
// topology.GreedyMinI, using the same lazy-greedy engine).
package gather

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lazy"
	"repro/internal/udg"
)

// Tree is a directed gathering tree: Parent[v] is v's uplink target, -1
// for the sink and for nodes unreachable from it.
type Tree struct {
	Sink   int
	Parent []int
}

// Validate checks structural sanity: the sink has no parent, every
// parented node eventually reaches the sink, and no parent edge exceeds
// the unit range.
func (t Tree) Validate(pts []geom.Point) error {
	n := len(pts)
	if t.Sink < 0 || t.Sink >= n {
		return fmt.Errorf("gather: sink %d out of range", t.Sink)
	}
	if len(t.Parent) != n {
		return fmt.Errorf("gather: parent array length %d != %d", len(t.Parent), n)
	}
	if t.Parent[t.Sink] != -1 {
		return fmt.Errorf("gather: sink has a parent")
	}
	for v, p := range t.Parent {
		if p == -1 {
			continue
		}
		if p < 0 || p >= n || p == v {
			return fmt.Errorf("gather: node %d has invalid parent %d", v, p)
		}
		if !geom.InDisk(pts[v], udg.Radius, pts[p]) {
			return fmt.Errorf("gather: uplink %d->%d length %v exceeds range", v, p, pts[v].Dist(pts[p]))
		}
		// Walk to the sink with a step bound to catch cycles.
		cur := v
		for steps := 0; cur != t.Sink; steps++ {
			if steps > n {
				return fmt.Errorf("gather: node %d caught in a parent cycle", v)
			}
			cur = t.Parent[cur]
			if cur == -1 {
				return fmt.Errorf("gather: node %d's parent chain leaves the tree", v)
			}
		}
	}
	return nil
}

// Radii returns the directed radii: r_v = |v, parent(v)|, 0 for the sink
// and unattached nodes.
func (t Tree) Radii(pts []geom.Point) []float64 {
	r := make([]float64, len(pts))
	for v, p := range t.Parent {
		if p >= 0 {
			r[v] = pts[v].Dist(pts[p])
		}
	}
	return r
}

// Interference returns the per-node receiver-centric interference under
// the directed radii.
func (t Tree) Interference(pts []geom.Point) core.Vector {
	return core.InterferenceRadii(pts, t.Radii(pts))
}

// Depth returns the maximum hop count to the sink (0 for a sink-only
// tree; unattached nodes are ignored).
func (t Tree) Depth() int {
	depth := 0
	for v, p := range t.Parent {
		if p == -1 {
			continue
		}
		d, cur := 0, v
		for cur != t.Sink {
			cur = t.Parent[cur]
			d++
		}
		if d > depth {
			depth = d
		}
	}
	return depth
}

// Undirected returns the tree as an undirected topology, the form the
// paper's model evaluates: each uplink becomes a symmetric edge, so every
// inner node's radius grows to its farthest child or parent.
func (t Tree) Undirected(pts []geom.Point) *graph.Graph {
	g := graph.New(len(pts))
	for v, p := range t.Parent {
		if p >= 0 {
			g.AddEdge(v, p, pts[v].Dist(pts[p]))
		}
	}
	return g
}

// ShortestPathTree returns the Dijkstra tree of the UDG toward the sink —
// the natural routing baseline.
func ShortestPathTree(pts []geom.Point, sink int) Tree {
	base := udg.Build(pts)
	n := len(pts)
	parent := make([]int, n)
	dist := make([]float64, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = math.Inf(1)
	}
	dist[sink] = 0
	h := &nodeHeap{{sink, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(nodeDist)
		if it.d > dist[it.v] {
			continue
		}
		for _, w := range base.Neighbors(it.v) {
			nd := it.d + pts[it.v].Dist(pts[w])
			if nd < dist[w] {
				dist[w] = nd
				parent[w] = it.v
				heap.Push(h, nodeDist{w, nd})
			}
		}
	}
	return Tree{Sink: sink, Parent: parent}
}

// MSTTree roots the range-limited Euclidean MST at the sink.
func MSTTree(pts []geom.Point, sink int) Tree {
	mst := graph.EuclideanMST(pts, udg.Radius)
	n := len(pts)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	// BFS orientation toward the sink.
	queue := []int{sink}
	seen := make([]bool, n)
	seen[sink] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range mst.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return Tree{Sink: sink, Parent: parent}
}

// GreedyMinITree grows the gathering tree from the sink, always attaching
// the outside node whose uplink minimizes the resulting directed
// interference (ties: shorter uplink, then smaller ids). Because an
// uplink only sets the CHILD's radius, each evaluation grows a single
// disk — the directed problem is even more local than the undirected one.
// The lazy-greedy engine applies unchanged (radii only grow): an uplink
// enters the heap under the current I(G') as its lower bound and is
// priced, read-only, only when it reaches the top.
func GreedyMinITree(pts []geom.Point, sink int) Tree {
	n := len(pts)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	inc := core.NewEvaluator(pts)
	inTree := make([]bool, n)
	inTree[sink] = true

	// A candidate reads (cost, w, child, parent): U is the child.
	dead := func(c lazy.Cand) bool { return inTree[c.U] }
	cost := func(c lazy.Cand) int { return inc.MaxIfGrown(c.U, -1, c.W) }
	var h lazy.Heap
	var nbrs []int
	pushFrontier := func(u int) {
		nbrs = inc.Grid().Within(pts[u], udg.Radius, nbrs[:0])
		for _, v := range nbrs {
			if v != u && !inTree[v] {
				h.Push(lazy.Cand{Cost: inc.Max(), W: pts[u].Dist(pts[v]), U: v, V: u})
			}
		}
	}
	pushFrontier(sink)
	for {
		c, ok := h.Pop(dead, cost)
		if !ok {
			break
		}
		parent[c.U] = c.V
		inc.GrowTo(c.U, c.W)
		inTree[c.U] = true
		pushFrontier(c.U)
	}
	return Tree{Sink: sink, Parent: parent}
}

type nodeDist struct {
	v int
	d float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
