// Package graph provides the undirected-graph substrate shared by the
// interference model and the topology-control algorithms: adjacency
// structures over indexed nodes, connectivity, minimum spanning trees,
// shortest paths, and degree/stretch statistics.
//
// Nodes are identified by their index in a companion point slice (see
// internal/geom); edges are unordered pairs of indices. Topologies in the
// paper consist exclusively of symmetric (undirected) links, so this
// package has no directed variant.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between node indices U and V with Euclidean
// length W. Invariant maintained by NewEdge: U < V, so edges compare and
// deduplicate cheaply.
type Edge struct {
	U, V int
	W    float64
}

// NewEdge returns the canonical form of the edge {u, v} (smaller index
// first). It panics on self-loops, which never occur in the paper's
// topologies and would corrupt radius computations.
func NewEdge(u, v int, w float64) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v, W: w}
}

// Graph is an undirected graph over n nodes indexed 0..n-1, stored as both
// an adjacency list (for traversals) and an edge list (for algorithms that
// scan edges, such as Kruskal and the interference evaluator).
type Graph struct {
	n     int
	adj   [][]int
	edges []Edge
	// edgeSet deduplicates; key packs (u,v) with u < v.
	edgeSet map[[2]int]int // -> index into edges
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		n:       n,
		adj:     make([][]int, n),
		edgeSet: make(map[[2]int]int),
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	for i := range g.adj {
		if len(g.adj[i]) > 0 {
			c.adj[i] = append([]int(nil), g.adj[i]...)
		}
	}
	for k, v := range g.edgeSet {
		c.edgeSet[k] = v
	}
	return c
}

// AddNode appends an isolated node and returns its index, n-1 of the
// grown graph. Existing nodes, edges and the edge order are unchanged.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// Rethread rebuilds every adjacency list in edge-list order: the order a
// graph built edge by edge from Edges() has. Edges and their order are
// unchanged. It costs O(n + m) and allocates nothing.
func (g *Graph) Rethread() {
	for u := range g.adj {
		g.adj[u] = g.adj[u][:0]
	}
	for _, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], e.V)
		g.adj[e.V] = append(g.adj[e.V], e.U)
	}
}

// DeleteNode removes node x and its edges in place, renumbering every
// node above x down by one. The surviving edges keep their order, and
// the graph ends exactly as one built edge by edge from its new Edges()
// (adjacency lists rethreaded in edge-list order). It appends x's former
// neighbours, renumbered and in edge-list order, to dst and returns it.
// It costs O(n + m) and reuses the graph's storage.
func (g *Graph) DeleteNode(x int, dst []int) []int {
	if x < 0 || x >= g.n {
		panic(fmt.Sprintf("graph: delete node %d out of range [0,%d)", x, g.n))
	}
	remap := func(v int) int {
		if v > x {
			return v - 1
		}
		return v
	}
	clear(g.edgeSet)
	kept := g.edges[:0]
	for _, e := range g.edges {
		switch x {
		case e.U:
			dst = append(dst, remap(e.V))
			continue
		case e.V:
			dst = append(dst, e.U)
			continue
		}
		e.U, e.V = remap(e.U), remap(e.V)
		g.edgeSet[[2]int{e.U, e.V}] = len(kept)
		kept = append(kept, e)
	}
	g.edges = kept
	copy(g.adj[x:], g.adj[x+1:])
	g.adj[g.n-1] = nil
	g.adj = g.adj[:g.n-1]
	g.n--
	g.Rethread()
	return dst
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u, v} with weight w. Inserting an
// edge that already exists is a no-op (the first weight wins); this makes
// constructions that discover the same link from both endpoints — XTC,
// LMST, Yao — simple to write. It reports whether the edge was new.
func (g *Graph) AddEdge(u, v int, w float64) bool {
	e := NewEdge(u, v, w)
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	key := [2]int{e.U, e.V}
	if _, ok := g.edgeSet[key]; ok {
		return false
	}
	g.edgeSet[key] = len(g.edges)
	g.edges = append(g.edges, e)
	g.adj[e.U] = append(g.adj[e.U], e.V)
	g.adj[e.V] = append(g.adj[e.V], e.U)
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it
// was present. The edge list compacts with a swap-remove, so Edges
// order is not stable across removals. Cost is O(deg(u) + deg(v)).
func (g *Graph) RemoveEdge(u, v int) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	i, ok := g.edgeSet[key]
	if !ok {
		return false
	}
	delete(g.edgeSet, key)
	last := len(g.edges) - 1
	if i != last {
		moved := g.edges[last]
		g.edges[i] = moved
		g.edgeSet[[2]int{moved.U, moved.V}] = i
	}
	g.edges = g.edges[:last]
	g.dropAdj(u, v)
	g.dropAdj(v, u)
	return true
}

// dropAdj removes v from u's adjacency list (swap-remove).
func (g *Graph) dropAdj(u, v int) {
	a := g.adj[u]
	for i, w := range a {
		if w == v {
			a[i] = a[len(a)-1]
			g.adj[u] = a[:len(a)-1]
			return
		}
	}
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	_, ok := g.edgeSet[[2]int{u, v}]
	return ok
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	if u == v {
		return 0, false
	}
	if u > v {
		u, v = v, u
	}
	i, ok := g.edgeSet[[2]int{u, v}]
	if !ok {
		return 0, false
	}
	return g.edges[i].W, true
}

// Neighbors returns the adjacency list of u (shared slice; do not mutate).
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns Δ, the maximum node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for i := range g.adj {
		if len(g.adj[i]) > d {
			d = len(g.adj[i])
		}
	}
	return d
}

// Edges returns the edge list (shared slice; do not mutate).
func (g *Graph) Edges() []Edge { return g.edges }

// SortedEdges returns a copy of the edge list sorted by weight, breaking
// ties by (U, V) so results are deterministic across runs.
func (g *Graph) SortedEdges() []Edge {
	es := append([]Edge(nil), g.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].W != es[j].W {
			return es[i].W < es[j].W
		}
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// Components labels each node with a component id in [0, k) and returns
// the labels and the component count k. Isolated nodes form singleton
// components.
func (g *Graph) Components() ([]int, int) {
	label := make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	k := 0
	stack := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = k
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.adj[u] {
				if label[v] < 0 {
					label[v] = k
					stack = append(stack, v)
				}
			}
		}
		k++
	}
	return label, k
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	_, k := g.Components()
	return k == 1
}

// SameComponents reports whether g and h (over the same node set) have
// identical connected-component partitions. Topology control must
// preserve the connectivity of the input graph; this is the check.
func SameComponents(g, h *Graph) bool {
	if g.n != h.n {
		return false
	}
	lg, kg := g.Components()
	lh, kh := h.Components()
	if kg != kh {
		return false
	}
	// Component ids are assigned in first-seen order of node index, so two
	// identical partitions produce identical label slices.
	for i := range lg {
		if lg[i] != lh[i] {
			return false
		}
	}
	return true
}

// BFSHops returns the hop distance from src to every node (-1 when
// unreachable).
func (g *Graph) BFSHops(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
