// Package topology implements the topology-control algorithms the paper
// surveys in Sections 2 and 4: the Nearest Neighbor Forest that nearly all
// of them contain, the classical geometric constructions (Euclidean MST,
// Gabriel Graph, Relative Neighborhood Graph, Yao graph), the
// protocol-style constructions XTC and LMST, and the explicitly
// interference-aware LIFE/LISE algorithms of Burkhart et al. [2] — the
// "notable exception" the paper discusses.
//
// Every algorithm consumes a point set, takes the Unit Disk Graph as the
// communication graph, and emits a spanning subgraph of symmetric links.
// All constructions preserve the connectivity of the UDG (LIFE and the
// MST trivially; the geometric graphs because they contain the MST; XTC
// and LMST by their published proofs — and the property test
// TestAllPreserveConnectivity checks each one on random instances).
package topology

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/udg"
)

// Algorithm is a named topology-control construction.
type Algorithm struct {
	// Name identifies the construction in experiment tables.
	Name string
	// Build computes the topology over pts, treating the unit disk graph
	// as the underlying communication graph.
	Build func(pts []geom.Point) *graph.Graph
	// ContainsNNF records whether the construction provably contains the
	// Nearest Neighbor Forest — the property Theorem 4.1 shows to be a
	// "substantial mistake" under the receiver-centric measure.
	ContainsNNF bool
	// PreservesConnectivity records whether the construction keeps the
	// component structure of the UDG. The NNF alone does not (it is a
	// forest of nearest-neighbor links); it appears in the zoo as the
	// common subgraph of the others and as Theorem 4.1's culprit.
	PreservesConnectivity bool
}

// All returns the full algorithm zoo in presentation order.
func All() []Algorithm {
	return []Algorithm{
		{"NNF", NNF, true, false},
		{"MST", MST, true, true},
		{"RNG", RNG, true, true},
		{"GG", GG, true, true},
		{"XTC", XTC, true, true},
		{"LMST", LMST, true, true},
		{"Yao6", func(pts []geom.Point) *graph.Graph { return Yao(pts, 6) }, true, true},
		{"LIFE", LIFE, false, true},
		{"LISE2", func(pts []geom.Point) *graph.Graph { return LISE(pts, 2) }, false, true},
		{"CBTC", func(pts []geom.Point) *graph.Graph { return CBTC(pts, 2*math.Pi/3) }, true, true},
		{"KNeigh9", func(pts []geom.Point) *graph.Graph { return KNeigh(pts, 9) }, false, false},
		{"RCLISE2", func(pts []geom.Point) *graph.Graph { return RCLISE(pts, 2) }, false, true},
		{"GreedyI", GreedyMinI, false, true},
		{"GreedyAvgI", GreedySumI, false, true},
	}
}

// NNF builds the Nearest Neighbor Forest: every node establishes a
// symmetric link to its nearest neighbor within communication range. The
// result is a forest (cycles would require two consecutive strictly
// shorter edges; ties are broken by index, which preserves acyclicity on
// distinct distances and merely merges trees on ties).
func NNF(pts []geom.Point) *graph.Graph {
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	grid := geom.NewGrid(pts, nnfCell(pts))
	for u := range pts {
		v, d := grid.Nearest(u)
		if v >= 0 && geom.InDisk(pts[u], udg.Radius, pts[v]) {
			g.AddEdge(u, v, d)
		}
	}
	return g
}

// nnfCell picks a spatial-index cell adapted to the instance extent so
// nearest-neighbor queries stay cheap on both dense clusters and
// exponentially spread chains.
func nnfCell(pts []geom.Point) float64 {
	b := geom.Bounds(pts)
	ext := b.Width()
	if b.Height() > ext {
		ext = b.Height()
	}
	if ext <= 0 {
		return 1
	}
	c := ext / float64(len(pts))
	if c <= 0 {
		return 1
	}
	return c
}

// MST builds the Euclidean minimum spanning forest restricted to
// communication range. It contains the NNF: each node's nearest-neighbor
// edge is the lightest edge across the cut separating it from the rest.
func MST(pts []geom.Point) *graph.Graph {
	return graph.EuclideanMST(pts, udg.Radius)
}

// GG builds the Gabriel Graph intersected with the UDG: edge {u,v} is kept
// iff no other node lies strictly inside the disk with diameter uv.
func GG(pts []geom.Point) *graph.Graph {
	return emptyRegionGraph(pts, geom.InGabrielDisk)
}

// RNG builds the Relative Neighborhood Graph intersected with the UDG:
// edge {u,v} is kept iff no other node lies strictly inside the lune of u
// and v. RNG ⊆ GG.
func RNG(pts []geom.Point) *graph.Graph {
	return emptyRegionGraph(pts, geom.InLune)
}

// emptyRegionGraph keeps each UDG edge whose associated region (defined by
// the blocked predicate) contains no third node.
func emptyRegionGraph(pts []geom.Point, blocked func(u, v, w geom.Point) bool) *graph.Graph {
	base := udg.Build(pts)
	g := graph.New(len(pts))
	grid := geom.NewGrid(pts, 1)
	buf := make([]int, 0, 64)
	for _, e := range base.Edges() {
		u, v := pts[e.U], pts[e.V]
		// Any blocking node lies within |uv| of both endpoints; scan the
		// disk around the midpoint with radius |uv| to find candidates.
		buf = grid.Within(u.Mid(v), e.W, buf[:0])
		keep := true
		for _, w := range buf {
			if w == e.U || w == e.V {
				continue
			}
			if blocked(u, v, pts[w]) {
				keep = false
				break
			}
		}
		if keep {
			g.AddEdge(e.U, e.V, e.W)
		}
	}
	return g
}

// Yao builds the symmetric closure of the Yao graph with k cones: every
// node keeps its nearest UDG neighbor in each of k equal angular sectors,
// and an undirected edge appears when either endpoint selected it. k ≥ 6
// guarantees connectivity (the MST is contained for k ≥ 6).
func Yao(pts []geom.Point, k int) *graph.Graph {
	base := udg.Build(pts)
	g := graph.New(len(pts))
	chosen := make([]int, k)
	chosenD := make([]float64, k)
	for u := range pts {
		for c := range chosen {
			chosen[c] = -1
		}
		for _, v := range base.Neighbors(u) {
			c := geom.ConeIndex(pts[u], pts[v], k)
			d := pts[u].Dist(pts[v])
			if chosen[c] < 0 || d < chosenD[c] || (d == chosenD[c] && v < chosen[c]) {
				chosen[c], chosenD[c] = v, d
			}
		}
		for c, v := range chosen {
			if v >= 0 {
				g.AddEdge(u, v, chosenD[c])
			}
		}
	}
	return g
}

// XTC implements the XTC algorithm of Wattenhofer & Zollinger [19]. Each
// node u orders its UDG neighbors by link quality (here Euclidean
// distance, with node index breaking ties, the standard instantiation)
// and drops the link to v iff some node w is better than v from u's view
// AND better than u from v's view — i.e. u and v both have the mutual
// "shortcut" w. The surviving links are exactly the edges with no such w,
// which in the Euclidean metric makes XTC a subgraph of the RNG that
// still contains the MST.
func XTC(pts []geom.Point) *graph.Graph {
	base := udg.Build(pts)
	g := graph.New(len(pts))
	better := func(w, v, u int) bool { // w ≺_u v ?
		dw, dv := pts[u].Dist2(pts[w]), pts[u].Dist2(pts[v])
		if dw != dv {
			return dw < dv
		}
		return w < v
	}
	for _, e := range base.Edges() {
		u, v := e.U, e.V
		drop := false
		for _, w := range base.Neighbors(u) {
			if w == v || !base.HasEdge(v, w) {
				continue
			}
			if better(w, v, u) && better(w, u, v) {
				drop = true
				break
			}
		}
		if !drop {
			g.AddEdge(u, v, e.W)
		}
	}
	return g
}

// LMST implements the Local Minimum Spanning Tree construction of Li,
// Hou & Sha [9]: every node u computes the Euclidean MST of its closed
// 1-hop neighborhood and marks the neighbors adjacent to u on that local
// tree; the final topology keeps edge {u,v} iff both u and v marked each
// other (the LMST "symmetric intersection" variant G₀^-, which preserves
// connectivity).
func LMST(pts []geom.Point) *graph.Graph {
	base := udg.Build(pts)
	n := len(pts)
	marked := make(map[[2]int]bool)
	for u := 0; u < n; u++ {
		hood := append([]int{u}, base.Neighbors(u)...)
		sort.Ints(hood)
		local := make([]geom.Point, len(hood))
		pos := make(map[int]int, len(hood))
		for i, x := range hood {
			local[i] = pts[x]
			pos[x] = i
		}
		lt := graph.EuclideanMST(local, udg.Radius)
		for _, v := range base.Neighbors(u) {
			if lt.HasEdge(pos[u], pos[v]) {
				marked[[2]int{u, v}] = true
			}
		}
	}
	g := graph.New(n)
	for _, e := range base.Edges() {
		if marked[[2]int{e.U, e.V}] && marked[[2]int{e.V, e.U}] {
			g.AddEdge(e.U, e.V, e.W)
		}
	}
	return g
}

// LIFE (Low Interference Forest Establisher, Burkhart et al. [2]) builds
// the spanning forest minimizing the sender-centric coverage of its
// heaviest link: Kruskal over UDG edges ordered by coverage. It is the
// "notable exception" of Section 4 — it does not necessarily contain the
// NNF — yet Theorem 4.1's discussion notes it still performs badly under
// the receiver-centric measure.
func LIFE(pts []geom.Point) *graph.Graph {
	base := udg.Build(pts)
	cov, _ := core.SenderInterference(pts, base)
	covOf := make(map[[2]int]int, len(cov))
	for i, e := range base.Edges() {
		covOf[[2]int{e.U, e.V}] = cov[i]
	}
	return graph.KruskalMSFBy(base, func(e graph.Edge) float64 {
		return float64(covOf[[2]int{e.U, e.V}])
	})
}

// LISE (Low Interference Spanner Establisher, Burkhart et al. [2]) builds
// a spanner with Euclidean stretch at most t while greedily minimizing the
// sender-centric coverage of the heaviest inserted link: edges are
// processed in increasing coverage order and inserted iff the current
// graph does not already connect their endpoints within t times their
// length.
func LISE(pts []geom.Point, t float64) *graph.Graph {
	base := udg.Build(pts)
	cov, _ := core.SenderInterference(pts, base)
	type ce struct {
		e graph.Edge
		c int
	}
	ces := make([]ce, len(cov))
	for i, e := range base.Edges() {
		ces[i] = ce{e, cov[i]}
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
	g := graph.New(len(pts))
	for _, x := range ces {
		d := g.Dijkstra(x.e.U)
		// Disconnected endpoints (d = +Inf) are always joined, which keeps
		// the insert rule meaningful even for t = +Inf (pure forest mode).
		if math.IsInf(d[x.e.V], 1) || d[x.e.V] > t*x.e.W {
			g.AddEdge(x.e.U, x.e.V, x.e.W)
		}
	}
	return g
}
