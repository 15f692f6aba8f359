package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2, 1.5)
	if e.U != 2 || e.V != 5 || e.W != 1.5 {
		t.Errorf("NewEdge = %+v", e)
	}
}

func TestNewEdgePanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop should panic")
		}
	}()
	NewEdge(3, 3, 1)
}

func TestAddEdgeDedup(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1, 1) {
		t.Error("first insert should be new")
	}
	if g.AddEdge(1, 0, 2) {
		t.Error("reversed duplicate should be rejected")
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 1 {
		t.Errorf("EdgeWeight = %v,%v; first weight should win", w, ok)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Error("degrees wrong after dedup")
	}
}

func TestHasEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 1)
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 1) {
		t.Error("absent edge reported present")
	}
	if g.HasEdge(1, 1) {
		t.Error("self-loop reported present")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge should panic")
		}
	}()
	New(2).AddEdge(0, 5, 1)
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	label, k := g.Components()
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Error("0,1,2 should share a component")
	}
	if label[3] != label[4] {
		t.Error("3,4 should share a component")
	}
	if label[5] == label[0] || label[5] == label[3] {
		t.Error("5 should be isolated")
	}
	if g.Connected() {
		t.Error("graph is not connected")
	}
	g.AddEdge(2, 3, 1)
	g.AddEdge(4, 5, 1)
	if !g.Connected() {
		t.Error("graph should now be connected")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Error("empty and singleton graphs are connected")
	}
}

func TestSameComponents(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	h := New(4)
	h.AddEdge(1, 0, 9)
	h.AddEdge(3, 2, 9)
	if !SameComponents(g, h) {
		t.Error("identical partitions should compare equal")
	}
	h2 := New(4)
	h2.AddEdge(0, 2, 1)
	h2.AddEdge(1, 3, 1)
	if SameComponents(g, h2) {
		t.Error("different partitions should compare unequal")
	}
	if SameComponents(g, New(5)) {
		t.Error("different node counts should compare unequal")
	}
}

func TestBFSHops(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	d := g.BFSHops(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("hops[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Error("clone should be independent")
	}
	if !c.HasEdge(0, 1) {
		t.Error("clone lost an edge")
	}
}

func TestAddNode(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	if idx := g.AddNode(); idx != 2 || g.N() != 3 || g.Degree(2) != 0 {
		t.Fatalf("AddNode = %d, N = %d, deg = %d; want 2, 3, 0", idx, g.N(), g.Degree(2))
	}
	g.AddEdge(2, 0, 2)
	if es := g.Edges(); len(es) != 2 || es[0] != (Edge{0, 1, 1}) || es[1] != (Edge{0, 2, 2}) {
		t.Errorf("edges after AddNode = %v", es)
	}
	if _, k := g.Components(); k != 1 {
		t.Errorf("%d components, want 1", k)
	}
}

// TestRethreadMatchesCopy: after swap-removes have scrambled adjacency
// order, Rethread leaves every list exactly as a graph rebuilt edge by
// edge from Edges() has it.
func TestRethreadMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(12)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(12), rng.Intn(12)
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			g.RemoveEdge(u, v)
		} else {
			g.AddEdge(u, v, float64(i))
		}
	}
	want := New(g.N())
	for _, e := range g.Edges() {
		want.AddEdge(e.U, e.V, e.W)
	}
	edges := append([]Edge(nil), g.Edges()...)
	g.Rethread()
	for u := 0; u < g.N(); u++ {
		got, exp := g.Neighbors(u), want.Neighbors(u)
		if len(got) != len(exp) {
			t.Fatalf("node %d: adjacency %v, want %v", u, got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("node %d: adjacency %v, want %v", u, got, exp)
			}
		}
	}
	for i, e := range g.Edges() {
		if e != edges[i] {
			t.Fatalf("edge %d changed: %v, was %v", i, e, edges[i])
		}
	}
}

func TestSortedEdgesDeterministic(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 0.5)
	es := g.SortedEdges()
	if es[0].W != 0.5 {
		t.Error("lightest edge should come first")
	}
	if es[1].U != 0 || es[1].V != 1 {
		t.Error("ties should break by (U,V)")
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Error("merges should succeed")
	}
	if uf.Union(0, 2) {
		t.Error("redundant merge should fail")
	}
	if !uf.Same(0, 2) || uf.Same(0, 3) {
		t.Error("Same wrong")
	}
	if uf.Sets() != 3 {
		t.Errorf("Sets = %d, want 3", uf.Sets())
	}
	uf.Reset()
	if uf.Sets() != 5 || uf.Same(0, 1) {
		t.Error("Reset should restore singletons")
	}
}

func TestUnionFindQuickTransitivity(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 32
		uf := NewUnionFind(n)
		// Mirror with a naive labeling.
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		for _, op := range ops {
			a, b := int(op)%n, int(op/256)%n
			if a == b {
				continue
			}
			uf.Union(a, b)
			la, lb := label[a], label[b]
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if uf.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDijkstraSimple(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 3)
	d := g.Dijkstra(0)
	if d[2] != 2 {
		t.Errorf("d[2] = %v, want 2 (via node 1)", d[2])
	}
	if !math.IsInf(d[3], 1) {
		t.Error("unreachable node should be +Inf")
	}
}

func TestPathTo(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	p := g.PathTo(0, 2)
	if len(p) != 3 || p[0] != 0 || p[1] != 1 || p[2] != 2 {
		t.Errorf("PathTo = %v, want [0 1 2]", p)
	}
	if p := g.PathTo(0, 4); p != nil {
		t.Errorf("unreachable PathTo = %v, want nil", p)
	}
	if p := g.PathTo(3, 3); len(p) != 1 || p[0] != 3 {
		t.Errorf("trivial PathTo = %v, want [3]", p)
	}
}

func TestDijkstraRandomAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, rng.Float64()*10)
			}
		}
		src := rng.Intn(n)
		got := g.Dijkstra(src)
		want := bellmanFord(g, src)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 && !(math.IsInf(got[i], 1) && math.IsInf(want[i], 1)) {
				t.Fatalf("trial %d node %d: dijkstra %v, bellman-ford %v", trial, i, got[i], want[i])
			}
		}
	}
}

func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < g.N(); iter++ {
		changed := false
		for _, e := range g.Edges() {
			if dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// TestDeleteNodeMatchesCopyProperty: deleting a node in place leaves the
// graph exactly as one built edge by edge from the filtered, renumbered
// edge list — edge order, every adjacency list's order, membership and
// weights — and later edits land the same on both. It also reports the
// victim's neighbours, renumbered, in edge-list order.
func TestDeleteNodeMatchesCopyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		for _, x := range []int{0, n - 1, n / 2} {
			g := New(n)
			for i := 0; i < rng.Intn(3*n+1); i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				if rng.Intn(4) == 0 {
					g.RemoveEdge(u, v) // scramble adjacency order first
				} else {
					g.AddEdge(u, v, rng.Float64())
				}
			}
			remap := func(v int) int {
				if v > x {
					return v - 1
				}
				return v
			}
			want := New(n - 1)
			var wantGone []int
			for _, e := range g.Edges() {
				switch x {
				case e.U:
					wantGone = append(wantGone, remap(e.V))
				case e.V:
					wantGone = append(wantGone, remap(e.U))
				default:
					want.AddEdge(remap(e.U), remap(e.V), e.W)
				}
			}
			gone := g.DeleteNode(x, []int{-1})
			if !slices.Equal(gone, append([]int{-1}, wantGone...)) {
				t.Fatalf("trial %d delete %d of %d: neighbours %v, want %v appended to [-1]", trial, x, n, gone, wantGone)
			}
			if err := sameGraph(g, want); err != "" {
				t.Fatalf("trial %d delete %d of %d: %s", trial, x, n, err)
			}
			if n >= 3 {
				u, v := rng.Intn(n-1), rng.Intn(n-1)
				if u != v {
					if g.RemoveEdge(u, v) != want.RemoveEdge(u, v) || g.AddEdge(v, u, 9) != want.AddEdge(v, u, 9) {
						t.Fatalf("trial %d: later edit of (%d,%d) disagrees", trial, u, v)
					}
					if err := sameGraph(g, want); err != "" {
						t.Fatalf("trial %d delete %d of %d, then edit (%d,%d): %s", trial, x, n, u, v, err)
					}
				}
			}
		}
	}
}

// sameGraph describes the first difference between g and h in node
// count, edge order, adjacency order, membership or weights, or is "".
func sameGraph(g, h *Graph) string {
	if g.N() != h.N() || g.M() != h.M() {
		return fmt.Sprintf("n,m = %d,%d, want %d,%d", g.N(), g.M(), h.N(), h.M())
	}
	for i, e := range g.Edges() {
		if e != h.Edges()[i] {
			return fmt.Sprintf("edge %d is %v, want %v", i, e, h.Edges()[i])
		}
	}
	for u := 0; u < g.N(); u++ {
		if !slices.Equal(g.Neighbors(u), h.Neighbors(u)) {
			return fmt.Sprintf("node %d: adjacency %v, want %v", u, g.Neighbors(u), h.Neighbors(u))
		}
		for v := 0; v < g.N(); v++ {
			gw, gok := g.EdgeWeight(u, v)
			hw, hok := h.EdgeWeight(u, v)
			if g.HasEdge(u, v) != h.HasEdge(u, v) || gok != hok || gw != hw {
				return fmt.Sprintf("pair (%d,%d): edge %v weight %v, want %v %v", u, v, gok, gw, hok, hw)
			}
		}
	}
	return ""
}
