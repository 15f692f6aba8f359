package graph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
)

func TestKruskalMSFBasic(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(0, 3, 10)
	g.AddEdge(0, 2, 10)
	f := KruskalMSF(g)
	if f.M() != 3 {
		t.Fatalf("tree edges = %d, want 3", f.M())
	}
	if TotalWeight(f) != 6 {
		t.Errorf("MST weight = %v, want 6", TotalWeight(f))
	}
	if !f.Connected() {
		t.Error("MST of connected graph must be connected")
	}
}

func TestKruskalPreservesComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	f := KruskalMSF(g)
	if !SameComponents(g, f) {
		t.Error("MSF must preserve the component structure")
	}
}

func TestEuclideanMSTMatchesKruskalOnCompleteGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
		}
		complete := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				complete.AddEdge(i, j, pts[i].Dist(pts[j]))
			}
		}
		a := KruskalMSF(complete)
		b := EuclideanMST(pts, math.Inf(1))
		if a.M() != n-1 || b.M() != n-1 {
			t.Fatalf("trial %d: edge counts %d/%d, want %d", trial, a.M(), b.M(), n-1)
		}
		// With random coordinates the MST is almost surely unique; compare
		// total weights, which must agree regardless.
		if math.Abs(TotalWeight(a)-TotalWeight(b)) > 1e-9 {
			t.Fatalf("trial %d: weights %v vs %v", trial, TotalWeight(a), TotalWeight(b))
		}
	}
}

func TestEuclideanMSTMaxLen(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 0)}
	f := EuclideanMST(pts, 2)
	if f.M() != 1 {
		t.Fatalf("M = %d, want 1 (long edge excluded)", f.M())
	}
	if !f.HasEdge(0, 1) {
		t.Error("short edge missing")
	}
	_, k := f.Components()
	if k != 2 {
		t.Errorf("components = %d, want 2", k)
	}
}

func TestEuclideanMSTEmptyAndSingle(t *testing.T) {
	if f := EuclideanMST(nil, 1); f.N() != 0 || f.M() != 0 {
		t.Error("empty MST wrong")
	}
	if f := EuclideanMST([]geom.Point{geom.Pt(0, 0)}, 1); f.N() != 1 || f.M() != 0 {
		t.Error("single-point MST wrong")
	}
}

func TestKruskalMSFByMinimizesBottleneckCost(t *testing.T) {
	// Cost is independent of weight here: edge (0,2) is long but cheap,
	// so a cost-driven forest must prefer it over the short-but-expensive
	// (0,1)+(1,2) pair when building connectivity.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 10)
	cost := func(e Edge) float64 {
		if e.U == 0 && e.V == 2 {
			return 0
		}
		return 5
	}
	f := KruskalMSFBy(g, cost)
	if !f.HasEdge(0, 2) {
		t.Error("cheapest-cost edge should be chosen first")
	}
	if f.M() != 2 {
		t.Errorf("M = %d, want 2", f.M())
	}
	if !f.Connected() {
		t.Error("forest should be connected")
	}
}

func TestMSTCycleProperty(t *testing.T) {
	// Property: for every non-tree edge e of the complete graph, e is at
	// least as heavy as every edge on the tree path between its endpoints.
	rng := rand.New(rand.NewSource(13))
	n := 25
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*5, rng.Float64()*5)
	}
	mst := EuclideanMST(pts, math.Inf(1))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mst.HasEdge(u, v) {
				continue
			}
			w := pts[u].Dist(pts[v])
			path := mst.PathTo(u, v)
			for i := 0; i+1 < len(path); i++ {
				pw, _ := mst.EdgeWeight(path[i], path[i+1])
				if pw > w+1e-9 {
					t.Fatalf("cycle property violated: non-tree edge (%d,%d) w=%v lighter than tree edge w=%v", u, v, w, pw)
				}
			}
		}
	}
}

func TestStretch(t *testing.T) {
	// base: triangle with a shortcut; sub: path only.
	base := New(3)
	base.AddEdge(0, 1, 1)
	base.AddEdge(1, 2, 1)
	base.AddEdge(0, 2, 1)
	sub := New(3)
	sub.AddEdge(0, 1, 1)
	sub.AddEdge(1, 2, 1)
	if s := Stretch(base, sub); math.Abs(s-2) > 1e-12 {
		t.Errorf("stretch = %v, want 2", s)
	}
	if s := Stretch(base, base); s != 1 {
		t.Errorf("self-stretch = %v, want 1", s)
	}
	// Disconnecting a pair yields +Inf.
	sub2 := New(3)
	sub2.AddEdge(0, 1, 1)
	if s := Stretch(base, sub2); !math.IsInf(s, 1) {
		t.Errorf("disconnected stretch = %v, want +Inf", s)
	}
}

// TestPrimHeapProperty drives the indexed heap through random inserts,
// decrease-keys and pops over four key values, so most keys tie: every
// pop is a full scan's (key, index) argmin over the nodes in the heap,
// and after every operation pos holds each heap node's slot and -1 for
// every other node.
func TestPrimHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(40)
		key := make([]float64, n)
		in := make([]bool, n)
		h := newPrimHeap(key)
		for op := 0; op < 400; op++ {
			v := int32(rng.Intn(n))
			k := float64(rng.Intn(4)) / 2
			switch {
			case len(h.heap) > 0 && rng.Intn(3) == 0:
				want := int32(-1)
				for u := int32(0); u < int32(n); u++ {
					if in[u] && (want < 0 || key[u] < key[want]) {
						want = u
					}
				}
				if got := h.pop(); got != want {
					t.Fatalf("round %d op %d: pop = %d (key %v), scan argmin %d (key %v)", round, op, got, key[got], want, key[want])
				}
				in[want] = false
			case !in[v]:
				key[v], in[v] = k, true
				h.decrease(v)
			case k <= key[v]:
				key[v] = k
				h.decrease(v)
			}
			held := 0
			for u := range in {
				if in[u] != (h.pos[u] >= 0) {
					t.Fatalf("round %d op %d: node %d in heap %v, pos %d", round, op, u, in[u], h.pos[u])
				}
				if in[u] {
					held++
				}
			}
			if held != len(h.heap) {
				t.Fatalf("round %d op %d: heap holds %d slots, %d nodes", round, op, len(h.heap), held)
			}
			for i, u := range h.heap {
				if h.pos[u] != int32(i) {
					t.Fatalf("round %d op %d: slot %d holds %d, pos %d", round, op, i, u, h.pos[u])
				}
			}
		}
	}
}

func BenchmarkEuclideanMST(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EuclideanMST(pts, math.Inf(1))
	}
}

// BenchmarkEuclideanMST4096 builds the anneal's start: the unit-range
// forest of n = 4096 uniform points on a square of side 12.
func BenchmarkEuclideanMST4096(b *testing.B) {
	pts := gen.UniformSquare(rand.New(rand.NewSource(2)), 4096, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EuclideanMSTEdges(pts, 1)
	}
}
