package gen

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
	"repro/internal/udg"
)

func TestExpChainGapsDouble(t *testing.T) {
	pts := ExpChain(8, 1)
	if len(pts) != 8 {
		t.Fatalf("n = %d", len(pts))
	}
	for i := 2; i < len(pts); i++ {
		g1 := pts[i-1].X - pts[i-2].X
		g2 := pts[i].X - pts[i-1].X
		if math.Abs(g2/g1-2) > 1e-9 {
			t.Errorf("gap ratio at %d = %v, want 2", i, g2/g1)
		}
	}
	if ext := pts[len(pts)-1].X - pts[0].X; math.Abs(ext-1) > 1e-9 {
		t.Errorf("extent = %v, want 1", ext)
	}
}

func TestExpChainIsCompleteUDG(t *testing.T) {
	pts := ExpChain(10, 1)
	g := udg.Build(pts)
	n := len(pts)
	if g.M() != n*(n-1)/2 {
		t.Errorf("chain of extent 1 should be a complete UDG: M = %d", g.M())
	}
}

func TestExpChainTrivial(t *testing.T) {
	if len(ExpChain(1, 1)) != 1 {
		t.Error("n=1 chain wrong")
	}
	p := ExpChain(2, 0.5)
	if math.Abs(p[1].X-0.5) > 1e-12 {
		t.Errorf("2-node chain gap = %v, want 0.5", p[1].X)
	}
}

func TestExpChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ExpChain(0) should panic")
		}
	}()
	ExpChain(0, 1)
}

func TestFigure1Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 30
	pts := Figure1(rng, n, 0.2)
	if len(pts) != n {
		t.Fatalf("n = %d", len(pts))
	}
	remote := pts[n-1]
	// Remote node must be UDG-reachable from the rightmost cluster node
	// but far from the cluster body.
	minD, maxD := math.Inf(1), 0.0
	for _, p := range pts[:n-1] {
		d := remote.Dist(p)
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD > 1 {
		t.Errorf("remote node unreachable: min distance %v", minD)
	}
	if maxD > 1.5 || minD < 0.7 {
		t.Errorf("remote placement off: min %v max %v", minD, maxD)
	}
	// Cluster is homogeneous: every cluster node has a near neighbor.
	for i, p := range pts[:n-1] {
		nd := math.Inf(1)
		for j, q := range pts[:n-1] {
			if i != j && p.Dist(q) < nd {
				nd = p.Dist(q)
			}
		}
		if nd > 0.2*math.Sqrt2 {
			t.Errorf("cluster node %d isolated: nearest %v", i, nd)
		}
	}
}

func TestFigure1Panics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bad := range []struct {
		n int
		s float64
	}{{2, 0.2}, {10, 0}, {10, 0.6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Figure1(%d,%v) should panic", bad.n, bad.s)
				}
			}()
			Figure1(rng, bad.n, bad.s)
		}()
	}
}

func TestDoubleExpChainNNFContainsHorizontalChain(t *testing.T) {
	k := 10
	pts := DoubleExpChain(k)
	f := topology.NNF(pts)
	for i := 1; i < k; i++ {
		if !f.HasEdge(3*i, 3*(i-1)) {
			t.Errorf("NNF missing horizontal edge h_%d-h_%d", i-1, i)
		}
	}
}

func TestHighwayUniformSortedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := HighwayUniform(rng, 100, 25)
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Error("not sorted")
	}
	for _, p := range pts {
		if p.Y != 0 || p.X < 0 || p.X > 25 {
			t.Errorf("point %v out of highway", p)
		}
	}
}

func TestHighwayBursty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := HighwayBursty(rng, 200, 5, 50, 0.3)
	if len(pts) != 200 {
		t.Fatal("wrong count")
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Error("not sorted")
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 50 || p.Y != 0 {
			t.Errorf("point %v outside [0,50]", p)
		}
	}
}

func TestHighwayExpFragments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := HighwayExpFragments(rng, 4, 6, 30)
	if len(pts) != 24 {
		t.Fatalf("n = %d, want 24", len(pts))
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Error("not sorted")
	}
}

func TestUniformSquareAndClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sq := UniformSquare(rng, 50, 3)
	for _, p := range sq {
		if p.X < 0 || p.X > 3 || p.Y < 0 || p.Y > 3 {
			t.Errorf("point %v outside square", p)
		}
	}
	cl := Clustered(rng, 80, 4, 3, 0.2)
	for _, p := range cl {
		if p.X < 0 || p.X > 3 || p.Y < 0 || p.Y > 3 {
			t.Errorf("clustered point %v outside square", p)
		}
	}
}

func TestPerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := UniformSquare(rng, 20, 1)
	out := Perturb(rng, pts, 0.01)
	if len(out) != len(pts) {
		t.Fatal("length changed")
	}
	for i := range pts {
		if d := pts[i].Dist(out[i]); d > 0.015 {
			t.Errorf("point %d moved %v > eps·√2", i, d)
		}
	}
}

func TestGeneratorsDeterministicFromSeed(t *testing.T) {
	a := HighwayBursty(rand.New(rand.NewSource(42)), 50, 3, 10, 0.2)
	b := HighwayBursty(rand.New(rand.NewSource(42)), 50, 3, 10, 0.2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical instances")
		}
	}
}

func TestDescribe(t *testing.T) {
	if Describe(nil) != "empty instance" {
		t.Error("empty describe wrong")
	}
	s := Describe([]geom.Point{geom.Pt(0, 0), geom.Pt(2, 1)})
	if s != "n=2 extent=2x1" {
		t.Errorf("Describe = %q", s)
	}
}

func TestExpChainUnitShape(t *testing.T) {
	pts := ExpChainUnit(8)
	for i := 1; i < len(pts); i++ {
		want := math.Pow(2, float64(i)) - 1
		if pts[i].X != want {
			t.Fatalf("node %d at %v, want %v", i, pts[i].X, want)
		}
	}
	for _, bad := range []int{0, MaxExpChainUnitN + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpChainUnit(%d) should panic", bad)
				}
			}()
			ExpChainUnit(bad)
		}()
	}
}

func TestExpChainPanicsBeyondResolution(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ExpChain beyond MaxExpChainN should panic")
		}
	}()
	ExpChain(MaxExpChainN+1, 1)
}

func TestGeneratorPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []func(){
		func() { HighwayBursty(rng, 10, 0, 5, 0.1) },
		func() { HighwayExpFragments(rng, 0, 3, 5) },
		func() { HighwayExpFragments(rng, 3, 0, 5) },
		func() { Clustered(rng, 10, 0, 3, 0.1) },
		func() { DoubleExpChain(1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHighwayBurstyClipsToRange(t *testing.T) {
	// Tiny length with large spread exercises both clip branches.
	rng := rand.New(rand.NewSource(10))
	pts := HighwayBursty(rng, 300, 2, 0.5, 5)
	for _, p := range pts {
		if p.X < 0 || p.X > 0.5 {
			t.Fatalf("point %v escaped [0, 0.5]", p)
		}
	}
}
