package topology

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/udg"
)

func uniformPoints(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	return pts
}

func TestAllPreserveConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 15; trial++ {
		// Mix of dense (connected) and sparse (multi-component) instances.
		n := 2 + rng.Intn(70)
		w := 1.0 + rng.Float64()*6
		pts := uniformPoints(rng, n, w, w)
		base := udg.Build(pts)
		for _, alg := range All() {
			got := alg.Build(pts)
			if alg.PreservesConnectivity && !graph.SameComponents(base, got) {
				t.Errorf("trial %d: %s does not preserve connectivity (n=%d)", trial, alg.Name, n)
			}
		}
	}
}

func TestAllAreSubgraphsOfUDG(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	pts := uniformPoints(rng, 60, 4, 4)
	base := udg.Build(pts)
	for _, alg := range All() {
		g := alg.Build(pts)
		for _, e := range g.Edges() {
			if !base.HasEdge(e.U, e.V) {
				t.Errorf("%s uses non-UDG edge (%d,%d) of length %v", alg.Name, e.U, e.V, e.W)
			}
		}
	}
}

func TestNNFIsForest(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(100)
		pts := uniformPoints(rng, n, 3, 3)
		f := NNF(pts)
		_, k := f.Components()
		if f.M() > n-k {
			t.Fatalf("trial %d: NNF has %d edges over %d components — contains a cycle", trial, f.M(), k)
		}
	}
}

func TestNNFTrivial(t *testing.T) {
	if NNF(nil).N() != 0 {
		t.Error("empty NNF wrong")
	}
	if f := NNF([]geom.Point{geom.Pt(0, 0)}); f.M() != 0 {
		t.Error("single-node NNF should have no edges")
	}
	// Two nodes out of range: no link.
	if f := NNF([]geom.Point{geom.Pt(0, 0), geom.Pt(5, 0)}); f.M() != 0 {
		t.Error("out-of-range pair should stay unlinked")
	}
}

// TestContainmentChain verifies the classical containment hierarchy
// NNF ⊆ MST ⊆ RNG ⊆ GG ⊆ UDG and XTC ⊆ RNG on random instances with
// distinct distances.
func TestContainmentChain(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(50)
		pts := uniformPoints(rng, n, 2.5, 2.5)
		nnf, mst, rng_, gg := NNF(pts), MST(pts), RNG(pts), GG(pts)
		xtc := XTC(pts)
		requireSubgraph(t, "NNF", nnf, "MST", mst)
		requireSubgraph(t, "MST", mst, "RNG", rng_)
		requireSubgraph(t, "RNG", rng_, "GG", gg)
		requireSubgraph(t, "XTC", xtc, "RNG", rng_)
		requireSubgraph(t, "MST", mst, "XTC", xtc)
	}
}

func requireSubgraph(t *testing.T, an string, a *graph.Graph, bn string, b *graph.Graph) {
	t.Helper()
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			t.Fatalf("%s ⊄ %s: edge (%d,%d) missing", an, bn, e.U, e.V)
		}
	}
}

func TestGGKnownExample(t *testing.T) {
	// Square of side 1 (diagonals √2): GG keeps the four sides; each
	// diagonal's diameter disk contains the other two corners.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	g := GG(pts)
	if g.M() != 4 {
		t.Fatalf("GG of unit square has %d edges, want 4", g.M())
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Error("diagonals must be pruned")
	}
}

func TestRNGKnownExample(t *testing.T) {
	// Equilateral-ish triangle plus center: center blocks the long sides.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 0.866), geom.Pt(0.5, 0.289)}
	g := RNG(pts)
	// All triangle sides have the center strictly inside their lune.
	if g.HasEdge(0, 1) || g.HasEdge(0, 2) || g.HasEdge(1, 2) {
		t.Error("triangle sides should be pruned by the center node")
	}
	if !g.Connected() {
		t.Error("RNG should stay connected via the center")
	}
}

func TestYaoConesCoverAllDirections(t *testing.T) {
	// A node with 8 neighbors on a circle: Yao(8) keeps them all (one per
	// cone). Note the symmetric closure can exceed k at a hub when spokes
	// select it back, so only the lower bound is exact.
	pts := []geom.Point{geom.Pt(0, 0)}
	for i := 0; i < 8; i++ {
		a := (float64(i) + 0.5) * math.Pi / 4
		pts = append(pts, geom.Pt(0.9*math.Cos(a), 0.9*math.Sin(a)))
	}
	g8 := Yao(pts, 8)
	if g8.Degree(0) != 8 {
		t.Errorf("Yao8 hub degree = %d, want 8", g8.Degree(0))
	}
}

func TestYaoSelectsNearestPerCone(t *testing.T) {
	// u sees a and b in the same quadrant cone (k=4); it selects only the
	// nearer a, and b reaches u only through a (b also prefers a).
	// a sits near the u–b segment, so it wins both quadrant cones: u's
	// cone toward b and b's cone toward u.
	pts := []geom.Point{
		geom.Pt(0, 0),      // u
		geom.Pt(0.45, 0),   // a — on the segment, nearer to both
		geom.Pt(0.9, 0.05), // b
	}
	g := Yao(pts, 4)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("Yao4 should keep u-a and a-b: edges=%v", g.Edges())
	}
	if g.HasEdge(0, 2) {
		t.Error("u-b must be pruned: b loses to a in u's cone and u loses to a in b's cone")
	}
	// With very narrow cones a and b separate into distinct cones, so u-b
	// reappears.
	g256 := Yao(pts, 256)
	if !g256.HasEdge(0, 2) {
		t.Error("Yao256 should keep u-b (distinct cones)")
	}
}

func TestYaoContainsMST(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 10; trial++ {
		pts := uniformPoints(rng, 40, 2, 2)
		requireSubgraph(t, "MST", MST(pts), "Yao6", Yao(pts, 6))
	}
}

func TestLMSTDegreeBound(t *testing.T) {
	// LMST node degree is at most 6 (Li, Hou & Sha, Lemma 3).
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 10; trial++ {
		pts := uniformPoints(rng, 60, 2, 2)
		g := LMST(pts)
		if d := g.MaxDegree(); d > 6 {
			t.Fatalf("trial %d: LMST max degree = %d > 6", trial, d)
		}
	}
}

func TestLIFEMinimizesBottleneckCoverage(t *testing.T) {
	// On a connected instance LIFE's maximum edge coverage must not exceed
	// that of the MST (both are spanning trees; LIFE optimizes bottleneck
	// coverage among all spanning forests).
	rng := rand.New(rand.NewSource(108))
	for trial := 0; trial < 10; trial++ {
		pts := uniformPoints(rng, 40, 1.5, 1.5)
		life := LIFE(pts)
		mst := MST(pts)
		if !life.Connected() {
			t.Fatal("LIFE should be connected on a connected instance")
		}
		lifeMax := maxSenderCov(t, pts, life)
		mstMax := maxSenderCov(t, pts, mst)
		if lifeMax > mstMax {
			t.Fatalf("trial %d: LIFE bottleneck coverage %d > MST's %d", trial, lifeMax, mstMax)
		}
	}
}

func maxSenderCov(t *testing.T, pts []geom.Point, g *graph.Graph) int {
	t.Helper()
	max := 0
	for _, e := range g.Edges() {
		u, v := pts[e.U], pts[e.V]
		c := 0
		for w, p := range pts {
			if w == e.U || w == e.V {
				continue
			}
			if geom.InDisk(u, e.W, p) || geom.InDisk(v, e.W, p) {
				c++
			}
		}
		if c > max {
			max = c
		}
	}
	return max
}

func TestLISEStretchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, tval := range []float64{1.5, 2, 4} {
		pts := uniformPoints(rng, 35, 1.5, 1.5)
		base := udg.Build(pts)
		g := LISE(pts, tval)
		// LISE guarantees stretch ≤ t for every UDG edge, which bounds
		// all-pairs stretch by t as well.
		for _, e := range base.Edges() {
			d := g.Dijkstra(e.U)
			if d[e.V] > tval*e.W+1e-9 {
				t.Fatalf("t=%v: edge (%d,%d) stretched to %v > %v", tval, e.U, e.V, d[e.V], tval*e.W)
			}
		}
	}
}

func TestLISEWithLargeTEqualsForest(t *testing.T) {
	// With t = ∞ every cycle-closing edge is rejected, so LISE degenerates
	// to LIFE's forest (same edge count).
	rng := rand.New(rand.NewSource(110))
	pts := uniformPoints(rng, 30, 1.2, 1.2)
	lise := LISE(pts, math.Inf(1))
	life := LIFE(pts)
	if lise.M() != life.M() {
		t.Errorf("LISE(∞) has %d edges, LIFE %d", lise.M(), life.M())
	}
}

func TestAlgorithmsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	pts := uniformPoints(rng, 45, 2, 2)
	for _, alg := range All() {
		a, b := alg.Build(pts), alg.Build(pts)
		if a.M() != b.M() {
			t.Errorf("%s is nondeterministic: %d vs %d edges", alg.Name, a.M(), b.M())
			continue
		}
		for _, e := range a.Edges() {
			if !b.HasEdge(e.U, e.V) {
				t.Errorf("%s is nondeterministic on edge (%d,%d)", alg.Name, e.U, e.V)
			}
		}
	}
}

func TestAllHandleDegenerateInputs(t *testing.T) {
	inputs := [][]geom.Point{
		{},
		{geom.Pt(0, 0)},
		{geom.Pt(0, 0), geom.Pt(0, 0)}, // coincident
		{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(9, 9)}, // far outlier
	}
	for _, pts := range inputs {
		for _, alg := range All() {
			g := alg.Build(pts) // must not panic
			if g.N() != len(pts) {
				t.Errorf("%s changed node count on %v", alg.Name, pts)
			}
		}
	}
}

func BenchmarkTopologies(b *testing.B) {
	rng := rand.New(rand.NewSource(112))
	pts := uniformPoints(rng, 300, 4, 4)
	for _, alg := range All() {
		b.Run(alg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Build(pts)
			}
		})
	}
}
