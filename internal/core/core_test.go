package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
)

func randomInstance(rng *rand.Rand, n int, w, h float64) ([]geom.Point, *graph.Graph) {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	g := graph.New(n)
	// Random sparse symmetric topology.
	for i := 0; i < n*2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, pts[u].Dist(pts[v]))
		}
	}
	return pts, g
}

func TestRadii(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(3, 0)}
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	r := Radii(pts, g)
	want := []float64{1, 2, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("r[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestRadiiIsolated(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	r := Radii(pts, graph.New(2))
	if r[0] != 0 || r[1] != 0 {
		t.Error("isolated nodes must have radius 0")
	}
}

func TestRadiiPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched sizes should panic")
		}
	}()
	Radii([]geom.Point{geom.Pt(0, 0)}, graph.New(2))
}

// TestFigure2 reproduces the paper's Figure 2: a five-node topology in
// which node u is covered not only by its direct neighbor but also by the
// distant node v whose own farthest neighbor lies beyond u, so I(u) = 2.
func TestFigure2(t *testing.T) {
	// Layout (1-D suffices): u at 0 with a close neighbor a at 0.3;
	// v at 1.0 whose farthest neighbor b is at distance 1.2 (covering u);
	// e, a fifth node linked to b, far enough to cover nothing near u.
	u, a, v, b, e := 0, 1, 2, 3, 4
	pts := []geom.Point{
		geom.Pt(0, 0),   // u
		geom.Pt(0.3, 0), // a — u's neighbor
		geom.Pt(1.0, 0), // v
		geom.Pt(2.2, 0), // b — v's farthest neighbor: r_v = 1.2 covers u
		geom.Pt(2.5, 0), // e — b's other neighbor
	}
	g := graph.New(5)
	g.AddEdge(u, a, pts[u].Dist(pts[a]))
	g.AddEdge(a, v, pts[a].Dist(pts[v]))
	g.AddEdge(v, b, pts[v].Dist(pts[b]))
	g.AddEdge(b, e, pts[b].Dist(pts[e]))
	iv := Interference(pts, g)
	// u is covered by a (direct neighbor, r_a = 0.7 ≥ 0.3) and by v
	// (r_v = 1.2 ≥ 1.0) but not by b (r_b = 1.2 < 2.2) or e.
	if iv[u] != 2 {
		t.Fatalf("I(u) = %d, want 2 (covered by its neighbor and by v)", iv[u])
	}
	wit := CoveredBy(pts, g, u)
	if len(wit) != 2 || wit[0] != a || wit[1] != v {
		t.Fatalf("witnesses of u = %v, want [a v] = [1 2]", wit)
	}
}

func TestInterferenceEmptyTopology(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.1, 0), geom.Pt(0.2, 0)}
	iv := Interference(pts, graph.New(3))
	if iv.Max() != 0 {
		t.Error("all-silent topology must have zero interference")
	}
}

func TestInterferenceEmptyPointSet(t *testing.T) {
	iv := Interference(nil, graph.New(0))
	if len(iv) != 0 || iv.Max() != 0 || iv.Mean() != 0 || iv.ArgMax() != -1 {
		t.Error("empty instance should yield empty vector")
	}
}

func TestDegreeLowerBoundsInterference(t *testing.T) {
	// §3: "in arbitrary subgraphs of G the degree of a node only
	// lower-bounds the interference of that node".
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		pts, g := randomInstance(rng, n, 3, 3)
		iv := Interference(pts, g)
		for v := 0; v < n; v++ {
			if iv[v] < g.Degree(v) {
				t.Fatalf("trial %d: I(%d)=%d < degree %d", trial, v, iv[v], g.Degree(v))
			}
		}
	}
}

func TestInterferenceUpperBoundedByNMinus1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		pts, g := randomInstance(rng, n, 2, 2)
		iv := Interference(pts, g)
		return iv.Max() <= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVectorStats(t *testing.T) {
	iv := Vector{3, 1, 4, 1, 5}
	if iv.Max() != 5 {
		t.Errorf("Max = %d", iv.Max())
	}
	if iv.Mean() != 2.8 {
		t.Errorf("Mean = %v", iv.Mean())
	}
	if iv.ArgMax() != 4 {
		t.Errorf("ArgMax = %d", iv.ArgMax())
	}
}

func TestSenderInterferenceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		pts, g := randomInstance(rng, n, 4, 4)
		covFast, maxFast := SenderInterference(pts, g)
		covSlow, maxSlow := SenderInterferenceNaive(pts, g)
		if maxFast != maxSlow {
			t.Fatalf("trial %d: max %d vs %d", trial, maxFast, maxSlow)
		}
		for i := range covFast {
			if covFast[i] != covSlow[i] {
				t.Fatalf("trial %d edge %d: %d vs %d", trial, i, covFast[i], covSlow[i])
			}
		}
	}
}

func TestSenderInterferenceEdgeless(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	cov, m := SenderInterference(pts, graph.New(2))
	if len(cov) != 0 || m != 0 {
		t.Error("edgeless topology should have sender interference 0")
	}
}

func TestEdgeCoverageExcludesEndpoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if c := EdgeCoverage(pts, 0, 1); c != 0 {
		t.Errorf("coverage with no third node = %d, want 0", c)
	}
	pts = append(pts, geom.Pt(0.5, 0))
	if c := EdgeCoverage(pts, 0, 1); c != 1 {
		t.Errorf("coverage = %d, want 1", c)
	}
}

func TestCoveredByEdgelessTopology(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if got := CoveredBy(pts, graph.New(2), 0); got != nil {
		t.Errorf("edgeless topology: CoveredBy = %v, want nil", got)
	}
}

func TestIsqrt(t *testing.T) {
	// Exhaustive small range plus exact squares and their neighbors, where
	// a float-rounded sqrt is most likely to come out one off.
	for n := 0; n <= 10000; n++ {
		got := isqrt(n)
		if got*got > n || (got+1)*(got+1) <= n {
			t.Fatalf("isqrt(%d) = %d", n, got)
		}
	}
	for _, k := range []int{1 << 20, 1<<26 - 3, 1 << 26, 94906265 /* > 2^26.5 */, 1 << 30} {
		for _, n := range []int{k*k - 1, k * k, k*k + 1, k*k + 2*k /* (k+1)²-1 */, k*k + 2*k + 1} {
			got := isqrt(n)
			if got*got > n || (got+1)*(got+1) <= n {
				t.Fatalf("isqrt(%d) = %d", n, got)
			}
		}
	}
	if isqrt(-5) != 0 {
		t.Error("negative input should map to 0")
	}
}
