package udg

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestBuildSmall(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(2, 0), geom.Pt(2.9, 0)}
	g := Build(pts)
	type pair struct{ u, v int }
	want := map[pair]bool{{0, 1}: true, {2, 3}: true}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if g.HasEdge(u, v) != want[pair{u, v}] {
				t.Errorf("edge (%d,%d) presence = %v, want %v", u, v, g.HasEdge(u, v), want[pair{u, v}])
			}
		}
	}
}

func TestBuildBoundaryInclusive(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if !Build(pts).HasEdge(0, 1) {
		t.Error("distance exactly 1 must be an edge (closed disk)")
	}
}

func TestMaxDegreeMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(100)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*4, rng.Float64()*4)
		}
		g := Build(pts)
		if got, want := MaxDegree(pts, Radius), g.MaxDegree(); got != want {
			t.Fatalf("trial %d: MaxDegree = %d, graph says %d", trial, got, want)
		}
	}
}

func TestMaxDegreeEmpty(t *testing.T) {
	if MaxDegree(nil, 1) != 0 {
		t.Error("empty set should have degree 0")
	}
}

func TestBuildZeroRadius(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(1, 1)}
	g := BuildRadius(pts, 0)
	// Coincident points are at distance 0 <= 0: they are connected.
	if !g.HasEdge(0, 1) {
		t.Error("coincident nodes should connect at radius 0")
	}
	if g.HasEdge(0, 2) {
		t.Error("distinct nodes should not connect at radius 0")
	}
}

func TestExponentialChainUDG(t *testing.T) {
	// The paper's §5.1 assumption: an exponential chain whose total extent
	// is <= 1 is a complete graph (Δ = n-1).
	n := 8
	pts := make([]geom.Point, n)
	x := 0.0
	d := 1.0 / 256.0
	for i := range pts {
		pts[i] = geom.Pt(x, 0)
		x += d
		d *= 2
	}
	g := Build(pts)
	if g.M() != n*(n-1)/2 {
		t.Fatalf("chain within unit extent should be complete: M=%d", g.M())
	}
	if g.MaxDegree() != n-1 {
		t.Fatalf("Δ = %d, want %d", g.MaxDegree(), n-1)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}
