package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// mstInstances yields the shapes that stress Prim's tie-breaking and
// range filter: uniform squares from sparse to dense, lattices (many
// equal distances) with coincident duplicates, and exponential chains
// (distances spanning many orders of magnitude).
func mstInstances(rng *rand.Rand) [][]geom.Point {
	var out [][]geom.Point
	out = append(out, nil, []geom.Point{geom.Pt(0, 0)})
	for i := 0; i < 120; i++ {
		out = append(out, gen.UniformSquare(rng, 2+rng.Intn(80), 0.5+rng.Float64()*8))
	}
	for i := 0; i < 60; i++ {
		k := 2 + rng.Intn(7)
		step := []float64{0.25, 0.5, 1, 1.25}[rng.Intn(4)]
		var pts []geom.Point
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				pts = append(pts, geom.Pt(float64(x)*step, float64(y)*step))
			}
		}
		for d := rng.Intn(k + 1); d > 0; d-- {
			pts = append(pts, pts[rng.Intn(len(pts))]) // coincident copies
		}
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		out = append(out, pts)
	}
	for n := 2; n <= 20; n++ {
		out = append(out, gen.ExpChain(n, 1+float64(n%3)))
	}
	return out
}

// TestEuclideanMSTMatchesOracle: the grid-and-heap Prim returns dense
// Prim's forest edge for edge, in the same insertion order, with
// bit-equal weights, for every range limit — negative (no edges), zero
// (coincident pairs only), sub-unit, unit, beyond and unrestricted.
func TestEuclideanMSTMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i, pts := range mstInstances(rng) {
		for _, maxLen := range []float64{-1, 0, 0.5, 1, 2.5, math.Inf(1)} {
			sameForest(t, fmt.Sprintf("instance %d (n=%d) maxLen=%v", i, len(pts), maxLen),
				graph.EuclideanMST(pts, maxLen).Edges(), oracle.EuclideanMST(pts, maxLen).Edges())
		}
	}
}

// TestEuclideanMSTMatchesOracleAtScale repeats the comparison where the
// heap runs deep, at maxLen 1: the anneal's instance (n=4096 uniform on
// a square of side 12), a 64×64 lattice of step 0.5 with coincident
// copies, where decrease-keys land on keys many nodes share, and the
// longest exponential chain.
func TestEuclideanMSTMatchesOracleAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	uniform := gen.UniformSquare(rng, 4096, 12)
	var lattice []geom.Point
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			lattice = append(lattice, geom.Pt(float64(x)*0.5, float64(y)*0.5))
		}
	}
	for d := 0; d < 512; d++ {
		lattice = append(lattice, lattice[rng.Intn(4096)])
	}
	rng.Shuffle(len(lattice), func(a, b int) { lattice[a], lattice[b] = lattice[b], lattice[a] })
	for _, c := range []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform", uniform},
		{"lattice", lattice},
		{"expchain", gen.ExpChain(gen.MaxExpChainN, 1)},
	} {
		sameForest(t, c.name, graph.EuclideanMSTEdges(c.pts, 1), oracle.EuclideanMST(c.pts, 1).Edges())
	}
}

// sameForest fails unless got is want edge for edge, in the same order,
// with bit-equal weights.
func sameForest(t *testing.T, what string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, oracle %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j].U != want[j].U || got[j].V != want[j].V ||
			math.Float64bits(got[j].W) != math.Float64bits(want[j].W) {
			t.Fatalf("%s: edge %d = %v, oracle %v", what, j, got[j], want[j])
		}
	}
}
