package udg_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/udg"
)

// TestBuildMatchesNaive checks the grid constructor against the oracle's
// O(n²) scans: at an arbitrary radius every node's neighbor set is
// oracle.Within minus the node itself, and at the unit radius the whole
// graph, weights included, is oracle.UDG.
func TestBuildMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(120)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*6, rng.Float64()*6)
		}
		r := rng.Float64() * 2
		fast := udg.BuildRadius(pts, r)
		m := 0
		for i := range pts {
			for _, j := range oracle.Within(pts, pts[i], r) {
				if j == i {
					continue
				}
				m++
				if !fast.HasEdge(i, j) {
					t.Fatalf("trial %d: fast missing edge (%d,%d)", trial, i, j)
				}
			}
		}
		if fast.M() != m/2 {
			t.Fatalf("trial %d: edges %d vs %d", trial, fast.M(), m/2)
		}

		unit, want := udg.Build(pts), oracle.UDG(pts)
		if unit.M() != want.M() {
			t.Fatalf("trial %d: unit edges %d vs %d", trial, unit.M(), want.M())
		}
		for _, e := range want.Edges() {
			if w, ok := unit.EdgeWeight(e.U, e.V); !ok || w != e.W {
				t.Fatalf("trial %d: edge (%d,%d) weight %v/%v, oracle %v", trial, e.U, e.V, w, ok, e.W)
			}
		}
	}
}
