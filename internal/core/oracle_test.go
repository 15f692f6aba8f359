package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// The grid-accelerated evaluators against the oracle's O(n²) definitions.

// randomTopology scatters n points over a w×h box and links 2n random
// pairs: a sparse symmetric topology with arbitrary radii.
func randomTopology(rng *rand.Rand, n int, w, h float64) ([]geom.Point, *graph.Graph) {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	g := graph.New(n)
	for i := 0; i < n*2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, pts[u].Dist(pts[v]))
		}
	}
	return pts, g
}

func TestInterferenceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		pts, g := randomTopology(rng, n, 5, 5)
		radii := core.Radii(pts, g)
		fast := core.InterferenceRadii(pts, radii)
		slow := oracle.Interference(pts, radii)
		for v := range fast {
			if fast[v] != slow[v] {
				t.Fatalf("trial %d node %d: fast %d, naive %d", trial, v, fast[v], slow[v])
			}
		}
	}
}

func TestCoveredByMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		pts, g := randomTopology(rng, n, 4, 4)
		radii := core.Radii(pts, g)
		iv := core.Interference(pts, g)
		for v := 0; v < n; v++ {
			got := core.CoveredBy(pts, g, v)
			want := oracle.CoveredBy(pts, radii, v)
			if len(got) != len(want) {
				t.Fatalf("trial %d node %d: grid %v, naive %v", trial, v, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d node %d: grid %v, naive %v", trial, v, got, want)
				}
			}
			// The witness list must explain I(v) exactly.
			if len(got) != iv[v] {
				t.Fatalf("trial %d node %d: %d witnesses, I(v)=%d", trial, v, len(got), iv[v])
			}
		}
	}
}
