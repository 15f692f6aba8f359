package topology_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/topology"
	"repro/internal/udg"
)

// Differential tests against internal/oracle: every algorithm in the zoo
// runs through the full optimized-stack cross-check (radii, all
// interference evaluation paths, witness queries, the sender measure,
// and the simulator's precomputed coverage), and the connectivity
// contracts recorded in Algorithm are re-verified against the naive
// UDG component oracle.

func zooInstances(rng *rand.Rand) map[string][]geom.Point {
	return map[string][]geom.Point{
		"uniform":      gen.UniformSquare(rng, 60, 2),
		"sparse":       gen.UniformSquare(rng, 40, 4),
		"clustered":    gen.Clustered(rng, 50, 4, 3, 0.25),
		"expchain":     gen.ExpChain(20, 1),
		"gadget":       gen.DoubleExpChain(6),
		"collinear":    {geom.Pt(0, 0), geom.Pt(0.25, 0), geom.Pt(0.5, 0), geom.Pt(0.75, 0), geom.Pt(1, 0)},
		"coincident":   {geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1.5, 1)},
		"two-clusters": append(gen.UniformSquare(rng, 8, 0.8), translate(gen.UniformSquare(rng, 8, 0.8), 10)...),
	}
}

func translate(pts []geom.Point, dx float64) []geom.Point {
	for i := range pts {
		pts[i] = pts[i].Add(geom.Pt(dx, 0))
	}
	return pts
}

func TestZooAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, pts := range zooInstances(rng) {
		name, pts := name, pts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wantLabel, wantK := oracle.Components(pts)
			for _, alg := range topology.All() {
				g := alg.Build(pts)
				if err := oracle.Check(pts, g); err != nil {
					t.Errorf("%s: %v", alg.Name, err)
					continue
				}
				if alg.PreservesConnectivity {
					gotLabel, gotK := g.Components()
					if gotK != wantK {
						t.Errorf("%s: %d components, UDG has %d", alg.Name, gotK, wantK)
					} else if i, j, ok := samePartition(gotLabel, wantLabel); !ok {
						t.Errorf("%s: partition differs from UDG at (%d,%d)", alg.Name, i, j)
					}
				}
			}
		})
	}
}

// samePartition reports whether two component labelings induce the same
// partition, returning a witness pair on disagreement.
func samePartition(a, b []int) (int, int, bool) {
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if (a[i] == a[j]) != (b[i] == b[j]) {
				return i, j, false
			}
		}
	}
	return -1, -1, true
}

// TestGreedyNeverWorseThanNaiveBaselines pins the greedy constructor's
// reason to exist: on connected instances it should not exceed the
// interference of the naive nearest-neighbor-forest-plus-repair bound by
// the oracle's measure of the plain MST (a loose but durable sanity
// bound; the exact quality numbers live in EXPERIMENTS.md).
func TestGreedyNeverWorseThanNaiveBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		pts := gen.UniformSquare(rng, 40, 1.5)
		greedyI := oracle.InterferenceOf(pts, topology.GreedyMinI(pts))
		mstI := oracle.InterferenceOf(pts, topology.MST(pts))
		if greedyI > mstI {
			t.Errorf("trial %d: GreedyMinI %d above MST %d", trial, greedyI, mstI)
		}
	}
}

func TestNNFEveryNodeLinksToNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	pts := gen.UniformSquare(rng, 50, 2)
	f := topology.NNF(pts)
	for u := range pts {
		v, d := oracle.Nearest(pts, u)
		if d <= udg.Radius && !f.HasEdge(u, v) {
			t.Errorf("node %d missing link to nearest neighbor %d", u, v)
		}
	}
}
