package topology_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
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

// TestGreedyMinIMatchesEagerOracle: the lazy builder — lower-bound
// pushes, read-only pricing on pop, grid neighbours — returns exactly the
// eager reference's edges, in the same order, with bit-equal weights.
func TestGreedyMinIMatchesEagerOracle(t *testing.T) {
	property := func(seed int64) bool {
		pts := greedyInstance(rand.New(rand.NewSource(seed)))
		got, want := topology.GreedyMinI(pts).Edges(), oracle.GreedyMinI(pts).Edges()
		if i, ok := sameEdgeList(got, want); !ok {
			t.Logf("seed %d, n=%d: edge %d differs (%d vs %d edges)", seed, len(pts), i, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// greedyInstance draws a differential instance: a random square (from a
// few to ~25 expected neighbours), two clusters out of each other's
// range, an exponential chain or the Theorem 4.1 gadget. Then it adds
// exact coincident copies and range-shell partners: at distance 1 and
// one ulp either side along an axis, or straddling the disk test's
// relative epsilon (~1+5e-10) in a random direction.
func greedyInstance(rng *rand.Rand) []geom.Point {
	var pts []geom.Point
	switch rng.Intn(5) {
	case 0, 1:
		pts = gen.UniformSquare(rng, 2+rng.Intn(70), 0.5+rng.Float64()*5)
	case 2:
		pts = gen.UniformSquare(rng, 1+rng.Intn(25), 1.5)
		far := 3 + rng.Float64()*4
		for _, p := range gen.UniformSquare(rng, 1+rng.Intn(25), 1.5) {
			pts = append(pts, p.Add(geom.Pt(far, 0)))
		}
	case 3:
		pts = gen.ExpChain(2+rng.Intn(gen.MaxExpChainN-1), 1)
	default:
		pts = gen.DoubleExpChain(2 + rng.Intn(10))
	}
	for i := rng.Intn(4); i > 0; i-- {
		pts = append(pts, pts[rng.Intn(len(pts))])
	}
	for i := rng.Intn(6); i > 0; i-- {
		c := pts[rng.Intn(len(pts))]
		switch rng.Intn(4) {
		case 0:
			pts = append(pts, geom.Pt(c.X+1, c.Y))
		case 1:
			pts = append(pts, geom.Pt(c.X, c.Y+math.Nextafter(1, 2)))
		case 2:
			pts = append(pts, geom.Pt(c.X+math.Nextafter(1, 0), c.Y))
		default:
			d := 1 + float64(1+rng.Intn(9))*1e-10
			a := rng.Float64() * 2 * math.Pi
			pts = append(pts, geom.Pt(c.X+d*math.Cos(a), c.Y+d*math.Sin(a)))
		}
	}
	return pts
}

// sameEdgeList compares two edge lists entry by entry, weights by bits,
// returning the first differing index.
func sameEdgeList(a, b []graph.Edge) (int, bool) {
	for i := range a {
		if i >= len(b) || a[i].U != b[i].U || a[i].V != b[i].V || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return i, false
		}
	}
	return len(a), len(a) == len(b)
}
