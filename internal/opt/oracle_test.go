package opt_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/opt"
	"repro/internal/oracle"
)

// Differential tests against internal/oracle: the branch-and-bound and
// the annealer search heavily pruned, incrementally evaluated spaces;
// the oracle enumerates the same space with quadratic recomputes. At
// n ≤ 8 the two must agree exactly on the optimum, and every result's
// claimed interference must match a naive recompute of its radii.

// tinyInstances yields small instances across the shapes the searches
// care about: dense squares, near-boundary chains, and a disconnected
// pair of clusters.
func tinyInstances(rng *rand.Rand, trial int) []geom.Point {
	switch trial % 4 {
	case 0:
		return gen.UniformSquare(rng, 2+rng.Intn(7), 1.5)
	case 1:
		return gen.ExpChain(4+rng.Intn(5), 1)
	case 2:
		return gen.HighwayUniform(rng, 4+rng.Intn(5), 2)
	default:
		left := gen.UniformSquare(rng, 2+rng.Intn(3), 0.8)
		right := gen.UniformSquare(rng, 2+rng.Intn(3), 0.8)
		for i := range right {
			right[i] = right[i].Add(geom.Pt(10, 0))
		}
		return append(left, right...)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 24; trial++ {
		pts := tinyInstances(rng, trial)
		want, _ := oracle.BruteForceOptimal(pts)
		res := opt.Exact(pts)
		if !res.Exact {
			t.Fatalf("trial %d (n=%d): search budget exhausted on a tiny instance", trial, len(pts))
		}
		if res.Interference != want {
			t.Fatalf("trial %d (n=%d): Exact found %d, brute force %d", trial, len(pts), res.Interference, want)
		}
		if got := oracle.Interference(pts, res.Radii).Max(); got != res.Interference {
			t.Fatalf("trial %d: claimed %d but radii evaluate to %d", trial, res.Interference, got)
		}
		if !oracle.Feasible(pts, res.Radii) {
			t.Fatalf("trial %d: Exact returned infeasible radii", trial)
		}
		if got := oracle.InterferenceOf(pts, opt.RealizeForest(pts, res.Radii)); got > res.Interference {
			t.Fatalf("trial %d: realized topology has I=%d above the radii's %d", trial, got, res.Interference)
		}
	}
}

func TestAnnealersAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 16; trial++ {
		pts := tinyInstances(rng, trial)
		want, _ := oracle.BruteForceOptimal(pts)
		res := opt.Anneal(pts, rand.New(rand.NewSource(int64(trial))), 400)
		fullI, fullRadii := oracle.AnnealFull(pts, rand.New(rand.NewSource(int64(trial))), 400)
		for name, r := range map[string]struct {
			i     int
			radii []float64
		}{
			"Anneal":     {res.Interference, res.Radii},
			"AnnealFull": {fullI, fullRadii},
		} {
			if r.i < want {
				t.Fatalf("trial %d: %s reported %d below the true optimum %d", trial, name, r.i, want)
			}
			if got := oracle.Interference(pts, r.radii).Max(); got != r.i {
				t.Fatalf("trial %d: %s claimed %d but radii evaluate to %d", trial, name, r.i, got)
			}
			if !oracle.Feasible(pts, r.radii) {
				t.Fatalf("trial %d: %s returned infeasible radii", trial, name)
			}
		}
	}
}

// TestAnnealWalksMatch pins the documented contract that Anneal and
// oracle.AnnealFull draw identically from their RNG and hence walk the same move
// sequence: same seed, same iteration budget, same final best.
func TestAnnealWalksMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		pts := gen.UniformSquare(rng, 20+rng.Intn(20), 2)
		a := opt.Anneal(pts, rand.New(rand.NewSource(77)), 2000)
		bI, bRadii := oracle.AnnealFull(pts, rand.New(rand.NewSource(77)), 2000)
		if a.Interference != bI {
			t.Fatalf("trial %d: incremental anneal %d, full anneal %d", trial, a.Interference, bI)
		}
		for u := range a.Radii {
			if a.Radii[u] != bRadii[u] {
				t.Fatalf("trial %d: radius of %d differs: %v vs %v", trial, u, a.Radii[u], bRadii[u])
			}
		}
	}
}

// TestAnnealMatchesAnnealFull: the incremental annealer and the
// recompute-everything reference draw identically from the RNG and apply
// identical accept/reject decisions, so with the same seed they must
// return the same interference and radii — on every instance shape.
func TestAnnealMatchesAnnealFull(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	instances := [][]geom.Point{
		gen.UniformSquare(rng, 60, 3),
		gen.UniformSquare(rng, 120, 2),  // dense: one component
		gen.UniformSquare(rng, 60, 12),  // sparse: many components
		gen.HighwayUniform(rng, 80, 20), // 1-D
		gen.ExpChain(12, 1),             // exponential distances
	}
	for i, pts := range instances {
		fast := opt.Anneal(pts, rand.New(rand.NewSource(int64(500+i))), 800)
		fullI, fullRadii := oracle.AnnealFull(pts, rand.New(rand.NewSource(int64(500+i))), 800)
		if fast.Interference != fullI {
			t.Fatalf("instance %d: incremental %d vs reference %d", i, fast.Interference, fullI)
		}
		for u := range fast.Radii {
			if fast.Radii[u] != fullRadii[u] {
				t.Fatalf("instance %d: radii diverge at node %d: %v vs %v", i, u, fast.Radii[u], fullRadii[u])
			}
		}
	}
}

// TestCandidatesGridMatchesNaive: the grid-enumerated candidate lists
// must equal the oracle's all-pairs ones bit for bit — on random squares
// and on oracle.TestOracleRangeShell's instances, whose pair {0, 1} sits
// just outside (1+7e-10) and just inside (1+3e-10) the unit disk.
func TestCandidatesGridMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 22; trial++ {
		var pts []geom.Point
		switch trial {
		case 20, 21:
			d := []float64{1 + 7e-10, 1 + 3e-10}[trial-20]
			pts = []geom.Point{geom.Pt(0, 0), geom.Pt(d, 0), geom.Pt(-0.5, 0)}
		default:
			pts = gen.UniformSquare(rng, 2+rng.Intn(50), 1+rng.Float64()*5)
		}
		naive := oracle.Candidates(pts)
		grid := opt.Candidates(pts, core.NewEvaluator(pts).Grid())
		for u := range naive {
			if len(naive[u]) != len(grid[u]) {
				t.Fatalf("trial %d node %d: %d vs %d candidates", trial, u, len(naive[u]), len(grid[u]))
			}
			for i := range naive[u] {
				if naive[u][i] != grid[u][i] {
					t.Fatalf("trial %d node %d cand %d: %v vs %v", trial, u, i, naive[u][i], grid[u][i])
				}
			}
		}
	}
}

// TestMutualGraphMatchesOracle: the grid-enumerated Ĝ(r) is the oracle's
// all-pairs graph edge for edge, on assignments that mix silent nodes,
// sub-unit radii and radii past the unit range.
func TestMutualGraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		pts := gen.UniformSquare(rng, n, 1+rng.Float64()*4)
		radii := make([]float64, n)
		for u := range radii {
			if rng.Intn(4) > 0 {
				radii[u] = rng.Float64() * 1.5
			}
		}
		got, want := opt.MutualGraph(pts, radii).Edges(), oracle.MutualGraph(pts, radii).Edges()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d edges, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: edge %d = %v, oracle %v", trial, i, got[i], want[i])
			}
		}
	}
}
