package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/udg"
)

// TestShrinkCertificateMatchesUnionFind: from a random feasible state (a
// random walk prefix that takes every increase and every decrease the
// whole-instance check allows), a random decrease gets the same verdict
// from the local certificate as from the whole-instance union-find,
// whenever the certificate is certain. Dense squares, sparse ones with
// many components, and n = 4096 squares where the search budget runs
// out are all covered; both verdicts and the fallback must occur.
func TestShrinkCertificateMatchesUnionFind(t *testing.T) {
	var certain, split, fellBack int
	property := func(seed int64, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var n, moves int
		var side float64
		switch shape % 3 {
		case 0: // dense: one component
			n, side, moves = 20+rng.Intn(100), 1+rng.Float64()*2, 400
		case 1: // sparse: many components
			n, side, moves = 30+rng.Intn(200), 6+rng.Float64()*6, 400
		default: // large: long detours exhaust the budget
			n, side, moves = 4096, []float64{12, 25.6, 40}[rng.Intn(3)], 200
		}
		pts := gen.UniformSquare(rng, n, side)
		grid := core.NewEvaluator(pts).Grid()
		mst := graph.EuclideanMSTEdges(pts, udg.Radius)
		fc := newFeasChecker(pts, grid, n-len(mst))
		radii := core.EdgeRadii(n, mst)
		cand := candidates(pts, grid)
		for i := 0; i < moves; i++ {
			u := rng.Intn(n)
			r, old := cand[u][rng.Intn(len(cand[u]))], radii[u]
			radii[u] = r
			if r < old && !fc.feasible(radii) {
				radii[u] = old
			}
		}
		for i := 0; i < 40; i++ {
			u := rng.Intn(n)
			r := cand[u][rng.Intn(len(cand[u]))]
			if r >= radii[u] {
				continue
			}
			ok, sure := fc.shrinkOK(radii, u, r)
			old := radii[u]
			radii[u] = r
			want := fc.feasible(radii)
			radii[u] = old
			if !sure {
				fellBack++
				continue
			}
			certain++
			if !ok {
				split++
			}
			if ok != want {
				t.Logf("seed %d n=%d side %v: shrinking node %d to %v: certificate %v, union-find %v", seed, n, side, u, r, ok, want)
				return false
			}
		}
		return true
	}
	// A fixed source keeps the both-paths assertion deterministic.
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d certain verdicts (%d splits), %d fallbacks", certain, split, fellBack)
	if split == 0 || split == certain || fellBack == 0 {
		t.Fatalf("both verdicts and the fallback must occur: %d certain verdicts (%d splits), %d fallbacks", certain, split, fellBack)
	}
}
