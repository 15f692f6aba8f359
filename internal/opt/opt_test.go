package opt

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/highway"
	"repro/internal/udg"
)

func TestExactTrivial(t *testing.T) {
	r := Exact(nil)
	if r.Interference != 0 || !r.Exact {
		t.Error("empty instance wrong")
	}
	r = Exact([]geom.Point{geom.Pt(0, 0)})
	if r.Interference != 0 || RealizeForest([]geom.Point{geom.Pt(0, 0)}, r.Radii).M() != 0 {
		t.Error("singleton instance wrong")
	}
	r = Exact([]geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)})
	if r.Interference != 1 {
		t.Errorf("pair optimum = %d, want 1", r.Interference)
	}
}

func TestExactResultIsFeasibleAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(8)
		pts := gen.UniformSquare(rng, n, 1.6)
		res := Exact(pts)
		if !res.Exact {
			t.Fatalf("trial %d: budget exhausted on tiny instance", trial)
		}
		base := udg.Build(pts)
		topo := RealizeForest(pts, res.Radii)
		if !graph.SameComponents(base, topo) {
			t.Fatalf("trial %d: optimal topology breaks connectivity", trial)
		}
		// The claimed interference must match the radius assignment and
		// upper-bound the realized topology's interference.
		if got := core.InterferenceRadii(pts, res.Radii).Max(); got != res.Interference {
			t.Fatalf("trial %d: radii interference %d != claimed %d", trial, got, res.Interference)
		}
		if got := core.Interference(pts, topo).Max(); got > res.Interference {
			t.Fatalf("trial %d: realized topology %d > claimed %d", trial, got, res.Interference)
		}
	}
}

func TestExactNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(7)
		pts := gen.UniformSquare(rng, n, 1.2)
		res := Exact(pts)
		mst := graph.EuclideanMST(pts, udg.Radius)
		mstI := core.Interference(pts, mst).Max()
		if res.Interference > mstI {
			t.Fatalf("trial %d: exact %d worse than MST %d", trial, res.Interference, mstI)
		}
	}
}

// TestExactBruteForceCrossCheck verifies the radius-assignment optimum
// against a brute-force enumeration of all radius assignments on very
// small instances.
func TestExactBruteForceCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(4) // up to 5 nodes
		pts := gen.UniformSquare(rng, n, 1.3)
		res := Exact(pts)
		want := bruteForceOpt(pts)
		if res.Interference != want {
			t.Fatalf("trial %d (n=%d): exact %d, brute force %d", trial, n, res.Interference, want)
		}
	}
}

// bruteForceOpt enumerates every radius assignment (each node chooses a
// distance to another node, or 0) and returns the minimum interference
// over assignments preserving UDG connectivity.
func bruteForceOpt(pts []geom.Point) int {
	n := len(pts)
	base := udg.Build(pts)
	wantLabel, wantK := base.Components()
	cands := make([][]float64, n)
	for u := range pts {
		cands[u] = []float64{0}
		for v := range pts {
			if v != u {
				if d := pts[u].Dist(pts[v]); d <= udg.Radius*(1+1e-9) {
					cands[u] = append(cands[u], d)
				}
			}
		}
	}
	best := 1 << 30
	radii := make([]float64, n)
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			g := MutualGraph(pts, radii)
			label, k := g.Components()
			if k != wantK {
				return
			}
			for i := range label {
				if label[i] != wantLabel[i] {
					return
				}
			}
			if iv := core.InterferenceRadii(pts, radii).Max(); iv < best {
				best = iv
			}
			return
		}
		for _, r := range cands[u] {
			radii[u] = r
			rec(u + 1)
		}
	}
	rec(0)
	return best
}

// TestTheorem52ExactMatchesLowerBound runs the exact solver on small
// exponential chains and confirms (a) OPT is Θ(√n) — it stays within the
// Lemma 5.5-style constants of √n — and (b) AExp is asymptotically
// optimal: AExp/OPT stays below a small constant.
func TestTheorem52ExactMatchesLowerBound(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10, 12} {
		pts := gen.ExpChain(n, 1)
		res := Exact(pts)
		if !res.Exact {
			t.Fatalf("n=%d: exact search exhausted its budget", n)
		}
		aexp := core.Interference(pts, highway.AExp(pts)).Max()
		if aexp < res.Interference {
			t.Fatalf("n=%d: AExp %d beat the 'optimal' %d — solver bug", n, aexp, res.Interference)
		}
		if aexp > 3*res.Interference {
			t.Errorf("n=%d: AExp %d more than 3x optimal %d", n, aexp, res.Interference)
		}
		// Theorem 5.2 (asymptotic): OPT = Ω(√n). With the Lemma 5.5
		// constant, √(n/2) is a safe concrete floor for these sizes.
		if float64(res.Interference*res.Interference) < float64(n)/2-1e-9 {
			t.Errorf("n=%d: OPT %d below √(n/2) — contradicts Theorem 5.2", n, res.Interference)
		}
	}
}

func TestAnnealFeasibleAndNotWorseThanMST(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	for trial := 0; trial < 5; trial++ {
		pts := gen.HighwayUniform(rng, 30, 3)
		base := udg.Build(pts)
		res := Anneal(pts, rng, 2000)
		if res.Exact {
			t.Error("Anneal must not claim exactness")
		}
		if !graph.SameComponents(base, RealizeForest(pts, res.Radii)) {
			t.Fatalf("trial %d: annealed topology breaks connectivity", trial)
		}
		mstI := core.Interference(pts, graph.EuclideanMST(pts, udg.Radius)).Max()
		if res.Interference > mstI {
			t.Fatalf("trial %d: anneal %d worse than its MST start %d", trial, res.Interference, mstI)
		}
		if got := core.InterferenceRadii(pts, res.Radii).Max(); got != res.Interference {
			t.Fatalf("trial %d: radii interference %d != claimed %d", trial, got, res.Interference)
		}
	}
}

func TestAnnealEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	res := Anneal(nil, rng, 100)
	if res.Interference != 0 {
		t.Error("empty anneal wrong")
	}
}

func TestExactPanicsOnLargeInstance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized instance should panic")
		}
	}()
	Exact(make([]geom.Point, MaxExactN+1))
}

func TestMutualGraphSemantics(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.4, 0), geom.Pt(0.9, 0)}
	radii := []float64{0.4, 0.5, 0.5}
	g := MutualGraph(pts, radii)
	if !g.HasEdge(0, 1) {
		t.Error("0-1 mutually reachable")
	}
	if !g.HasEdge(1, 2) {
		t.Error("1-2 mutually reachable")
	}
	if g.HasEdge(0, 2) {
		t.Error("0-2 out of both radii")
	}
	// One-sided reach is not an edge.
	radii = []float64{1, 0.1, 0.1}
	g = MutualGraph(pts, radii)
	if g.M() != 0 {
		t.Errorf("one-sided radii should give no edges, got %d", g.M())
	}
}

func BenchmarkExactExpChain10(b *testing.B) {
	pts := gen.ExpChain(10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(pts)
	}
}

func TestExactBudgetExhaustionStillFeasible(t *testing.T) {
	// A starved budget must degrade to an anytime heuristic: the result is
	// feasible (the seed at worst) and flagged inexact.
	pts := gen.ExpChain(12, 1)
	res := ExactBudget(pts, 10)
	if res.Exact {
		t.Fatal("10-node budget cannot prove optimality on a 12-node chain")
	}
	if !RealizeForest(pts, res.Radii).Connected() {
		t.Fatal("budgeted result must stay feasible")
	}
	full := Exact(pts)
	if res.Interference < full.Interference {
		t.Fatalf("budgeted %d beat proven optimum %d", res.Interference, full.Interference)
	}
	// And the visited counter respects the budget.
	if res.Visited > 10 {
		t.Errorf("visited %d exceeds the budget", res.Visited)
	}
}

// TestFeasCheckerMatchesMutualGraph cross-validates the union-find
// feasibility checker against the materialized mutual-reachability graph
// on random radius assignments.
func TestFeasCheckerMatchesMutualGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		side := 1 + rng.Float64()*4
		pts := gen.UniformSquare(rng, n, side)
		base := udg.Build(pts)
		wantLabel, wantK := base.Components()
		ev := core.NewEvaluator(pts)
		fc := newFeasChecker(pts, ev.Grid(), wantK)
		radii := make([]float64, n)
		for step := 0; step < 30; step++ {
			for u := range radii {
				switch rng.Intn(3) {
				case 0:
					radii[u] = 0
				default:
					radii[u] = rng.Float64() * 1.5
				}
			}
			g := MutualGraph(pts, radii)
			label, k := g.Components()
			want := k == wantK
			if want {
				for i := range label {
					if label[i] != wantLabel[i] {
						want = false
						break
					}
				}
			}
			if got := fc.feasible(radii); got != want {
				t.Fatalf("trial %d step %d: feasChecker %v, MutualGraph %v (radii=%v)", trial, step, got, want, radii)
			}
		}
	}
}
