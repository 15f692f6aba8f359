package topology

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/udg"
)

func TestGreedyMinIPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(60)
		side := 1 + rng.Float64()*4
		pts := uniformPoints(rng, n, side, side)
		base := udg.Build(pts)
		g := GreedyMinI(pts)
		if !graph.SameComponents(base, g) {
			t.Fatalf("trial %d: connectivity broken", trial)
		}
		// Spanning forest: |E| = n - components.
		_, k := base.Components()
		if g.M() != n-k {
			t.Fatalf("trial %d: %d edges, want %d", trial, g.M(), n-k)
		}
	}
}

func TestGreedyMinINeverWorseThanMSTOnGadget(t *testing.T) {
	for _, k := range []int{8, 16, 32} {
		pts := gen.DoubleExpChain(k)
		greedy := core.Interference(pts, GreedyMinI(pts)).Max()
		mst := core.Interference(pts, MST(pts)).Max()
		if greedy > mst {
			t.Errorf("k=%d: greedy %d worse than MST %d on the gadget", k, greedy, mst)
		}
		// And it should escape the Ω(n) trap entirely.
		if greedy > len(pts)/4 {
			t.Errorf("k=%d: greedy %d still Ω(n)", k, greedy)
		}
	}
}

func TestGreedyMinIOnExponentialChain(t *testing.T) {
	// The greedy tree should land near A_exp's O(√n) on the chain, far
	// below the linear n−2.
	pts := gen.ExpChain(32, 1)
	greedy := core.Interference(pts, GreedyMinI(pts)).Max()
	if greedy > 12 { // A_exp achieves 8; allow greedy some slack
		t.Errorf("greedy I = %d on 32-chain, want near O(√n)", greedy)
	}
}

func TestGreedyMinITrivial(t *testing.T) {
	if g := GreedyMinI(nil); g.N() != 0 {
		t.Error("empty wrong")
	}
	if g := GreedyMinI(uniformPoints(rand.New(rand.NewSource(1)), 1, 1, 1)); g.M() != 0 {
		t.Error("singleton wrong")
	}
}

func TestGreedyMinIDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	pts := uniformPoints(rng, 40, 2, 2)
	a, b := GreedyMinI(pts), GreedyMinI(pts)
	if a.M() != b.M() {
		t.Fatal("nondeterministic")
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			t.Fatal("nondeterministic edges")
		}
	}
}

func BenchmarkGreedyMinI(b *testing.B) {
	rng := rand.New(rand.NewSource(903))
	pts := uniformPoints(rng, 150, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyMinI(pts)
	}
}

func TestGreedySumIPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(904))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(60)
		side := 1 + rng.Float64()*4
		pts := uniformPoints(rng, n, side, side)
		base := udg.Build(pts)
		g := GreedySumI(pts)
		if !graph.SameComponents(base, g) {
			t.Fatalf("trial %d: connectivity broken", trial)
		}
		_, k := base.Components()
		if g.M() != n-k {
			t.Fatalf("trial %d: %d edges, want spanning forest %d", trial, g.M(), n-k)
		}
	}
}

func TestGreedySumIOptimizesMeanNotMax(t *testing.T) {
	// The two objectives diverge: on random instances GreedySumI should
	// match or beat GreedyMinI on MEAN interference (its objective) over
	// a batch, while GreedyMinI owns the MAX.
	rng := rand.New(rand.NewSource(905))
	sumWinsMean, minWinsMax := 0, 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		pts := gen.Clustered(rng, 80, 3, 2.5, 0.25)
		ivSum := core.Interference(pts, GreedySumI(pts))
		ivMin := core.Interference(pts, GreedyMinI(pts))
		if ivSum.Mean() <= ivMin.Mean()+1e-9 {
			sumWinsMean++
		}
		if ivMin.Max() <= ivSum.Max() {
			minWinsMax++
		}
	}
	if sumWinsMean < trials/2 {
		t.Errorf("GreedySumI won mean on only %d/%d instances", sumWinsMean, trials)
	}
	if minWinsMax < trials/2 {
		t.Errorf("GreedyMinI won max on only %d/%d instances", minWinsMax, trials)
	}
}

func TestGreedySumITrivial(t *testing.T) {
	if g := GreedySumI(nil); g.N() != 0 {
		t.Error("empty wrong")
	}
	if g := GreedySumI(uniformPoints(rand.New(rand.NewSource(2)), 1, 1, 1)); g.M() != 0 {
		t.Error("singleton wrong")
	}
}

// BenchmarkGreedyMinI4096 times the rebuild every session creation,
// recovery and drift rebuild pays, on the serving benchmark's instance:
// n=4096 uniform on a 12.8 square (~78 expected neighbours).
func BenchmarkGreedyMinI4096(b *testing.B) {
	pts := gen.UniformSquare(rand.New(rand.NewSource(1)), 4096, 12.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyMinI(pts)
	}
}
