package gen_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/udg"
)

// TestDoubleExpChainGeometry verifies the construction invariants of the
// Theorem 4.1 gadget stated in the paper: d_i > 2^{i-1} (scaled),
// |h_i, t_i| > |h_i, v_i|, and — crucially for the theorem — each
// horizontal node's nearest neighbor is its left horizontal neighbor, so
// the NNF contains the whole horizontal chain.
func TestDoubleExpChainGeometry(t *testing.T) {
	k := 8
	pts := gen.DoubleExpChain(k)
	if len(pts) != 3*k {
		t.Fatalf("n = %d, want %d", len(pts), 3*k)
	}
	h := func(i int) geom.Point { return pts[3*i] }
	v := func(i int) geom.Point { return pts[3*i+1] }
	tt := func(i int) geom.Point { return pts[3*i+2] }
	for i := 1; i < k; i++ {
		leftGap := h(i).Dist(h(i - 1))
		di := h(i).Dist(v(i))
		if di <= leftGap {
			t.Errorf("i=%d: d_i = %v not greater than left gap %v", i, di, leftGap)
		}
		if h(i).Dist(tt(i)) <= di {
			t.Errorf("i=%d: |h_i,t_i| = %v <= |h_i,v_i| = %v", i, h(i).Dist(tt(i)), di)
		}
		// Nearest neighbor of h_i must be h_{i-1}.
		hi := 3 * i
		j, _ := oracle.Nearest(pts, hi)
		if j != 3*(i-1) {
			t.Errorf("i=%d: nearest neighbor of h_i is node %d, want h_{i-1}=%d", i, j, 3*(i-1))
		}
	}
	// Complete UDG after normalization.
	g := udg.Build(pts)
	n := len(pts)
	if g.M() != n*(n-1)/2 {
		t.Errorf("gadget should be a complete UDG: M = %d of %d", g.M(), n*(n-1)/2)
	}
}
