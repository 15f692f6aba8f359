// Package oracle encodes the paper's definitions as executable reference
// implementations and cross-checks the optimized engine against them.
//
// PR 1 replaced the textbook evaluation of Definition 3.2 with an
// incremental, grid-backed engine (core.Evaluator); every future
// performance PR risks silently diverging from the paper. This package is
// the correctness backstop: straight-from-the-paper naive implementations
// (quadratic loops, no spatial index, no incremental state) behind a
// single Check entry point, a differential evaluator that shadows every
// core.Evaluator operation with the obvious slice semantics, metamorphic
// laws the measure must satisfy on any instance, and a deterministic-
// replay harness for the packet simulator. A sorted-sweep recount
// (sweep.go), held bit-equal to the naive loops, serves boot
// verification at sizes where O(n²) would dominate.
//
// The package deliberately depends only on the layers it validates (core,
// sim) plus the primitive geometry/graph layers. Algorithm packages (opt,
// topology, highway, dynamic) consume it from their external test
// packages, so no import cycles arise.
//
// Conventions:
//
//   - Reference implementations share the single boundary predicate
//     geom.InDisk with the optimized paths. Differential tests compare
//     *implementations* (naive vs optimized), not *conventions*; using
//     two boundary epsilons would report spurious diffs on the paper's
//     exactly-on-the-boundary constructions.
//   - All checks return an error describing the first divergence found
//     (never panic), so fuzzers and property tests can report minimal
//     counterexamples.
package oracle

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Check cross-validates the whole optimized interference stack on one
// instance: radii derivation, the grid-accelerated and parallel
// evaluators, the incremental Evaluator (both BatchSet and a sequential
// SetRadius walk), witness queries, the sender-centric measure, and the
// simulator's precomputed coverage sets. It returns nil when every path
// agrees with the naive model, or an error naming the first divergence.
//
// Cost is O(n²); intended for test instances, not production calls.
func Check(pts []geom.Point, g *graph.Graph) error {
	if g.N() != len(pts) {
		return fmt.Errorf("oracle: topology over %d nodes, %d points", g.N(), len(pts))
	}
	want := Radii(pts, g)
	got := core.Radii(pts, g)
	for u := range want {
		if got[u] != want[u] {
			return fmt.Errorf("oracle: radius of node %d: core %v, naive %v", u, got[u], want[u])
		}
	}
	if err := CheckRadii(pts, want); err != nil {
		return err
	}

	// Witness queries: CoveredBy must list exactly the I(v) witnesses.
	iv := Interference(pts, want)
	for v := range pts {
		naive := CoveredBy(pts, want, v)
		fast := core.CoveredBy(pts, g, v)
		if !equalInts(fast, naive) {
			return fmt.Errorf("oracle: CoveredBy(%d): core %v, naive %v", v, fast, naive)
		}
		if len(naive) != iv[v] {
			return fmt.Errorf("oracle: |CoveredBy(%d)| = %d but I(v) = %d", v, len(naive), iv[v])
		}
	}

	// Sender-centric measure (Figure 1's comparison baseline).
	fastSend, fastMax := core.SenderInterference(pts, g)
	naiveSend, naiveMax := core.SenderInterferenceNaive(pts, g)
	if fastMax != naiveMax {
		return fmt.Errorf("oracle: sender interference max: core %d, naive %d", fastMax, naiveMax)
	}
	for u := range naiveSend {
		if fastSend[u] != naiveSend[u] {
			return fmt.Errorf("oracle: sender interference of %d: core %d, naive %d", u, fastSend[u], naiveSend[u])
		}
	}

	// The simulator's precomputed radio layout is the same disk system.
	nw := sim.NewNetwork(pts, g)
	for v := range pts {
		if nw.Interference(v) != iv[v] {
			return fmt.Errorf("oracle: sim.Network I(%d) = %d, naive %d", v, nw.Interference(v), iv[v])
		}
		covered := append([]int(nil), nw.CoveredBy[v]...)
		sort.Ints(covered)
		if !equalInts(covered, CoveredBy(pts, want, v)) {
			return fmt.Errorf("oracle: sim.Network.CoveredBy[%d] = %v, naive %v", v, covered, CoveredBy(pts, want, v))
		}
	}
	if nw.MaxInterference() != iv.Max() {
		return fmt.Errorf("oracle: sim.Network max %d, naive %d", nw.MaxInterference(), iv.Max())
	}
	return nil
}

// CheckRadii cross-validates every interference-evaluation path on one
// radius assignment (the topology-free core of Check, usable on raw
// radius vectors the way opt's searches produce them).
func CheckRadii(pts []geom.Point, radii []float64) error {
	if len(radii) != len(pts) {
		return fmt.Errorf("oracle: %d radii for %d points", len(radii), len(pts))
	}
	want := Interference(pts, radii)

	if err := diffVector("InterferenceRadii", core.InterferenceRadii(pts, radii), want); err != nil {
		return err
	}
	if err := diffVector("InterferenceParallel", core.InterferenceParallel(pts, radii, 4), want); err != nil {
		return err
	}

	// Incremental evaluator: the whole-vector path and one annulus update
	// at a time.
	if err := checkPaths(func() *DiffEvaluator { return NewDiffEvaluator(pts) }, radii); err != nil {
		return fmt.Errorf("oracle: evaluator %w", err)
	}
	return nil
}

func diffVector(path string, got, want core.Vector) error {
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("oracle: %s: I(%d) = %d, naive %d", path, v, got[v], want[v])
		}
	}
	if got.Max() != want.Max() {
		return fmt.Errorf("oracle: %s: max %d, naive %d", path, got.Max(), want.Max())
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
