package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
)

// Metamorphic laws: properties the interference measure satisfies on
// every instance, stated as generators — each law draws its own random
// instance from the supplied source and checks the property against both
// the naive model and the optimized engine. Property tests loop Laws()
// over many seeds; fuzzers can call an individual law with a
// fuzz-controlled source.
//
// Floating-point discipline: the scale law multiplies by powers of two
// (exact in IEEE double, so disk membership is preserved bit-for-bit even
// for nodes exactly on a boundary) and the translation law quantizes
// coordinates to multiples of 2⁻¹⁶ and translates by integers (coordinate
// differences, hence all distances, are then bit-identical). Anything
// sloppier would report fp ties as law violations.

// Law is one named metamorphic property.
type Law struct {
	// Name identifies the law in test output.
	Name string
	// Check draws a random instance and verifies the property, returning
	// an error describing the violation (nil when the law holds).
	Check func(rng *rand.Rand) error
}

// Laws returns the full catalogue, graph-measure laws followed by the
// physical-measure laws from physlaws.go.
func Laws() []Law {
	return append([]Law{
		{"arrival-delta-at-most-one", lawArrivalDelta},
		{"scale-invariance", lawScaleInvariance},
		{"translate-invariance", lawTranslateInvariance},
		{"radius-monotonicity", lawMonotonicity},
		{"snapshot-roundtrip", lawSnapshotRoundTrip},
	}, physLaws()...)
}

// lawInstance draws n points quantized to multiples of 2⁻¹⁶ in a square
// of the given side, and radii that mix exact pairwise distances (nodes
// exactly on disk boundaries, the hard case) with arbitrary values.
func lawInstance(rng *rand.Rand, n int, side float64) ([]geom.Point, []float64) {
	const q = 1.0 / (1 << 16)
	pts := make([]geom.Point, n)
	cells := int(side / q)
	for i := range pts {
		pts[i] = geom.Pt(float64(rng.Intn(cells))*q, float64(rng.Intn(cells))*q)
	}
	radii := make([]float64, n)
	for u := range radii {
		switch rng.Intn(3) {
		case 0: // silent
		case 1: // exactly reaching some other node
			if n > 1 {
				v := rng.Intn(n - 1)
				if v >= u {
					v++
				}
				radii[u] = pts[u].Dist(pts[v])
			}
		default:
			radii[u] = rng.Float64() * side
		}
	}
	return pts, radii
}

// lawArrivalDelta: with existing radii fixed, one arrival raises any
// existing node's interference by at most 1 and lowers none — the paper's
// robustness theorem (Section 3). Checked against the naive model and
// against core.FixedTopologyDelta.
func lawArrivalDelta(rng *rand.Rand) error {
	n := 2 + rng.Intn(30)
	pts, radii := lawInstance(rng, n, 4)
	newcomer := geom.Pt(rng.Float64()*4, rng.Float64()*4)
	newR := rng.Float64() * 6

	before := Interference(pts, radii)
	after := Interference(append(append([]geom.Point(nil), pts...), newcomer),
		append(append([]float64(nil), radii...), newR))
	fast := core.FixedTopologyDelta(append(append([]geom.Point(nil), pts...), newcomer), radii, newR)
	for v := 0; v < n; v++ {
		d := after[v] - before[v]
		if d < 0 || d > 1 {
			return fmt.Errorf("arrival delta of node %d is %d, want 0 or 1", v, d)
		}
		if fast[v] != d {
			return fmt.Errorf("node %d: FixedTopologyDelta %d, naive %d", v, fast[v], d)
		}
	}
	return nil
}

// lawScaleInvariance: I is scale-free — multiplying every coordinate and
// radius by the same factor leaves the whole vector unchanged. Factors
// are powers of two so the transformation is exact in fp.
func lawScaleInvariance(rng *rand.Rand) error {
	pts, radii := lawInstance(rng, 2+rng.Intn(30), 4)
	s := []float64{0.25, 0.5, 2, 4, 8}[rng.Intn(5)]
	scaledPts := make([]geom.Point, len(pts))
	scaledRadii := make([]float64, len(radii))
	for i := range pts {
		scaledPts[i] = pts[i].Scale(s)
		scaledRadii[i] = radii[i] * s
	}
	orig := Interference(pts, radii)
	scaled := Interference(scaledPts, scaledRadii)
	for v := range orig {
		if orig[v] != scaled[v] {
			return fmt.Errorf("I(%d) changed under ×%v scaling: %d → %d", v, s, orig[v], scaled[v])
		}
	}
	// The optimized path must be scale-free too.
	fast := core.InterferenceRadii(scaledPts, scaledRadii)
	for v := range orig {
		if fast[v] != orig[v] {
			return fmt.Errorf("core I(%d) under ×%v scaling: %d, want %d", v, s, fast[v], orig[v])
		}
	}
	return nil
}

// lawTranslateInvariance: I depends only on relative positions. Integer
// translations of quantized coordinates keep every coordinate difference
// bit-identical, so the vectors must match exactly.
func lawTranslateInvariance(rng *rand.Rand) error {
	pts, radii := lawInstance(rng, 2+rng.Intn(30), 4)
	dx := float64(rng.Intn(2001) - 1000)
	dy := float64(rng.Intn(2001) - 1000)
	moved := make([]geom.Point, len(pts))
	for i := range pts {
		moved[i] = pts[i].Add(geom.Pt(dx, dy))
	}
	orig := Interference(pts, radii)
	trans := Interference(moved, radii)
	for v := range orig {
		if orig[v] != trans[v] {
			return fmt.Errorf("I(%d) changed under (%v,%v) translation: %d → %d", v, dx, dy, orig[v], trans[v])
		}
	}
	fast := core.InterferenceRadii(moved, radii)
	for v := range orig {
		if fast[v] != orig[v] {
			return fmt.Errorf("core I(%d) under translation: %d, want %d", v, fast[v], orig[v])
		}
	}
	return nil
}

// lawMonotonicity: growing one node's radius never lowers any node's
// interference, and the incremental engine agrees with a naive recompute
// after the growth.
func lawMonotonicity(rng *rand.Rand) error {
	pts, radii := lawInstance(rng, 2+rng.Intn(30), 4)
	u := rng.Intn(len(pts))
	grown := append([]float64(nil), radii...)
	grown[u] = radii[u] + rng.Float64()*4

	before := Interference(pts, radii)
	after := Interference(pts, grown)
	for v := range before {
		if after[v] < before[v] {
			return fmt.Errorf("I(%d) dropped from %d to %d when r_%d grew", v, before[v], after[v], u)
		}
	}
	ev := core.NewEvaluator(pts)
	ev.BatchSet(radii, 0)
	ev.SetRadius(u, grown[u])
	for v := range after {
		if ev.I(v) != after[v] {
			return fmt.Errorf("evaluator I(%d) after growth: %d, naive %d", v, ev.I(v), after[v])
		}
	}
	return nil
}

// lawSnapshotRoundTrip: a Snapshot, any sequence of radius mutations (and
// nested snapshot/restore pairs), then Restore must return the engine to
// the exact pre-snapshot state — radii, vector, and maximum.
func lawSnapshotRoundTrip(rng *rand.Rand) error {
	pts, radii := lawInstance(rng, 2+rng.Intn(30), 4)
	d := NewDiffEvaluator(pts)
	d.BatchSet(radii, 0)
	want := d.ExportState(nil)

	d.Snapshot()
	for i, ops := 0, 4+rng.Intn(24); i < ops; i++ {
		switch rng.Intn(4) {
		case 0:
			d.GrowTo(rng.Intn(len(pts)), rng.Float64()*6)
		case 1:
			if d.Depth() < 4 {
				d.Snapshot()
			}
		case 2:
			if d.Depth() > 1 { // keep the outermost snapshot for the round trip
				d.Restore()
			}
		default:
			d.SetRadius(rng.Intn(len(pts)), rng.Float64()*6)
		}
	}
	for d.Depth() > 1 {
		d.Restore()
	}
	d.Restore()

	if err := d.Verify(); err != nil {
		return err
	}
	got := d.ExportState(nil)
	for u := range want.Radii {
		if got.Radii[u] != want.Radii[u] {
			return fmt.Errorf("radius of %d after round trip: %v, want %v", u, got.Radii[u], want.Radii[u])
		}
	}
	for v := range want.I {
		if got.I[v] != want.I[v] {
			return fmt.Errorf("I(%d) after round trip: %d, want %d", v, got.I[v], want.I[v])
		}
	}
	if got.Max != want.Max {
		return fmt.Errorf("max after round trip: %d, want %d", got.Max, want.Max)
	}
	return nil
}
