package oracle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/phys"
)

// Naive physical-model reference: recompute every receiver's quantized
// power sum from the definition, O(n²), no grid, no incrementality.
// phys.Evaluator must agree bit-for-bit — both sides call
// phys.Model.Units with identical float arguments and sum exact
// integers, so "close" is not accepted anywhere.

// PhysPower recomputes the quantized received-power sums from the
// definition: pw(v) = Σ_{u≠v} Units(r_u, d²(u,v)).
func PhysPower(pts []geom.Point, radii []float64, m phys.Model) []int64 {
	pw := make([]int64, len(pts))
	for u, r := range radii {
		if r <= 0 {
			continue
		}
		for v := range pts {
			if v != u {
				pw[v] += m.Units(r, pts[u].Dist2(pts[v]))
			}
		}
	}
	return pw
}

// PhysLevels reduces PhysPower to integer interference levels
// (⌊pw/UnitScale⌋), the physical analogue of the naive Interference
// vector.
func PhysLevels(pts []geom.Point, radii []float64, m phys.Model) core.Vector {
	return levels(PhysPower(pts, radii, m))
}

// levels floors quantized power sums to integer interference levels.
func levels(pw []int64) core.Vector {
	lv := make(core.Vector, len(pw))
	for i, p := range pw {
		lv[i] = int(p >> phys.LogUnitScale)
	}
	return lv
}

// CheckPhysRadii cross-checks the incremental physical evaluator
// against the naive model on one assignment, driving both the BatchSet
// path and the per-node SetRadius path.
func CheckPhysRadii(pts []geom.Point, radii []float64, m phys.Model) error {
	if err := checkPaths(func() *DiffEvaluator { return NewDiffPhysEvaluator(pts, m) }, radii); err != nil {
		return fmt.Errorf("oracle: phys %w", err)
	}
	return nil
}
