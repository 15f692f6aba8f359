package oracle

import (
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/phys"
)

// The sorted-sweep recount: Interference and PhysPower again, equal to
// them bit for bit, in O(n log n + Σ strip) instead of O(n²). It sorts
// the points once along the axis of larger extent. A sender's disk can
// only hold receivers whose coordinate along that axis lies within its
// reach, and those form one contiguous strip of the sorted order, found
// by two binary searches. Each pair inside the strip is then decided by
// the exact predicate the naive loop uses. One tight cluster puts every
// point in every strip, so the worst case stays O(n²); radii bounded by
// the unit range keep strips thin on spread-out instances.
//
// Like the naive functions, the sweep uses no spatial index and no
// engine code, so it stays an independent check of incremental state.
//
// The strip test is implied by the exact test. It is the exact disk test
// applied to v projected onto u's line along the sort axis: the
// projection's Dist2 is fl(d²) for the same d = fl(x_u − x_v) that
// Dist2(u, v) squares, plus an exact zero. Dist2(u, v) adds a
// nonnegative term to fl(d²), and rounding is monotone, so a pair inside
// the exact disk is inside the projected one. Since d is monotone in
// x_v, the projected test holds on one contiguous run of the sorted
// order around u. Strip ends computed as x_u ± r would not be sound: on
// exponential chains that sum rounds inside the disk's relative epsilon.

// SweepInterference is Interference (Definition 3.1) by the sorted
// sweep: I(v) = |{u ≠ v : v ∈ D(u, r_u)}| under geom.InDisk.
func SweepInterference(pts []geom.Point, radii []float64) core.Vector {
	iv := make(core.Vector, len(pts))
	sweep(pts, radii, func(r float64) float64 { return r }, func(u, v int) {
		if geom.InDisk(pts[u], radii[u], pts[v]) {
			iv[v]++
		}
	})
	return iv
}

// SweepPhysPower is PhysPower by the sorted sweep. A sender's support is
// the disk of radius m.Reach(r): Units cuts off with geom's disk epsilon,
// so a receiver outside geom.InDisk(p_u, F·r_u, ·) gets nothing from u.
func SweepPhysPower(pts []geom.Point, radii []float64, m phys.Model) []int64 {
	pw := make([]int64, len(pts))
	sweep(pts, radii, m.Reach, func(u, v int) {
		pw[v] += m.Units(radii[u], pts[u].Dist2(pts[v]))
	})
	return pw
}

// SweepPhysLevels reduces SweepPhysPower to interference levels, as
// PhysLevels does.
func SweepPhysLevels(pts []geom.Point, radii []float64, m phys.Model) core.Vector {
	return levels(SweepPhysPower(pts, radii, m))
}

// sweep calls visit(u, v) for every sender u with r_u > 0 and every
// receiver v ≠ u in u's strip: the receivers whose projection onto u's
// line along the sort axis lies in the disk of radius reach(r_u).
func sweep(pts []geom.Point, radii []float64, reach func(float64) float64, visit func(u, v int)) {
	n := len(pts)
	if n == 0 {
		return
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo.X, hi.X = min(lo.X, p.X), max(hi.X, p.X)
		lo.Y, hi.Y = min(lo.Y, p.Y), max(hi.Y, p.Y)
	}
	alongX := hi.X-lo.X >= hi.Y-lo.Y
	along := make([]float64, n) // each point's coordinate on the sort axis
	for u, p := range pts {
		along[u] = p.Y
		if alongX {
			along[u] = p.X
		}
	}
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return along[ord[a]] < along[ord[b]] })
	pos := make([]int, n)
	for i, u := range ord {
		pos[u] = i
	}
	for u, r := range radii {
		if r <= 0 {
			continue
		}
		c, rr := pts[u], reach(r)
		near := func(i int) bool {
			p := c
			if alongX {
				p.X = along[ord[i]]
			} else {
				p.Y = along[ord[i]]
			}
			return geom.InDisk(c, rr, p)
		}
		at := pos[u]
		first := sort.Search(at, near)
		end := at + sort.Search(n-at, func(k int) bool { return !near(at + k) })
		for _, v := range ord[first:end] {
			if v != u {
				visit(u, v)
			}
		}
	}
}
