package oracle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/phys"
)

// DiffEvaluator shadows a core.Measure engine with the obvious slice
// semantics: every mutation is applied to both the optimized engine and a
// plain (points, radii, snapshot-stack) model, and Verify recomputes the
// naive reference for the engine's measure — Interference for the graph
// engine, PhysPower for the physical one — and compares every
// observable. Fuzzers and property tests drive this instead of
// hand-rolling their own shadow state.
//
// Mutations mirror the Measure API including its contracts: BatchSet,
// AddPoint, RemovePoint and MovePoint must not be called while a
// snapshot is active (the underlying engine panics, by design).
type DiffEvaluator struct {
	eng   core.Measure
	naive func(pts []geom.Point, radii []float64) (core.Vector, error)
	pts   []geom.Point
	radii []float64
	stack [][]float64 // shadow of the snapshot marks
}

// NewDiffEvaluator shadows a core.Evaluator, checked against the naive
// Interference of Definition 3.1. Both sides start from the all-zero
// assignment over pts.
func NewDiffEvaluator(pts []geom.Point) *DiffEvaluator {
	return newDiff(core.NewEvaluator(pts), pts, func(pts []geom.Point, radii []float64) (core.Vector, error) {
		return Interference(pts, radii), nil
	})
}

// NewDiffPhysEvaluator shadows a phys.Evaluator under model m, checked
// bit-for-bit against PhysPower: every receiver's quantized power sum,
// then the levels derived from it.
func NewDiffPhysEvaluator(pts []geom.Point, m phys.Model) *DiffEvaluator {
	ev := phys.NewEvaluator(pts, m)
	return newDiff(ev, pts, func(pts []geom.Point, radii []float64) (core.Vector, error) {
		pw := PhysPower(pts, radii, m)
		lv := make(core.Vector, len(pw))
		for v, w := range pw {
			if got := ev.Power(v); got != w {
				return nil, fmt.Errorf("pw(%d) = %d, naive %d", v, got, w)
			}
			lv[v] = int(w >> phys.LogUnitScale)
		}
		return lv, nil
	})
}

func newDiff(eng core.Measure, pts []geom.Point, naive func([]geom.Point, []float64) (core.Vector, error)) *DiffEvaluator {
	return &DiffEvaluator{
		eng:   eng,
		naive: naive,
		pts:   append([]geom.Point(nil), pts...),
		radii: make([]float64, len(pts)),
	}
}

// Engine exposes the engine under test (for assertions beyond Verify).
func (d *DiffEvaluator) Engine() core.Measure { return d.eng }

// N returns the current number of points.
func (d *DiffEvaluator) N() int { return len(d.pts) }

// Depth returns the number of active snapshots.
func (d *DiffEvaluator) Depth() int { return len(d.stack) }

// SetRadius mirrors Measure.SetRadius, returning the prior radius.
func (d *DiffEvaluator) SetRadius(u int, r float64) float64 {
	old := d.eng.SetRadius(u, r)
	d.radii[u] = r
	return old
}

// GrowTo mirrors Measure.GrowTo, returning the prior radius.
func (d *DiffEvaluator) GrowTo(u int, r float64) float64 {
	old := d.eng.GrowTo(u, r)
	if r > d.radii[u] {
		d.radii[u] = r
	}
	return old
}

// Points delegates to the engine (the maintainer reads positions through
// this); Verify still compares against the shadow's own copy.
func (d *DiffEvaluator) Points() []geom.Point { return d.eng.Points() }

// Grid delegates the engine's spatial index, so maintenance pipelines
// that run range queries off the engine work unchanged on the shadow.
func (d *DiffEvaluator) Grid() *geom.Grid { return d.eng.Grid() }

// Max delegates to the engine; Verify independently recomputes it.
func (d *DiffEvaluator) Max() int { return d.eng.Max() }

// SumI delegates to the engine; Verify independently recomputes it.
func (d *DiffEvaluator) SumI() int { return d.eng.SumI() }

// Radius delegates the per-node radius read; Verify checks the radii.
func (d *DiffEvaluator) Radius(u int) float64 { return d.eng.Radius(u) }

// I delegates the per-node interference read; Verify recomputes the
// whole vector naively.
func (d *DiffEvaluator) I(v int) int { return d.eng.I(v) }

// ExportState delegates the engine's copy-on-read snapshot export;
// Verify checks it against the shadow.
func (d *DiffEvaluator) ExportState(dst *core.State) *core.State {
	return d.eng.ExportState(dst)
}

// Snapshot mirrors Measure.Snapshot; the shadow pushes a deep copy of
// the radii, so Restore is checked against an independent implementation
// of the same semantics rather than against the engine's own undo log.
func (d *DiffEvaluator) Snapshot() {
	d.eng.Snapshot()
	d.stack = append(d.stack, append([]float64(nil), d.radii...))
}

// Restore mirrors Measure.Restore.
func (d *DiffEvaluator) Restore() {
	d.eng.Restore()
	d.radii = d.stack[len(d.stack)-1]
	d.stack = d.stack[:len(d.stack)-1]
}

// BatchSet mirrors Measure.BatchSet.
func (d *DiffEvaluator) BatchSet(radii []float64, workers int) {
	d.eng.BatchSet(radii, workers)
	copy(d.radii, radii)
}

// AddPoint mirrors Measure.AddPoint and returns the new index.
func (d *DiffEvaluator) AddPoint(p geom.Point) int {
	idx := d.eng.AddPoint(p)
	d.pts = append(d.pts, p)
	d.radii = append(d.radii, 0)
	return idx
}

// RemovePoint mirrors Measure.RemovePoint.
func (d *DiffEvaluator) RemovePoint(idx int) {
	d.eng.RemovePoint(idx)
	d.pts = append(d.pts[:idx], d.pts[idx+1:]...)
	d.radii = append(d.radii[:idx], d.radii[idx+1:]...)
}

// MovePoint mirrors Measure.MovePoint: the shadow just rewrites the
// position, so Verify's naive recount independently checks the engine's
// incremental relocation bookkeeping.
func (d *DiffEvaluator) MovePoint(idx int, p geom.Point) {
	d.eng.MovePoint(idx, p)
	d.pts[idx] = p
}

// Unwind pops every remaining snapshot (engine and shadow alike), so a
// test can end a random operation sequence in a verifiable base state.
func (d *DiffEvaluator) Unwind() {
	for len(d.stack) > 0 {
		d.Restore()
	}
}

// Verify recomputes the naive reference on the shadow state and compares
// every observable of the engine against it — N, each radius, each
// I(v), Max, SumI and the exported State — returning an error naming the
// first divergence.
func (d *DiffEvaluator) Verify() error {
	if d.eng.N() != len(d.pts) {
		return fmt.Errorf("oracle: engine has %d points, shadow %d", d.eng.N(), len(d.pts))
	}
	for u, r := range d.radii {
		if d.eng.Radius(u) != r {
			return fmt.Errorf("oracle: radius of node %d: engine %v, shadow %v", u, d.eng.Radius(u), r)
		}
	}
	want, err := d.naive(d.pts, d.radii)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	sum := 0
	for v, w := range want {
		if d.eng.I(v) != w {
			return fmt.Errorf("oracle: I(%d): engine %d, naive %d", v, d.eng.I(v), w)
		}
		sum += w
	}
	if d.eng.Max() != want.Max() {
		return fmt.Errorf("oracle: max: engine %d, naive %d", d.eng.Max(), want.Max())
	}
	if d.eng.SumI() != sum {
		return fmt.Errorf("oracle: sumI: engine %d, naive %d", d.eng.SumI(), sum)
	}
	st := d.eng.ExportState(nil)
	if len(st.Points) != len(d.pts) || len(st.Radii) != len(d.radii) || len(st.I) != len(want) {
		return fmt.Errorf("oracle: exported state has %d points, %d radii, %d levels; shadow %d",
			len(st.Points), len(st.Radii), len(st.I), len(d.pts))
	}
	for v := range d.pts {
		if st.Points[v] != d.pts[v] || st.Radii[v] != d.radii[v] || st.I[v] != want[v] {
			return fmt.Errorf("oracle: exported node %d: (%v, %v, %d), shadow (%v, %v, %d)",
				v, st.Points[v], st.Radii[v], st.I[v], d.pts[v], d.radii[v], want[v])
		}
	}
	if st.Max != want.Max() {
		return fmt.Errorf("oracle: exported max %d, naive %d", st.Max, want.Max())
	}
	return nil
}

// checkPaths drives fresh shadows through an engine's two ways to reach
// radii — one BatchSet, and a SetRadius walk — and verifies both.
func checkPaths(shadow func() *DiffEvaluator, radii []float64) error {
	batch := shadow()
	batch.BatchSet(radii, 0)
	if err := batch.Verify(); err != nil {
		return fmt.Errorf("BatchSet path: %w", err)
	}
	walk := shadow()
	for u, r := range radii {
		walk.SetRadius(u, r)
	}
	if err := walk.Verify(); err != nil {
		return fmt.Errorf("SetRadius walk: %w", err)
	}
	return nil
}
