package phys

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Evaluator maintains per-receiver quantized power sums incrementally
// under the core.Measure mutation surface. Where core.Evaluator counts
// covering disks (±1 per annulus node), this engine adds and removes
// Units(r, d²) contributions per far-field neighborhood node: a radius
// change r→r' touches Within(u, F·max(r, r')) — power changes at every
// distance, not just in the annulus — and each touched receiver's sum
// moves by the exact integer delta, so the update is reversible and
// order-independent.
//
// Max is kept by a (maxLevel, count-at-max) pair instead of core's
// dense histogram — levels can reach ~2^20 for coincident points, far
// too sparse to array-index. Increases update the pair in O(1);
// the rare decrease that empties the top level falls back to one O(n)
// rescan, counted by rim_phys_max_rescans_total.
//
// The sender side — points, grid, radii, the undo journal (exact here
// too, because integer deltas cancel) and the structural preconditions
// — is the embedded core.Senders, shared with core.Evaluator; this type
// keeps only what is physical.
type Evaluator struct {
	senders // points, grid, radii, undo journal: see core.Senders
	model   Model
	pw      []int64 // quantized received power per node, Σ Units(r_u, d²(u,v))

	sumLevels int64
	maxLevel  int
	atMax     int // nodes with level == maxLevel
	buf       []int
}

// senders names the embedded core.Senders without exporting the field,
// so only its methods — each of which runs the power accounting below —
// are reachable from outside the package.
type senders = core.Senders

// NewEvaluator starts from the all-zero radius assignment under the
// given model. The point slice is copied.
func NewEvaluator(pts []geom.Point, m Model) *Evaluator {
	ev := &Evaluator{model: m}
	ev.senders = core.NewSenders(pts, core.Receivers{
		Radius: ev.radius,
		Batch:  ev.batch,
		Add:    ev.add,
		Move:   ev.move,
		Remove: ev.remove,
		Reset:  ev.reset,
		Export: ev.export,
	})
	ev.pw = make([]int64, ev.N())
	ev.atMax = ev.N()
	if obs.On() {
		obsTruncBound.Set(m.TruncationBound(ev.N()))
	}
	return ev
}

// NewMeasure is the core.MeasureFactory for the default physical model.
func NewMeasure(pts []geom.Point) core.Measure {
	return NewEvaluator(pts, Default())
}

var _ core.Measure = (*Evaluator)(nil)

// Model returns the physical-layer constants this evaluator runs under.
func (ev *Evaluator) Model() Model { return ev.model }

// Power returns v's quantized received power sum (UnitScale units per
// decode threshold). This is the exact quantity the naive oracle
// recomputes from scratch.
func (ev *Evaluator) Power(v int) int64 { return ev.pw[v] }

// I returns v's integer interference level — received power in whole
// decode thresholds, ⌊pw/UnitScale⌋.
func (ev *Evaluator) I(v int) int { return level(ev.pw[v]) }

// Max returns the maximum interference level over all receivers.
func (ev *Evaluator) Max() int { return ev.maxLevel }

// SumI returns Σ_v level(v), maintained incrementally.
func (ev *Evaluator) SumI() int { return int(ev.sumLevels) }

func level(pw int64) int { return int(pw >> LogUnitScale) }

// radius accounts a radius change in O(|D(u, F·max(old, new)) ∩ V|) —
// every receiver inside the larger far-field disk re-weighs u's
// contribution.
func (ev *Evaluator) radius(u int, old, r float64) {
	hi := old
	if r > hi {
		hi = r
	}
	pts := ev.Points()
	p := pts[u]
	ev.buf = ev.Grid().Within(p, ev.model.FarField*hi, ev.buf[:0])
	if obs.On() {
		obsSetRadius.Inc()
		obsReachNodes.Add(int64(len(ev.buf)))
	}
	for _, v := range ev.buf {
		if v == u {
			continue
		}
		d2 := p.Dist2(pts[v])
		if delta := ev.model.Units(r, d2) - ev.model.Units(old, d2); delta != 0 {
			ev.addPW(v, delta)
		}
	}
}

// addPW moves v's power sum by delta and maintains sumLevels and the
// (maxLevel, atMax) pair.
func (ev *Evaluator) addPW(v int, delta int64) {
	oldL := level(ev.pw[v])
	ev.pw[v] += delta
	newL := level(ev.pw[v])
	if newL == oldL {
		return
	}
	ev.sumLevels += int64(newL - oldL)
	if newL > oldL {
		if newL > ev.maxLevel {
			ev.maxLevel, ev.atMax = newL, 1
			if obs.On() {
				obsMaxLevel.Set(float64(newL))
			}
		} else if newL == ev.maxLevel {
			ev.atMax++
		}
	} else if oldL == ev.maxLevel {
		ev.atMax--
		if ev.atMax == 0 {
			ev.rescanMax()
		}
	}
}

// rescanMax recounts the (maxLevel, atMax) pair in one pass — the
// fallback when every holder of the previous maximum decreased.
func (ev *Evaluator) rescanMax() {
	if obs.On() {
		obsMaxRescans.Inc()
	}
	maxL, cnt := 0, 0
	for _, p := range ev.pw {
		if l := level(p); l > maxL {
			maxL, cnt = l, 1
		} else if l == maxL {
			cnt++
		}
	}
	ev.maxLevel, ev.atMax = maxL, cnt
	if obs.On() {
		obsMaxLevel.Set(float64(maxL))
	}
}

// batch recomputes every power sum in one pass over the senders'
// far-field disks. workers is ignored: accumulation is serial because
// it is already output-sensitive over the grid, and the quantized
// integer adds keep any future sharding bit-identical.
func (ev *Evaluator) batch(radii []float64, _ int) {
	if obs.On() {
		obsBatchSets.Inc()
		sp := obs.Start("phys.batchset")
		defer sp.End()
	}
	for i := range ev.pw {
		ev.pw[i] = 0
	}
	pts, grid := ev.Points(), ev.Grid()
	for u, r := range radii {
		if r <= 0 {
			continue
		}
		p := pts[u]
		ev.buf = grid.Within(p, ev.model.FarField*r, ev.buf[:0])
		for _, v := range ev.buf {
			if v == u {
				continue
			}
			ev.pw[v] += ev.model.Units(r, p.Dist2(pts[v]))
		}
	}
	ev.rebuildLevels()
}

// rebuildLevels recomputes sumLevels and the max pair from pw.
func (ev *Evaluator) rebuildLevels() {
	ev.sumLevels = 0
	maxL, cnt := 0, 0
	for _, p := range ev.pw {
		l := level(p)
		ev.sumLevels += int64(l)
		if l > maxL {
			maxL, cnt = l, 1
		} else if l == maxL {
			cnt++
		}
	}
	ev.maxLevel, ev.atMax = maxL, cnt
	if obs.On() {
		obsMaxLevel.Set(float64(maxL))
	}
}

// add appends the newcomer's power sum: one range query bounded by the
// largest current far-field reach.
func (ev *Evaluator) add(idx int, p geom.Point, maxR float64) {
	if obs.On() {
		obsAddPoints.Inc()
	}
	ev.pw = append(ev.pw, ev.recount(idx, p, maxR))
	l := level(ev.pw[idx])
	ev.sumLevels += int64(l)
	if l > ev.maxLevel {
		ev.maxLevel, ev.atMax = l, 1
	} else if l == ev.maxLevel {
		ev.atMax++
	}
	if obs.On() {
		obsMaxLevel.Set(float64(ev.maxLevel))
		obsTruncBound.Set(ev.model.TruncationBound(len(ev.pw)))
	}
}

// recount computes node idx's power sum from scratch at position p:
// one range query bounded by the largest current far-field reach.
func (ev *Evaluator) recount(idx int, p geom.Point, maxR float64) int64 {
	if maxR <= 0 {
		return 0
	}
	var pw int64
	pts := ev.Points()
	ev.buf = ev.Grid().Within(p, ev.model.FarField*maxR, ev.buf[:0])
	for _, u := range ev.buf {
		if r := ev.Radius(u); u != idx && r > 0 {
			pw += ev.model.Units(r, pts[u].Dist2(p))
		}
	}
	return pw
}

// move recounts the relocated node's own power sum.
func (ev *Evaluator) move(idx int, p geom.Point, maxR float64) {
	if obs.On() {
		obsMovePoints.Inc()
	}
	if delta := ev.recount(idx, p, maxR) - ev.pw[idx]; delta != 0 {
		ev.addPW(idx, delta)
	}
}

// remove drops the removed node's level from the sum and the max pair.
func (ev *Evaluator) remove(idx int) {
	if obs.On() {
		obsRemovePoints.Inc()
	}
	l := level(ev.pw[idx])
	ev.sumLevels -= int64(l)
	ev.pw = append(ev.pw[:idx], ev.pw[idx+1:]...)
	if l == ev.maxLevel {
		ev.atMax--
		if ev.atMax == 0 {
			ev.rescanMax()
		}
	}
	if obs.On() {
		obsMaxLevel.Set(float64(ev.maxLevel))
		obsTruncBound.Set(ev.model.TruncationBound(len(ev.pw)))
	}
}

func (ev *Evaluator) reset() {
	for i := range ev.pw {
		ev.pw[i] = 0
	}
	ev.sumLevels = 0
	ev.maxLevel = 0
	ev.atMax = len(ev.pw)
}

// export writes the levels as the I vector.
func (ev *Evaluator) export(dst *core.State) {
	dst.I = dst.I[:0]
	for _, p := range ev.pw {
		dst.I = append(dst.I, level(p))
	}
	dst.Max = ev.maxLevel
}
