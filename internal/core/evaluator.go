package core

import (
	"repro/internal/geom"
	"repro/internal/obs"
)

// Evaluator is a stateful interference engine: it builds the spatial grid
// once over a point set and maintains the per-node vector I(v) plus the
// running maximum I(G') under radius mutations in output-sensitive time.
// It is the engine behind the scan-line algorithm A_exp, the greedy and
// RC-LISE constructors, the simulated-annealing and branch-and-bound
// optimizers, and the dynamic topology maintainer.
//
// A radius change r_u → r'_u only affects nodes in the annulus between
// the two disks, so SetRadius enumerates exactly D(u, max) \ D(u, min)
// via the grid's annulus query — O(|annulus|) plus the touched cells. A
// histogram of interference values maintains the maximum under both
// increases and decreases, so Max is O(1) amortized.
//
// Beyond single-radius updates the evaluator supports:
//
//   - Snapshot/Restore: an undo log of radius assignments, letting
//     depth-first searches push and pop speculative assignments instead
//     of re-evaluating (see internal/opt's branch-and-bound);
//   - BatchSet: a whole-vector reset that re-shards the disk enumeration
//     over CPU cores the way InterferenceParallel does, reusing the
//     persistent grid; and
//   - AddPoint/RemovePoint: dynamic maintenance of the point set itself,
//     the engine behind internal/dynamic's insert/remove deltas.
//
// The sender side — points, grid, radii, the undo journal and the
// structural preconditions — is the embedded Senders, shared with
// phys.Evaluator; this type keeps only the receiver side, the ±1 counts
// and their histogram. The evaluator copies the point slice at
// construction, so callers may mutate their own copy freely afterwards.
type Evaluator struct {
	senders // points, grid, radii, undo journal: see Senders
	iv      Vector
	hist    []int // hist[i] = number of nodes with I(v) == i
	max     int
	buf     []int
	mark    []uint32 // MaxIfGrown: mark[x] == stamp iff x entered u's disk
	stamp   uint32
}

// senders names the embedded sender side without exporting the field,
// so only Senders' methods — each of which runs the receiver accounting
// — are reachable from outside the package.
type senders = Senders

// NewEvaluator starts from the all-zero radius assignment (every node
// silent, all interference 0).
func NewEvaluator(pts []geom.Point) *Evaluator {
	ev := &Evaluator{}
	ev.senders = NewSenders(pts, Receivers{
		Radius: ev.radius,
		Batch:  ev.batch,
		Add:    ev.add,
		Move:   ev.move,
		Remove: ev.remove,
		Reset:  ev.reset,
		Export: ev.export,
	})
	ev.iv = make(Vector, ev.N())
	ev.hist = make([]int, ev.N()+1)
	ev.hist[0] = ev.N()
	return ev
}

// I returns the current interference of node v.
func (ev *Evaluator) I(v int) int { return ev.iv[v] }

// Max returns the current I(G') = max_v I(v).
func (ev *Evaluator) Max() int { return ev.max }

// SumI returns Σ_v I(v), read off the interference histogram in
// O(max I) — the serving layer publishes mean interference after every
// batch, so this must not cost a vector scan.
func (ev *Evaluator) SumI() int {
	sum := 0
	for i := 1; i <= ev.max; i++ {
		sum += i * ev.hist[i]
	}
	return sum
}

// MaxIfGrown returns the I(G') that growing u's and v's radii to at
// least w would give — what GrowTo(u, w); GrowTo(v, w); Max() reads —
// without changing anything. The nodes entering u's disk and those
// entering v's each gain one (a node entering both gains two, and no
// disk counts its own center), so the answer is the larger of the
// current maximum and those nodes' raised I(x), read off the same two
// annuli GrowTo would enumerate. v < 0 grows u alone; u != v. Cost is
// O(|annuli|) plus the touched cells: the greedy constructions price
// each candidate edge with it.
func (ev *Evaluator) MaxIfGrown(u, v int, w float64) int {
	best := ev.max
	growV := v >= 0 && w > ev.radii[v]
	if growV {
		ev.nextStamp()
	}
	if w > ev.radii[u] {
		ev.buf = ev.grid.WithinAnnulus(ev.pts[u], ev.radii[u], w, ev.buf[:0])
		for _, x := range ev.buf {
			if x == u {
				continue
			}
			if growV {
				ev.mark[x] = ev.stamp
			}
			if i := ev.iv[x] + 1; i > best {
				best = i
			}
		}
	}
	if growV {
		ev.buf = ev.grid.WithinAnnulus(ev.pts[v], ev.radii[v], w, ev.buf[:0])
		for _, x := range ev.buf {
			if x == v {
				continue
			}
			i := ev.iv[x] + 1
			if ev.mark[x] == ev.stamp {
				i++
			}
			if i > best {
				best = i
			}
		}
	}
	return best
}

// nextStamp starts a fresh MaxIfGrown marking: no node carries the new
// stamp. The mark array follows the point count lazily.
func (ev *Evaluator) nextStamp() {
	ev.stamp++
	if len(ev.mark) < len(ev.iv) || ev.stamp == 0 {
		ev.mark = make([]uint32, len(ev.iv))
		ev.stamp = 1
	}
}

// Vector returns a copy of the current per-node interference vector.
func (ev *Evaluator) Vector() Vector { return append(Vector(nil), ev.iv...) }

// radius accounts a radius change in O(|annulus|): only the nodes
// entering or leaving D(u, r_u) are touched, each by ±1.
func (ev *Evaluator) radius(u int, old, r float64) {
	lo, hi, delta := old, r, 1
	if r < old {
		lo, hi, delta = r, old, -1
	}
	ev.buf = ev.grid.WithinAnnulus(ev.pts[u], lo, hi, ev.buf[:0])
	if obs.On() {
		obsSetRadius.Inc()
		obsAnnulusNodes.Add(int64(len(ev.buf)))
	}
	for _, v := range ev.buf {
		if v != u {
			ev.bump(v, delta)
		}
	}
}

func (ev *Evaluator) bump(v, delta int) {
	oldI := ev.iv[v]
	newI := oldI + delta
	ev.iv[v] = newI
	ev.hist[oldI]--
	ev.hist[newI]++
	if newI > ev.max {
		ev.max = newI
	} else if oldI == ev.max && ev.hist[oldI] == 0 {
		for ev.max > 0 && ev.hist[ev.max] == 0 {
			ev.max--
		}
	}
}

// batch re-shards the disk enumeration over CPU cores the way
// InterferenceParallel does, reusing the persistent grid; small
// instances are evaluated serially either way.
func (ev *Evaluator) batch(radii []float64, workers int) {
	if obs.On() {
		obsBatchSets.Inc()
		sp := obs.Start("core.batchset")
		defer sp.End()
	}
	ev.iv = accumulateInterference(ev.grid, ev.pts, radii, workers, ev.iv[:0])
	ev.rebuildHist()
}

// rebuildHist recomputes the histogram and maximum from the vector.
func (ev *Evaluator) rebuildHist() {
	for i := range ev.hist {
		ev.hist[i] = 0
	}
	ev.max = 0
	for _, x := range ev.iv {
		ev.hist[x]++
		if x > ev.max {
			ev.max = x
		}
	}
}

// recount returns the number of disks covering p other than idx's own:
// one range query bounded by the largest current radius, so arrivals
// and moves cost O(|D(p, r_max) ∩ V|).
func (ev *Evaluator) recount(idx int, p geom.Point, maxR float64) int {
	deg := 0
	if maxR > 0 {
		ev.buf = ev.grid.Within(p, maxR, ev.buf[:0])
		for _, u := range ev.buf {
			if u != idx && ev.radii[u] > 0 && geom.InDisk(ev.pts[u], ev.radii[u], p) {
				deg++
			}
		}
	}
	return deg
}

// add counts the newcomer's own interference — the existing disks
// covering it.
func (ev *Evaluator) add(idx int, p geom.Point, maxR float64) {
	if obs.On() {
		obsAddPoints.Inc()
	}
	deg := ev.recount(idx, p, maxR)
	ev.iv = append(ev.iv, deg)
	for len(ev.hist) < len(ev.iv)+1 {
		ev.hist = append(ev.hist, 0)
	}
	ev.hist[deg]++
	if deg > ev.max {
		ev.max = deg
	}
}

// move recounts the relocated node's own interference.
func (ev *Evaluator) move(idx int, p geom.Point, maxR float64) {
	if obs.On() {
		obsMovePoints.Inc()
	}
	if deg := ev.recount(idx, p, maxR); deg != ev.iv[idx] {
		ev.bump(idx, deg-ev.iv[idx])
	}
}

// remove drops the removed node from the histogram and the vector.
func (ev *Evaluator) remove(idx int) {
	if obs.On() {
		obsRemovePoints.Inc()
	}
	d := ev.iv[idx]
	ev.hist[d]--
	if d == ev.max && ev.hist[d] == 0 {
		for ev.max > 0 && ev.hist[ev.max] == 0 {
			ev.max--
		}
	}
	ev.iv = append(ev.iv[:idx], ev.iv[idx+1:]...)
}

func (ev *Evaluator) reset() {
	for i := range ev.iv {
		ev.iv[i] = 0
	}
	for i := range ev.hist {
		ev.hist[i] = 0
	}
	ev.hist[0] = len(ev.iv)
	ev.max = 0
}

func (ev *Evaluator) export(dst *State) {
	dst.I = append(dst.I[:0], ev.iv...)
	dst.Max = ev.max
}
