package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Senders is the sender side every Measure engine shares: the point set
// and its grid, the radius assignment, the undo journal behind
// Snapshot/Restore, and the preconditions of the structural edits. An
// engine embeds it and hands NewSenders its receiver side, so
// *Evaluator (covering-disk counts) and phys.Evaluator (quantized power
// sums) differ only in what a receiver keeps.
//
// Every mutator validates before it changes anything, then updates the
// sender state and runs the matching Receivers hook: one indirect call
// per radius change or structural step, none per receiver — the
// per-receiver loops live in the hooks' concrete code. No method moves
// a radius or a point without the receiver accounting following.
type Senders struct {
	pts   []geom.Point
	grid  *geom.Grid
	radii []float64
	maxR  float64 // upper bound on max_u radii[u] (never shrinks eagerly)
	rx    Receivers

	// Undo log: SetRadius journals prior radii while snapshots are
	// active; Restore replays the tail in reverse.
	undo  []undoRec
	marks []int // undo-log lengths at each Snapshot
}

type undoRec struct {
	u int
	r float64
}

// Receivers is the receiver side of a Measure engine. Senders calls
// each hook after its own state already reflects the change.
type Receivers struct {
	// Radius accounts sender u's radius change old → r (old != r).
	Radius func(u int, old, r float64)
	// Batch recomputes every receiver from radii (the engine's own
	// slice; read-only) over a non-empty point set.
	Batch func(radii []float64, workers int)
	// Add appends the receiver of the new silent node idx at p; every
	// radius is at most maxR.
	Add func(idx int, p geom.Point, maxR float64)
	// Move recounts what the silenced node idx receives at its new
	// position p; every radius is at most maxR.
	Move func(idx int, p geom.Point, maxR float64)
	// Remove drops the silenced node idx's receiver; the points and
	// radii above idx have shifted down.
	Remove func(idx int)
	// Reset zeroes every receiver.
	Reset func()
	// Export writes the per-node levels and their maximum into dst.
	Export func(dst *State)
}

// NewSenders starts the sender side from the all-zero radius assignment
// over a private copy of pts.
func NewSenders(pts []geom.Point, rx Receivers) Senders {
	own := append([]geom.Point(nil), pts...)
	s := Senders{pts: own, radii: make([]float64, len(own)), rx: rx}
	if len(own) > 0 {
		s.grid = geom.NewGrid(own, gridCell(own))
	}
	return s
}

// N returns the number of points under evaluation.
func (s *Senders) N() int { return len(s.pts) }

// Points returns the evaluated point slice (shared; treat as read-only).
func (s *Senders) Points() []geom.Point { return s.pts }

// Grid returns the engine's spatial index (shared; treat as read-only).
// Callers that need auxiliary range queries over the same point set —
// nearest-neighbor lookups, feasibility checks — reuse it instead of
// building a second grid.
func (s *Senders) Grid() *geom.Grid { return s.grid }

// Radius returns the current radius of u.
func (s *Senders) Radius(u int) float64 { return s.radii[u] }

// Radii returns a copy of the current radius assignment.
func (s *Senders) Radii() []float64 {
	return append([]float64(nil), s.radii...)
}

// SetRadius changes node u's transmission radius and returns the previous
// value, so speculative updates can be reverted exactly:
//
//	old := ev.SetRadius(u, r)
//	if ev.Max() > budget { ev.SetRadius(u, old) }
//
// It panics on a radius that is negative, NaN or infinite.
func (s *Senders) SetRadius(u int, r float64) float64 {
	old := s.radii[u]
	if r == old {
		return old
	}
	if !validRadius(r) {
		panic(fmt.Sprintf("core: invalid radius %v for node %d", r, u))
	}
	if len(s.marks) > 0 {
		s.undo = append(s.undo, undoRec{u, old})
	}
	s.apply(u, r)
	return old
}

// validRadius reports whether r is a radius an engine can account: finite
// and non-negative. An infinite disk would cover every receiver, which
// neither engine's annulus and far-field enumerations express.
func validRadius(r float64) bool { return r >= 0 && r <= math.MaxFloat64 }

// apply performs the radius change without journaling.
func (s *Senders) apply(u int, r float64) {
	old := s.radii[u]
	s.radii[u] = r
	if r > s.maxR {
		s.maxR = r
	}
	s.rx.Radius(u, old, r)
}

// GrowTo raises u's radius to at least r (no-op if already larger),
// returning the previous radius. This matches how adding an edge affects
// an endpoint: r_u = max(r_u, |uv|).
func (s *Senders) GrowTo(u int, r float64) float64 {
	if r <= s.radii[u] {
		return s.radii[u]
	}
	return s.SetRadius(u, r)
}

// Snapshot marks the current radius assignment. Subsequent SetRadius and
// GrowTo calls are journaled until the matching Restore rolls them back.
// Snapshots nest: each Restore undoes back to the most recent Snapshot,
// which is exactly the push/pop a depth-first search needs.
func (s *Senders) Snapshot() {
	s.marks = append(s.marks, len(s.undo))
}

// Restore rolls the engine back to the most recent Snapshot, undoing
// every radius change since in reverse order, and pops that snapshot. It
// panics when no snapshot is active.
func (s *Senders) Restore() {
	if len(s.marks) == 0 {
		panic("core: Restore without Snapshot")
	}
	mark := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	for i := len(s.undo) - 1; i >= mark; i-- {
		rec := s.undo[i]
		if s.radii[rec.u] != rec.r {
			s.apply(rec.u, rec.r)
		}
	}
	s.undo = s.undo[:mark]
}

// structural enforces the preconditions shared by the edits outside
// snapshot scope.
func (s *Senders) structural(op string) {
	if len(s.marks) > 0 {
		panic("core: " + op + " during active snapshot")
	}
}

// inRange panics unless idx names a node.
func (s *Senders) inRange(op string, idx int) {
	if idx < 0 || idx >= len(s.pts) {
		panic(fmt.Sprintf("core: %s index %d out of range", op, idx))
	}
}

// BatchSet replaces the entire radius assignment in one pass. workers is
// passed to the receiver side (<= 0 selects GOMAXPROCS where it shards).
// It panics, leaving the engine unchanged, on a length mismatch, a
// negative, NaN or infinite radius, or an active snapshot (a
// whole-vector reset has no cheap undo).
func (s *Senders) BatchSet(radii []float64, workers int) {
	if len(radii) != len(s.pts) {
		panic("core: radius vector length mismatch")
	}
	s.structural("BatchSet")
	maxR := 0.0
	for u, r := range radii {
		if !validRadius(r) {
			panic(fmt.Sprintf("core: invalid radius %v for node %d in BatchSet", r, u))
		}
		if r > maxR {
			maxR = r
		}
	}
	copy(s.radii, radii)
	s.maxR = maxR
	if len(s.pts) > 0 {
		s.rx.Batch(s.radii, workers)
	}
}

// AddPoint appends a new (initially silent) node to the evaluated set
// and returns its index; the receiver side counts what the newcomer
// receives. It panics while a snapshot is active.
func (s *Senders) AddPoint(p geom.Point) int {
	s.structural("AddPoint")
	if s.grid == nil {
		// First point ever: bootstrap the grid around it.
		s.pts = append(s.pts, p)
		s.grid = geom.NewGrid(s.pts, 1)
	} else {
		s.grid.Add(p)
		s.pts = s.grid.Points()
	}
	idx := len(s.pts) - 1
	s.radii = append(s.radii, 0)
	s.rx.Add(idx, p, s.maxR)
	return idx
}

// RemovePoint deletes the node at index idx: its disk stops interfering
// (as if its radius were set to 0) and it stops counting as a receiver.
// Indices above idx shift down by one, matching slice semantics. Cost is
// the silencing update plus the O(n) index shift. It panics while a
// snapshot is active.
func (s *Senders) RemovePoint(idx int) {
	s.structural("RemovePoint")
	s.inRange("RemovePoint", idx)
	s.SetRadius(idx, 0)
	s.grid.Remove(idx)
	s.pts = s.grid.Points()
	s.radii = append(s.radii[:idx], s.radii[idx+1:]...)
	s.rx.Remove(idx)
}

// MovePoint relocates the node at idx, keeping its index and radius:
// the disk is silenced at the old position, the node's own reception is
// recounted at the new one, and the disk is re-lit there. No index
// shifts, so sustained churn costs output-sensitive time per move
// instead of the O(n) a RemovePoint + AddPoint pair pays. It panics
// while a snapshot is active.
func (s *Senders) MovePoint(idx int, p geom.Point) {
	s.structural("MovePoint")
	s.inRange("MovePoint", idx)
	r := s.radii[idx]
	s.SetRadius(idx, 0)
	// s.pts aliases the grid's slice, so the grid update is visible
	// through s.pts[idx] immediately.
	s.grid.Move(idx, p)
	s.rx.Move(idx, p, s.maxR)
	s.SetRadius(idx, r)
}

// Reset returns the engine to the all-zero assignment without
// reallocating, discarding any active snapshots.
func (s *Senders) Reset() {
	for i := range s.radii {
		s.radii[i] = 0
	}
	s.maxR = 0
	s.undo = s.undo[:0]
	s.marks = s.marks[:0]
	s.rx.Reset()
}

// ExportState copies the engine's current observables into dst and
// returns it, allocating a fresh State when dst is nil. The backing
// arrays of a non-nil dst are reused when their capacity allows, so a
// single-reader loop can export repeatedly without allocating; pass nil
// whenever the result must be immutable (shared with other readers).
// Cost is three copies — nothing is recomputed.
func (s *Senders) ExportState(dst *State) *State {
	if dst == nil {
		dst = &State{}
	}
	dst.Points = append(dst.Points[:0], s.pts...)
	dst.Radii = append(dst.Radii[:0], s.radii...)
	s.rx.Export(dst)
	return dst
}
