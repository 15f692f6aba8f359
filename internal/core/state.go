package core

import "repro/internal/geom"

// State is a copy-on-read export of an Evaluator's observables: the point
// set, the radius assignment, the per-node interference vector, and the
// maximum. It is plain data with no backing references into the engine,
// so a caller may publish it to concurrent readers (the serving layer's
// atomically-swapped snapshots) while the evaluator keeps mutating.
type State struct {
	Points []geom.Point
	Radii  []float64
	I      Vector
	Max    int
}

// N returns the number of nodes in the exported state.
func (s *State) N() int { return len(s.Points) }
