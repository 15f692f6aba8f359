package dynamic_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/graph"
)

// TestRestoreRejectsBadState: Restore returns an error, never a panic,
// on every state a maintainer cannot be in — including topologies that
// break the invariant both settles rely on (every topology edge a UDG
// edge, and the topology's partition the UDG's).
func TestRestoreRejectsBadState(t *testing.T) {
	// A path 0–1–2 at unit spacing, and node 3 out of everyone's range.
	good := func() dynamic.RestoreState {
		return dynamic.RestoreState{
			Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(9, 9)},
			Radii:  []float64{1, 1, 1, 0},
			Edges:  []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}},
		}
	}
	if _, err := dynamic.Restore(good(), 0, nil); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(st *dynamic.RestoreState)
		want string
	}{
		{"radii count", func(st *dynamic.RestoreState) { st.Radii = st.Radii[:3] }, "radii"},
		{"edge out of range", func(st *dynamic.RestoreState) { st.Edges[0].V = 4 }, "out of range"},
		{"self-loop", func(st *dynamic.RestoreState) { st.Edges[0].V = 0 }, "self-loop"},
		{"non-UDG edge", func(st *dynamic.RestoreState) { st.Edges[1] = graph.Edge{U: 0, V: 2, W: 2} }, "not a UDG edge"},
		{"NaN radius", func(st *dynamic.RestoreState) { st.Radii[1] = math.NaN() }, "radius"},
		{"negative radius", func(st *dynamic.RestoreState) { st.Radii[2] = -1 }, "radius"},
		{"+Inf radius", func(st *dynamic.RestoreState) { st.Radii[0] = math.Inf(1) }, "radius"},
		{"split UDG component", func(st *dynamic.RestoreState) { st.Edges = st.Edges[:1] }, "crosses"},
	} {
		st := good()
		tc.edit(&st)
		m, err := dynamic.Restore(st, 0, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, %v; want an error mentioning %q", tc.name, m, err, tc.want)
		}
	}
}

// TestRestoreThenSettle: a restored maintainer carries correct component
// labels, so its settles pick the same repair edges as the original's.
func TestRestoreThenSettle(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.9, 0), geom.Pt(1.8, 0), geom.Pt(2.7, 0), geom.Pt(5, 5)}
	a := dynamic.New(pts, 8)
	b, err := dynamic.Restore(a.Snapshot(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*dynamic.Maintainer{a, b} {
		m.BeginBatch()
		m.Move(1, geom.Pt(0.5, 3))
		m.Move(4, geom.Pt(1.3, 0.4))
		m.EndBatch()
		if err := dynamic.LabelsErr(m); err != nil {
			t.Fatal(err)
		}
	}
	if settleHash(a) != settleHash(b) {
		t.Errorf("restored maintainer diverged: %v vs %v", a.Topology().Edges(), b.Topology().Edges())
	}
}
