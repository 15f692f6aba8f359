package dynamic_test

import (
	"testing"

	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// ladder returns a 2×cols grid at spacing 0.9 from (x0, y0): UDG edges
// run along the rows and rungs only (diagonals are 1.27 apart), so the
// UDG stays connected after any one node leaves, while the maintained
// spanning topology splits wherever that node was a cut vertex.
func ladder(x0, y0 float64, cols int) []geom.Point {
	var pts []geom.Point
	for i := 0; i < cols; i++ {
		pts = append(pts, geom.Pt(x0+0.9*float64(i), y0), geom.Pt(x0+0.9*float64(i), y0+0.9))
	}
	return pts
}

// splitter returns the node among first..last-1 whose leaving splits
// its topology component into pieces the largest second-largest of
// which is biggest, and that size.
func splitter(m *dynamic.Maintainer, first, last int) (best, second int) {
	for a := first; a < last; a++ {
		g := m.Topology().Clone()
		nbrs := append([]int(nil), g.Neighbors(a)...)
		for _, v := range nbrs {
			g.RemoveEdge(a, v)
		}
		label, k := g.Components()
		size := make([]int, k)
		for _, l := range label {
			size[l]++
		}
		top, next := 0, 0
		seen := map[int]bool{}
		for _, v := range nbrs {
			if s := size[label[v]]; !seen[label[v]] {
				seen[label[v]] = true
				if s > top {
					top, next = s, top
				} else if s > next {
					next = s
				}
			}
		}
		if next > second {
			best, second = a, next
		}
	}
	return best, second
}

// settleBatch applies ops in one batch and checks the settle against
// oracle.RepairEdges on the pre-settle state: the same edges in the
// same order, and labels inducing the topology's partition. It returns
// the oracle's edges.
func settleBatch(t *testing.T, m *dynamic.Maintainer, ops func()) []graph.Edge {
	t.Helper()
	m.BeginBatch()
	ops()
	pre, prePts, m0, r0 := m.Topology().Clone(), m.Points(), m.Topology().M(), m.Rebuilds()
	m.EndBatch()
	want := oracle.RepairEdges(prePts, pre)
	if m.Rebuilds() != r0 {
		t.Fatalf("settle rebuilt; the test needs the repair itself")
	}
	if added := m.Topology().Edges()[m0:]; !sameEdges(added, want) {
		t.Fatalf("settle added %v, oracle %v", added, want)
	}
	if err := dynamic.LabelsErr(m); err != nil {
		t.Fatal(err)
	}
	if !graph.SameComponents(oracle.UDG(m.Points()), m.Topology()) {
		t.Fatal("partition differs from the UDG")
	}
	return want
}

// Two batch shapes the settle's repair must get right, each checked
// against oracle.RepairEdges:
//
//  1. one old label split into two large pieces that the UDG still
//     joins, and
//  2. one piece holding nodes of two old labels, which a link joined.

// TestSkipOnePiecePerLabel: a cut vertex in the middle of a long ladder
// leaves, splitting one label into two large pieces that the UDG still
// joins. The crossing edge between the two pieces is found only from
// the nodes outside the label's largest piece, and the repair must add
// exactly the oracle's edges.
func TestSkipOnePiecePerLabel(t *testing.T) {
	m := dynamic.New(ladder(0, 0, 30), 100)
	a, second := splitter(m, 0, 60)
	if second < 8 {
		t.Fatalf("no node splits the ladder into two large pieces (best %d)", second)
	}
	want := settleBatch(t, m, func() { m.Move(a, geom.Pt(1000, 1000)) })
	if len(want) == 0 {
		t.Fatal("the split needed no repair")
	}
}

// TestSkipNeedsOneLabel: a leaf of ladder B leaves, and a leaf of
// ladder A moves next to the B node it hung from and links to it, so
// one piece (B plus the mover) holds nodes of two old labels. The
// mover's link is a topology edge, not a crossing one: the repair must
// keep the two ladders apart, and the mover's only edge is its link.
func TestSkipNeedsOneLabel(t *testing.T) {
	const nA = 80
	pts := append(ladder(0, 0, nA/2), ladder(0, 50, 20)...)
	m := dynamic.New(pts, 100)
	leaf := func(first, last int) int {
		for u := first; u < last; u++ {
			if m.Topology().Degree(u) == 1 {
				return u
			}
		}
		t.Fatal("no leaf")
		return -1
	}
	a, c := leaf(0, nA), leaf(nA, len(pts))
	b := m.Topology().Neighbors(c)[0]
	p := m.Points()[b]
	dy := 0.3
	if p.Y == 50 {
		dy = -0.3
	}
	settleBatch(t, m, func() {
		m.Move(c, geom.Pt(1000, 1000))
		m.Move(a, geom.Pt(p.X, p.Y+dy))
	})
	if !m.Topology().HasEdge(a, b) || m.Topology().Degree(a) != 1 {
		t.Fatalf("mover's edges %v, want only its link to %d", m.Topology().Neighbors(a), b)
	}
}

// TestRepairLinkJoinsLabelsAndMovesSplitBoth: in one batch a cut vertex
// of ladder A moves into range of ladder B and links to it (joining two
// old labels), and a cut vertex of B moves elsewhere inside B. Both
// ladders split; the repair must rejoin each, against
// oracle.RepairEdges.
func TestRepairLinkJoinsLabelsAndMovesSplitBoth(t *testing.T) {
	pts := append(ladder(0, 0, 12), ladder(0, 40, 12)...)
	m := dynamic.New(pts, 100)
	a, sa := splitter(m, 0, 24)
	b, sb := splitter(m, 24, 48)
	if sa < 2 || sb < 2 {
		t.Fatalf("cut vertices too weak: %d, %d", sa, sb)
	}
	want := settleBatch(t, m, func() {
		m.Move(a, geom.Pt(4.5, 39.5))
		m.Move(b, geom.Pt(0.45, 40.45))
	})
	var inA, inB bool
	for _, e := range want {
		inA = inA || e.U < 24 && e.V < 24
		inB = inB || e.U >= 24 && e.V >= 24
	}
	if !inA || !inB {
		t.Fatalf("repair %v does not rejoin both ladders", want)
	}
}
