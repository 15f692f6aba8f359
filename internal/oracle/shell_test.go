package oracle_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/gather"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/highway"
	"repro/internal/opt"
	"repro/internal/oracle"
	"repro/internal/topology"
	"repro/internal/udg"
)

// TestOracleRangeShell pins the one range rule. geom.InDisk compares
// squared distances, d² ≤ r²·(1+1e-9), so its unit disk ends at relative
// distance about 1+5·10⁻¹⁰; a distance-form test d ≤ 1+1e-9 would admit
// a shell beyond it. One pair inside that shell (1+7·10⁻¹⁰, out of
// range) and one just inside the disk (1+3·10⁻¹⁰, in range) must get the
// same verdict from every site that decides "within unit range".
//
// The instance is p0 = (0, 0), p1 = (d, 0), p2 = (−0.5, 0): p2 keeps p0
// connected either way, and p1 reaches only p0, so the verdict on
// {p0, p1} is visible in every construction.
func TestOracleRangeShell(t *testing.T) {
	for _, tc := range []struct {
		d    float64
		want bool
	}{
		{1 + 7e-10, false},
		{1 + 3e-10, true},
	} {
		d, want := tc.d, tc.want
		p0, p1, p2 := geom.Pt(0, 0), geom.Pt(d, 0), geom.Pt(-0.5, 0)
		pts := []geom.Point{p0, p1, p2}
		hw := []geom.Point{p2, p0, p1} // the same nodes as a sorted highway
		if got := geom.InDisk(p0, udg.Radius, p1); got != want {
			t.Fatalf("d=%v: InDisk = %v, want %v", d, got, want)
		}
		check := func(site string, got bool) {
			t.Helper()
			if got != want {
				t.Errorf("d=%v: %s says in range = %v, InDisk says %v", d, site, got, want)
			}
		}
		both := []float64{d, d, 0.5}

		check("udg.Build", udg.Build(pts).HasEdge(0, 1))
		check("oracle.UDG", oracle.UDG(pts).HasEdge(0, 1))
		check("oracle.NNF", oracle.NNF(pts).HasEdge(0, 1))
		check("topology.NNF", topology.NNF(pts).HasEdge(0, 1))
		label, _ := oracle.Components(pts)
		check("oracle.Components", label[0] == label[1])
		check("oracle.Feasible", !oracle.Feasible(pts, []float64{0.5, 0, 0.5}))
		check("oracle.MutualGraph", oracle.MutualGraph(pts, both).HasEdge(0, 1))
		check("oracle.MSTWeight", oracle.MSTWeight(pts) > 1)
		check("graph.EuclideanMST", graph.EuclideanMST(pts, udg.Radius).HasEdge(0, 1))
		check("oracle.EuclideanMST", oracle.EuclideanMST(pts, udg.Radius).HasEdge(0, 1))
		check("oracle.Candidates", len(oracle.Candidates(pts)[0]) == 2)
		check("opt.MutualGraph", opt.MutualGraph(pts, both).HasEdge(0, 1))
		check("opt.RealizeForest", opt.RealizeForest(pts, both).HasEdge(0, 1))

		ins := dynamic.New([]geom.Point{p0, p2}, 0)
		idx := ins.Insert(p1)
		check("Maintainer.Insert", ins.Topology().HasEdge(0, idx))
		if ins.Rebuilds() != 1 {
			t.Errorf("d=%v: Insert rebuilt (%d rebuilds)", d, ins.Rebuilds())
		}
		mv := dynamic.New([]geom.Point{p0, p2, geom.Pt(5, 5)}, 0)
		mv.Move(2, p1)
		check("Maintainer.Move", mv.Topology().HasEdge(0, 2))
		if mv.Rebuilds() != 1 {
			t.Errorf("d=%v: Move rebuilt (%d rebuilds)", d, mv.Rebuilds())
		}

		check("highway.LinearRange", highway.LinearRange(hw, udg.Radius).HasEdge(1, 2))
		check("highway.AExpRange", highway.AExpRange(hw, udg.Radius).HasEdge(1, 2))
		check("highway.AGen", highway.AGen(hw).HasEdge(1, 2))
		check("dist A_gen", dist.NewRuntime(hw, dist.NewAGenNode(1, hw[0].X)).Run(10).HasEdge(1, 2))

		tree := gather.Tree{Sink: 0, Parent: []int{-1, 0, 0}}
		check("gather.Tree.Validate", tree.Validate(pts) == nil)
	}

	// A negative radius is an empty disk at every site that takes one: the
	// oracle's scans agree with the grid, and the forests have no edges.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0)}
	grid := geom.NewGrid(pts, 1)
	for site, admits := range map[string]bool{
		"geom.InDisk":          geom.InDisk(pts[0], -1, pts[1]),
		"oracle.Within":        len(oracle.Within(pts, pts[0], -1)) > 0,
		"oracle.WithinAnnulus": len(oracle.WithinAnnulus(pts, pts[0], -2, -1)) > 0,
		"Grid.Within":          len(grid.Within(pts[0], -1, nil)) > 0,
		"Grid.CountWithin":     grid.CountWithin(pts[0], -1) > 0,
		"graph.EuclideanMST":   graph.EuclideanMST(pts, -1).M() > 0,
		"oracle.EuclideanMST":  oracle.EuclideanMST(pts, -1).M() > 0,
	} {
		if admits {
			t.Errorf("r=-1: %s admits a point or an edge, want none", site)
		}
	}
}
