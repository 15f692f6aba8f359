package oracle_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/phys"
	"repro/internal/topology"
	"repro/internal/udg"
)

// instances returns the deterministic instance families the oracle's own
// tests sweep: uniform squares, clusters, highway chains, and the paper's
// gadgets, at sizes where the quadratic references stay fast.
func instances(seed int64) map[string][]geom.Point {
	rng := rand.New(rand.NewSource(seed))
	return map[string][]geom.Point{
		"uniform":   gen.UniformSquare(rng, 60, 2),
		"clustered": gen.Clustered(rng, 50, 4, 3, 0.25),
		"expchain":  gen.ExpChain(24, 1),
		"highway":   gen.HighwayUniform(rng, 40, 6),
		"gadget":    gen.DoubleExpChain(8),
		"pair":      {geom.Pt(0, 0), geom.Pt(0.5, 0)},
		"single":    {geom.Pt(1, 1)},
	}
}

func TestCheckAcrossInstanceFamilies(t *testing.T) {
	for name, pts := range instances(1) {
		for _, alg := range []struct {
			name  string
			build func([]geom.Point) *graph.Graph
		}{
			{"MST", topology.MST},
			{"NNF", topology.NNF},
			{"GreedyI", topology.GreedyMinI},
		} {
			if err := oracle.Check(pts, alg.build(pts)); err != nil {
				t.Errorf("%s/%s: %v", name, alg.name, err)
			}
		}
	}
}

func TestCheckRejectsMismatchedTopology(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if err := oracle.Check(pts, graph.New(3)); err == nil {
		t.Fatal("size mismatch not reported")
	}
}

func TestNaiveAgreesWithPrimitiveBrutes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := gen.UniformSquare(rng, 80, 2)
	grid := geom.NewGrid(pts, 0.3)
	for trial := 0; trial < 50; trial++ {
		c := geom.Pt(rng.Float64()*2, rng.Float64()*2)
		r := rng.Float64() * 1.5
		lo := r * rng.Float64()

		within := oracle.Within(pts, c, r)
		fast := grid.Within(c, r, nil)
		sort.Ints(fast)
		if !equal(within, fast) {
			t.Fatalf("Within(%v, %v): naive %v, grid %v", c, r, within, fast)
		}

		ann := oracle.WithinAnnulus(pts, c, lo, r)
		fastAnn := grid.WithinAnnulus(c, lo, r, nil)
		sort.Ints(fastAnn)
		if !equal(ann, fastAnn) {
			t.Fatalf("WithinAnnulus(%v, %v, %v): naive %v, grid %v", c, lo, r, ann, fastAnn)
		}
	}
}

func TestNaiveUDGAndComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		pts := gen.UniformSquare(rng, 40, 4) // side 4: usually disconnected
		naive := oracle.UDG(pts)
		fast := udg.Build(pts)
		if naive.M() != fast.M() {
			t.Fatalf("trial %d: UDG edge count naive %d, fast %d", trial, naive.M(), fast.M())
		}
		nl, nk := oracle.Components(pts)
		fl, fk := fast.Components()
		if nk != fk {
			t.Fatalf("trial %d: components naive %d, fast %d", trial, nk, fk)
		}
		for i := range nl {
			for j := range nl {
				if (nl[i] == nl[j]) != (fl[i] == fl[j]) {
					t.Fatalf("trial %d: partition disagreement at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestRepairEdgesJoinsShortestCrossing: on a line 0–1 … 2–3 whose two
// topology pieces the UDG joins by (1,2) and (1,3), the reference picks
// the shorter crossing edge and skips the now-redundant one; a topology
// already matching the UDG needs nothing.
func TestRepairEdgesJoinsShortestCrossing(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1.2, 0), geom.Pt(1.4, 0)}
	topo := graph.New(4)
	topo.AddEdge(0, 1, pts[0].Dist(pts[1]))
	topo.AddEdge(2, 3, pts[2].Dist(pts[3]))
	got := oracle.RepairEdges(pts, topo)
	if want := (graph.Edge{U: 1, V: 2, W: pts[1].Dist(pts[2])}); len(got) != 1 || got[0] != want {
		t.Fatalf("RepairEdges = %v, want [%v]", got, want)
	}
	if topo.M() != 2 {
		t.Fatal("RepairEdges modified the topology")
	}
	topo.AddEdge(1, 2, pts[1].Dist(pts[2]))
	if got := oracle.RepairEdges(pts, topo); len(got) != 0 {
		t.Errorf("connected topology: RepairEdges = %v, want none", got)
	}
}

func TestNaiveNNFMatchesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		pts := gen.UniformSquare(rng, 50, 2)
		naive := oracle.NNF(pts)
		fast := topology.NNF(pts)
		if naive.M() != fast.M() {
			t.Fatalf("trial %d: NNF edge count naive %d, fast %d", trial, naive.M(), fast.M())
		}
		for _, e := range naive.Edges() {
			if !fast.HasEdge(e.U, e.V) {
				t.Fatalf("trial %d: NNF edge {%d,%d} missing from fast construction", trial, e.U, e.V)
			}
		}
	}
}

func TestNaiveMSTWeightMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		pts := gen.UniformSquare(rng, 40, 3)
		want := oracle.MSTWeight(pts)
		got := graph.TotalWeight(graph.EuclideanMST(pts, udg.Radius))
		if diff := want - got; diff > 1e-9*want || diff < -1e-9*want {
			t.Fatalf("trial %d: MST weight naive %v, Kruskal %v", trial, want, got)
		}
	}
}

func TestBruteForceOptimalTinyChains(t *testing.T) {
	// Three collinear nodes, middle one nearer the left: the optimum makes
	// everyone reach their nearest viable partner; I = 2 is unavoidable
	// (both endpoints hear the middle and one endpoint) but I = n-1 = 2
	// equals the chain bound — mostly this pins the oracle's plumbing.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.3, 0), geom.Pt(0.9, 0)}
	best, radii := oracle.BruteForceOptimal(pts)
	if best < 1 || best > 2 {
		t.Fatalf("3-chain optimum %d out of range", best)
	}
	if !oracle.Feasible(pts, radii) {
		t.Fatal("claimed optimum is infeasible")
	}
	if got := oracle.Interference(pts, radii).Max(); got != best {
		t.Fatalf("claimed optimum %d but assignment evaluates to %d", best, got)
	}

	// Two isolated components: feasibility is per-component.
	pts = []geom.Point{geom.Pt(0, 0), geom.Pt(0.4, 0), geom.Pt(10, 0), geom.Pt(10.4, 0)}
	best, radii = oracle.BruteForceOptimal(pts)
	if !oracle.Feasible(pts, radii) {
		t.Fatal("disconnected-instance optimum infeasible")
	}
	if best != 1 {
		t.Fatalf("two far pairs: optimum %d, want 1", best)
	}

	// A singleton is feasible at zero radius and zero interference.
	best, radii = oracle.BruteForceOptimal([]geom.Point{geom.Pt(0, 0)})
	if best != 0 || len(radii) != 1 || radii[0] != 0 {
		t.Fatalf("singleton: got %d, %v", best, radii)
	}
}

func TestBruteForceOptimalNeverBeatenByConstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		pts := gen.UniformSquare(rng, 2+rng.Intn(5), 1.5)
		best, _ := oracle.BruteForceOptimal(pts)
		for _, build := range []func([]geom.Point) *graph.Graph{topology.MST, topology.GreedyMinI} {
			if got := oracle.InterferenceOf(pts, build(pts)); got < best {
				t.Fatalf("trial %d: construction reached %d below claimed optimum %d", trial, got, best)
			}
		}
	}
}

func TestDiffEvaluatorCatchesShadowDivergence(t *testing.T) {
	// Sanity that Verify actually fails on divergence: mutate the engine
	// behind the shadow's back and require an error.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0)}
	for _, d := range []*oracle.DiffEvaluator{
		oracle.NewDiffEvaluator(pts),
		oracle.NewDiffPhysEvaluator(pts, phys.Default()),
	} {
		d.SetRadius(0, 0.6)
		if err := d.Verify(); err != nil {
			t.Fatalf("clean state: %v", err)
		}
		d.Engine().SetRadius(1, 0.7) // bypasses the shadow
		if err := d.Verify(); err == nil {
			t.Fatal("divergence not detected")
		}
	}
}

func TestDiffRunsReportsDivergence(t *testing.T) {
	a := oracle.Run{Trace: "t=0 tx 0->1 frame=1 ok\n"}
	b := oracle.Run{Trace: "t=0 tx 0->1 frame=1 collision\n"}
	err := oracle.DiffRuns(a, b)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("trace divergence not reported: %v", err)
	}
	b = a
	b.Metrics.Delivered = 5
	err = oracle.DiffRuns(a, b)
	if err == nil || !strings.Contains(err.Error(), "Delivered") {
		t.Fatalf("metrics divergence not reported: %v", err)
	}
	if err := oracle.DiffRuns(a, a); err != nil {
		t.Fatalf("identical runs reported divergent: %v", err)
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
