package exp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/highway"
	"repro/internal/mobility"
	"repro/internal/tablefmt"
	"repro/internal/topology"
	"repro/internal/udg"
)

// DistProtocol pairs a distributed protocol with the centralized
// construction its output must equal edge for edge.
type DistProtocol struct {
	Name        string
	Factory     func() dist.Node
	Centralized func([]geom.Point) *graph.Graph
}

// DistProtocols returns the distributed protocols that apply to pts: the
// five 2-D constructions, plus A_gen when pts is a non-empty highway
// instance. A_gen's hub spacing ⌈√Δ⌉ and segment anchor (the leftmost
// node) are derived from pts, as the aggregation flood of a deployment
// would.
func DistProtocols(pts []geom.Point) []DistProtocol {
	protos := []DistProtocol{
		{"XTC", dist.NewXTCNode, topology.XTC},
		{"NNF", dist.NewNNFNode, topology.NNF},
		{"LMST", dist.NewLMSTNode, topology.LMST},
		{"GG", dist.NewGGNode, topology.GG},
		{"RNG", dist.NewRNGNode, topology.RNG},
	}
	if highway.Validate(pts) != nil || len(pts) == 0 {
		return protos
	}
	sp := int(math.Ceil(math.Sqrt(float64(udg.MaxDegree(pts, udg.Radius)))))
	if sp < 1 {
		sp = 1
	}
	return append(protos, DistProtocol{
		"AGen",
		dist.NewAGenNode(sp, pts[0].X),
		func(p []geom.Point) *graph.Graph { return highway.AGenSpacing(p, sp) },
	})
}

// RunDist runs p on pts over the synchronous runtime (at most 16 rounds)
// and reports the runtime's cost counters, the topology it built, and
// whether that topology equals p's centralized construction.
func RunDist(pts []geom.Point, p DistProtocol) (rt *dist.Runtime, got *graph.Graph, matches bool) {
	rt = dist.NewRuntime(pts, p.Factory)
	got = rt.Run(16)
	want := p.Centralized(pts)
	if got.M() != want.M() {
		return rt, got, false
	}
	for _, e := range want.Edges() {
		if !got.HasEdge(e.U, e.V) {
			return rt, got, false
		}
	}
	return rt, got, true
}

// DistCostX11 tabulates the distributed protocols' costs (rounds,
// messages per node) and confirms each output matches its centralized
// counterpart — the evidence that the paper's constructions are
// implementable in the LOCAL model the ad-hoc setting demands.
func DistCostX11(seed int64, n int) *tablefmt.Table {
	rng := rand.New(rand.NewSource(seed))
	pts := gen.UniformSquare(rng, n, 3)
	t := tablefmt.New(
		fmt.Sprintf("X11: distributed protocol costs (uniform 2-D, n=%d)", n),
		"protocol", "rounds", "msgs_per_node", "edges", "recv_I", "matches_centralized")
	for _, p := range DistProtocols(pts) {
		rt, got, match := RunDist(pts, p)
		t.AddRowf(p.Name, rt.Rounds, float64(rt.Messages)/float64(n), got.M(),
			core.Interference(pts, got).Max(), match)
	}
	return t
}

// StabilityX12 measures topology stability under motion: nodes follow
// random waypoints, the topology is rebuilt each sample, and the table
// reports the mean fraction of edges replaced between consecutive
// samples per construction. Low-interference trees are the most
// volatile (one nearest-neighbor change rewires a path); denser spanners
// absorb motion — stability is yet another axis of the X5 trade-off.
func StabilityX12(seed int64, n, steps int) *tablefmt.Table {
	t := tablefmt.New(
		fmt.Sprintf("X12: topology churn under random-waypoint motion (n=%d, %d samples)", n, steps),
		"algorithm", "mean_edge_churn", "mean_I")
	algs := []topology.Algorithm{}
	for _, a := range topology.All() {
		switch a.Name {
		case "NNF", "MST", "GG", "RNG", "LMST", "GreedyI":
			algs = append(algs, a)
		}
	}
	for _, alg := range algs {
		rng := rand.New(rand.NewSource(seed)) // identical trajectories per algorithm
		m := mobility.NewWaypoint(rng, n, 3, 3, 0.02, 0.1, 0.5)
		var prev *graph.Graph
		churnSum, iSum := 0.0, 0.0
		for step := 0; step < steps; step++ {
			m.Step(1)
			pts := m.Positions()
			g := alg.Build(pts)
			iSum += float64(core.Interference(pts, g).Max())
			if prev != nil {
				churnSum += edgeChurn(prev, g)
			}
			prev = g
		}
		t.AddRowf(alg.Name, churnSum/float64(steps-1), iSum/float64(steps))
	}
	return t
}

// edgeChurn returns the fraction of edges of either graph not present in
// the other (Jaccard distance of the edge sets).
func edgeChurn(a, b *graph.Graph) float64 {
	if a.M() == 0 && b.M() == 0 {
		return 0
	}
	shared := 0
	for _, e := range a.Edges() {
		if b.HasEdge(e.U, e.V) {
			shared++
		}
	}
	union := a.M() + b.M() - shared
	return 1 - float64(shared)/float64(union)
}

// newTestGraph is a tiny helper shared with the tests.
func newTestGraph(n int, edges [][2]int) *graph.Graph {
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1], 1)
	}
	return g
}
