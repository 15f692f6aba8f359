// Package rim (Robust Interference Model) is the public API of this
// reproduction of "A Robust Interference Model for Wireless Ad-Hoc
// Networks" (von Rickenbach, Schmid, Wattenhofer, Zollinger; IPPS 2005).
//
// It re-exports the pieces a downstream user needs:
//
//   - the receiver-centric interference measure of Definitions 3.1/3.2
//     (Interference, Radii) and the sender-centric baseline of [2]
//     (SenderInterference),
//   - the topology-control algorithm zoo of Section 4 (Algorithms, NNF,
//     MST, GG, RNG, XTC, LMST, Yao, LIFE, LISE),
//   - the highway-model algorithms of Section 5 (Linear, AExp, AGen,
//     AApx) with their bounds (AExpBound, ExpChainLowerBound, Gamma),
//   - instance generators (ExpChain, DoubleExpChain, Figure1 gadget,
//     random highway and 2-D families),
//   - the exact and annealing minimum-interference solvers, and
//   - the packet-level simulator whose collision model is the paper's
//     disk system.
//
// Quick start:
//
//	pts := rim.ExpChain(32, 1)
//	topo := rim.AExp(pts)
//	iv := rim.Interference(pts, topo)
//	fmt.Println("I(G) =", iv.Max())
//
// See the examples/ directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the experiment catalogue.
package rim

import (
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/encode"
	"repro/internal/gather"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/highway"
	"repro/internal/opt"
	"repro/internal/planar"
	"repro/internal/report"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/udg"
	"repro/internal/viz"
)

// Core geometric and graph types.
type (
	// Point is a node location; highway instances keep Y = 0.
	Point = geom.Point
	// Graph is an undirected topology over node indices.
	Graph = graph.Graph
	// Edge is an undirected link with its Euclidean length.
	Edge = graph.Edge
	// Vector holds per-node interference values I(v).
	Vector = core.Vector
	// Algorithm is a named topology-control construction.
	Algorithm = topology.Algorithm
	// OptResult is a minimum-interference search outcome.
	OptResult = opt.Result
	// Network is a simulator radio layout.
	Network = sim.Network
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimMetrics aggregates a run's outcome.
	SimMetrics = sim.Metrics
	// AdditionImpact reports interference changes under one node arrival.
	AdditionImpact = core.AdditionImpact
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewGraph returns an empty topology over n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// UnitDiskGraph builds the UDG over pts (unit transmission range).
func UnitDiskGraph(pts []Point) *Graph { return udg.Build(pts) }

// MaxDegree returns Δ, the maximum UDG degree of the instance.
func MaxDegree(pts []Point) int { return udg.MaxDegree(pts, udg.Radius) }

// Interference evaluates the receiver-centric measure (Def. 3.1) for
// every node of topology g over pts; use Vector.Max for I(G') (Def. 3.2).
func Interference(pts []Point, g *Graph) Vector { return core.Interference(pts, g) }

// Radii returns each node's transmission radius under topology g: the
// distance to its farthest neighbor.
func Radii(pts []Point, g *Graph) []float64 { return core.Radii(pts, g) }

// SenderInterference evaluates the sender-centric coverage measure of
// Burkhart et al. [2]: per-edge coverage values and their maximum.
func SenderInterference(pts []Point, g *Graph) ([]int, int) {
	return core.SenderInterference(pts, g)
}

// MeasureAddition quantifies how both measures react when the last point
// of pts joins a network built by the given topology constructor.
func MeasureAddition(pts []Point, build func([]Point) *Graph) AdditionImpact {
	return core.MeasureAddition(pts, build)
}

// Topology-control zoo (Section 4).
var (
	// NNF is the Nearest Neighbor Forest.
	NNF = topology.NNF
	// MST is the range-limited Euclidean minimum spanning forest.
	MST = topology.MST
	// GG is the Gabriel Graph ∩ UDG.
	GG = topology.GG
	// RNG is the Relative Neighborhood Graph ∩ UDG.
	RNG = topology.RNG
	// XTC is the XTC topology of Wattenhofer & Zollinger.
	XTC = topology.XTC
	// LMST is the Local MST of Li, Hou & Sha.
	LMST = topology.LMST
	// LIFE is the Low Interference Forest Establisher of Burkhart et al.
	LIFE = topology.LIFE
)

// Yao builds the symmetric Yao graph with k cones.
func Yao(pts []Point, k int) *Graph { return topology.Yao(pts, k) }

// LISE builds the Low Interference Spanner Establisher with stretch t.
func LISE(pts []Point, t float64) *Graph { return topology.LISE(pts, t) }

// LLISE builds the locally computable variant of LISE: per UDG edge, the
// minimum-bottleneck-coverage path within stretch t.
func LLISE(pts []Point, t float64) *Graph { return topology.LLISE(pts, t) }

// AGen2D is this reproduction's take on the paper's open problem: the
// A_gen hub construction generalized to the plane (see internal/planar).
func AGen2D(pts []Point) *Graph { return planar.AGen2D(pts) }

// Best2D is the 2-D portfolio hybrid: the best of MST, LIFE, and AGen2D
// under the receiver-centric measure, with the winner's name.
func Best2D(pts []Point) (*Graph, string) { return planar.Best2D(pts) }

// Algorithms returns the named zoo in presentation order.
func Algorithms() []Algorithm { return topology.All() }

// Highway model (Section 5).
var (
	// Linear connects consecutive highway nodes (Figures 6–7).
	Linear = highway.Linear
	// AExp is the scan-line algorithm for exponential chains (Thm 5.1).
	AExp = highway.AExp
	// AGen is the O(√Δ) segment/hub algorithm (Thm 5.4).
	AGen = highway.AGen
	// AApx is the O(Δ^¼)-approximation hybrid (Thm 5.6).
	AApx = highway.AApx
	// AExpBound is the closed-form Theorem 5.1 interference bound.
	AExpBound = highway.AExpBound
	// ExpChainLowerBound is the Theorem 5.2 √n lower bound.
	ExpChainLowerBound = highway.LowerBoundExpChain
)

// Gamma returns γ, the maximum critical-set size of a highway instance
// (Definition 5.2 / Lemma 5.5), and the node attaining it.
func Gamma(pts []Point) (gamma, atNode int) { return highway.Gamma(pts) }

// Instance generators.
var (
	// ExpChain is the exponential node chain fitted to a given extent.
	ExpChain = gen.ExpChain
	// ExpChainUnit is the unnormalized exponential chain for large n.
	ExpChainUnit = gen.ExpChainUnit
	// DoubleExpChain is the Theorem 4.1 / Figures 3–5 gadget.
	DoubleExpChain = gen.DoubleExpChain
)

// Figure1Gadget returns the paper's Figure 1 instance: a homogeneous
// cluster of n−1 nodes plus one remote node.
func Figure1Gadget(rng *rand.Rand, n int, spread float64) []Point {
	return gen.Figure1(rng, n, spread)
}

// HighwayUniform returns n nodes uniform on a highway of the given
// length, sorted.
func HighwayUniform(rng *rand.Rand, n int, length float64) []Point {
	return gen.HighwayUniform(rng, n, length)
}

// UniformSquare returns n nodes uniform on a side×side square.
func UniformSquare(rng *rand.Rand, n int, side float64) []Point {
	return gen.UniformSquare(rng, n, side)
}

// OptimalExact computes the provably minimum interference over
// connectivity-preserving topologies and a radius assignment attaining
// it (n ≤ opt.MaxExactN); RealizeForest turns the radii into a topology.
func OptimalExact(pts []Point) OptResult { return opt.Exact(pts) }

// OptimalAnneal upper-bounds the optimum by simulated annealing.
func OptimalAnneal(pts []Point, rng *rand.Rand, iters int) OptResult {
	return opt.Anneal(pts, rng, iters)
}

// RealizeForest returns a topology realizing a radius assignment such as
// OptResult.Radii: a shortest-edge spanning forest of the mutual-
// reachability graph, with interference at most the assignment's.
func RealizeForest(pts []Point, radii []float64) *Graph { return opt.RealizeForest(pts, radii) }

// NewNetwork precomputes the simulator's radio layout for a topology.
func NewNetwork(pts []Point, topo *Graph) *Network { return sim.NewNetwork(pts, topo) }

// NewSimulator builds a packet simulator over the network.
func NewSimulator(nw *Network, cfg SimConfig) *sim.Simulator { return sim.New(nw, cfg) }

// DefaultSimConfig returns sane MAC parameters.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// GreedyMinI grows a spanning forest minimizing the receiver-centric
// interference greedily (data-gathering style, after [4]).
func GreedyMinI(pts []Point) *Graph { return topology.GreedyMinI(pts) }

// GreedySumI is the average-interference sibling of GreedyMinI: it
// minimizes Σ I(v) instead of max I(v).
func GreedySumI(pts []Point) *Graph { return topology.GreedySumI(pts) }

// Profile summarizes a topology's quality: both interference measures,
// degree, spanner stretch, and energy proxies.
type Profile = report.Profile

// ProfileOf computes the quality profile of topology g over pts.
func ProfileOf(pts []Point, g *Graph) Profile { return report.Build(pts, g) }

// LinkSchedule is a collision-free TDMA link schedule derived from the
// interference disks.
type LinkSchedule = schedule.Schedule

// TDMASchedule builds the greedy conflict-free link schedule of the
// network; its Frame length is governed by I(G').
func TDMASchedule(nw *Network) LinkSchedule { return schedule.GreedyLinkSchedule(nw) }

// RunTDMA returns a simulator driven by the network's TDMA schedule and
// the schedule's frame length.
func RunTDMA(nw *Network, cfg SimConfig) (*sim.Simulator, int) {
	return schedule.RunTDMA(nw, cfg)
}

// WriteInstanceCSV / ReadInstanceCSV serialize point sets with exact
// float64 round-trips.
var (
	WriteInstanceCSV = encode.WriteInstance
	ReadInstanceCSV  = encode.ReadInstance
	WriteTopologyCSV = encode.WriteTopology
	ReadTopologyCSV  = encode.ReadTopology
)

// WriteSVG renders an instance and topology (with optional interference
// disks) as a standalone SVG.
func WriteSVG(w io.Writer, pts []Point, g *Graph, disks, labels bool) error {
	return viz.WriteSVG(w, pts, g, viz.Options{Disks: disks, Labels: labels})
}

// DistRuntime executes distributed protocols over a UDG in synchronous
// rounds.
type DistRuntime = dist.Runtime

// NewDistRuntime builds a runtime; the factory creates one protocol node
// per network node. Factories: DistXTC, DistNNF, DistLMST.
func NewDistRuntime(pts []Point, factory func() dist.Node) *DistRuntime {
	return dist.NewRuntime(pts, factory)
}

// Distributed protocol factories for NewDistRuntime.
var (
	DistXTC  = dist.NewXTCNode
	DistNNF  = dist.NewNNFNode
	DistLMST = dist.NewLMSTNode
	DistGG   = dist.NewGGNode
	DistRNG  = dist.NewRNGNode
)

// Maintainer keeps a low-interference topology under node arrivals and
// departures without rebuilding per event (see internal/dynamic).
type Maintainer = dynamic.Maintainer

// NewMaintainer starts online maintenance over the instance; rebuilds
// fire when drift exceeds rebuildFactor × the post-rebuild baseline
// (0 means the default 2).
func NewMaintainer(pts []Point, rebuildFactor float64) *Maintainer {
	return dynamic.New(pts, rebuildFactor)
}

// CBTC is the cone-based topology control of [18] with cone angle alpha.
func CBTC(pts []Point, alpha float64) *Graph { return topology.CBTC(pts, alpha) }

// KNeigh keeps the mutual k-nearest-neighbor links.
func KNeigh(pts []Point, k int) *Graph { return topology.KNeigh(pts, k) }

// RCLISE builds a t-spanner greedily minimizing the receiver-centric
// interference (the LISE idea, re-targeted at the paper's measure).
func RCLISE(pts []Point, t float64) *Graph { return topology.RCLISE(pts, t) }

// GatherTree is a directed data-gathering tree ([4]'s setting): every
// node transmits only to its parent toward the sink.
type GatherTree = gather.Tree

// Gathering-tree constructors: shortest-path, MST, and the greedy
// minimum-interference tree.
var (
	GatherSPT    = gather.ShortestPathTree
	GatherMST    = gather.MSTTree
	GatherGreedy = gather.GreedyMinITree
)

// AExpRange is AExp with a finite communication range (safe on highway
// instances wider than one range; +Inf reproduces the paper's setting).
func AExpRange(pts []Point, r float64) *Graph { return highway.AExpRange(pts, r) }
