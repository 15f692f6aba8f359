// Package exp implements the reproduction experiments: one runner per
// figure/theorem of the paper (see DESIGN.md's per-experiment index).
// Each runner returns a tablefmt.Table whose rows are the series the
// paper's artifact shows, so cmd/paperrepro, the CLIs, and the benchmark
// harness all print identical numbers.
//
// Experiment ids:
//
//	F1   Figure 1    — sender- vs receiver-centric robustness under one arrival
//	T41  Theorem 4.1 — NNF Ω(n) vs constant-interference tree on the gadget
//	F7   Figures 6–7 — linearly connected exponential chain: I = n−2
//	T51  Theorem 5.1 — A_exp achieves O(√n) on the exponential chain
//	T52  Theorem 5.2 — √n lower bound: exact OPT on small chains
//	T54  Theorem 5.4 — A_gen achieves O(√Δ) on random highway instances
//	T56  Theorem 5.6 — A_apx approximation ratio vs the Ω(√γ) bound
//	S4   Section 4   — the topology-control zoo under the new measure
//	X1   extension   — per-node robustness deltas across arrival sequences
//	X2   extension   — packet-level validation: I(G') vs collision rate
package exp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/highway"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tablefmt"
	"repro/internal/topology"
	"repro/internal/udg"
)

// Figure1 measures both interference measures on the Figure 1 gadget,
// before and after the remote node joins, across cluster sizes. The
// paper's claim: the sender-centric measure jumps from a small constant
// to ≈ n, the receiver-centric measure moves by O(1).
func Figure1(seed int64) *tablefmt.Table {
	t := tablefmt.New(
		"F1: one arrival, Figure-1 gadget (topology = MST; sender-centric jumps to ~n, receiver-centric moves by O(1))",
		"n", "recv_before", "recv_after", "max_node_delta", "send_before", "send_after")
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{16, 32, 64, 128, 256, 512} {
		pts := gen.Figure1(rng, n, 0.2)
		impact := core.MeasureAddition(pts, topology.MST)
		t.AddRowf(n, impact.ReceiverBefore, impact.ReceiverAfter, impact.MaxNodeDelta,
			impact.SenderBefore, impact.SenderAfter)
	}
	return t
}

// Theorem41 builds the double-exponential-chain gadget at growing sizes
// and compares the NNF's interference against the Figure-5-style optimal
// tree (and the exact optimum where n is small enough).
func Theorem41() *tablefmt.Table {
	t := tablefmt.New(
		"T4.1: NNF is Ω(n) on the Figure-3 gadget; the optimal tree stays O(1)",
		"n", "I_NNF", "I_opt_tree", "ratio")
	for _, k := range []int{4, 8, 16, 32, 64, 128} {
		pts := gen.DoubleExpChain(k)
		n := len(pts)
		nnfI := core.Interference(pts, topology.NNF(pts)).Max()
		optI := core.Interference(pts, OptTreeGadget(pts, k)).Max()
		t.AddRowf(n, nnfI, optI, float64(nnfI)/float64(optI))
	}
	return t
}

// OptTreeGadget builds the Figure 5 optimal topology for the
// DoubleExpChain gadget: each horizontal node h_i hangs off its partner
// v_i, the diagonal chain is glued v_{i-1} — t_i — v_i, and t_0 hangs off
// v_0. Interference is constant regardless of k.
func OptTreeGadget(pts []geom.Point, k int) *graph.Graph {
	g := graph.New(len(pts))
	h := func(i int) int { return 3 * i }
	v := func(i int) int { return 3*i + 1 }
	tt := func(i int) int { return 3*i + 2 }
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	for i := 0; i < k; i++ {
		g.AddEdge(h(i), v(i), d(h(i), v(i)))
	}
	g.AddEdge(tt(0), v(0), d(tt(0), v(0)))
	for i := 1; i < k; i++ {
		g.AddEdge(v(i-1), tt(i), d(v(i-1), tt(i)))
		g.AddEdge(tt(i), v(i), d(tt(i), v(i)))
	}
	return g
}

// Figure7 reports the interference of the linearly connected exponential
// chain: n−2, concentrated at the leftmost node.
func Figure7() *tablefmt.Table {
	t := tablefmt.New(
		"F6/F7: linearly connected exponential chain — I(G_lin) = n−2",
		"n", "I_lin", "I_at_leftmost", "n-2")
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 500} {
		pts, r := chainFor(n)
		g := highway.LinearRange(pts, r)
		iv := core.Interference(pts, g)
		t.AddRowf(n, iv.Max(), iv[0], n-2)
	}
	return t
}

// chainFor returns an exponential chain of n nodes and the communication
// range to use with it: unit-extent chains (complete UDG, r = 1) while
// float64 can resolve the gaps, unnormalized chains with r = ∞ beyond
// (the measure is scale-invariant; see gen.ExpChainUnit).
func chainFor(n int) ([]geom.Point, float64) {
	if n <= gen.MaxExpChainN {
		return gen.ExpChain(n, 1), udg.Radius
	}
	return gen.ExpChainUnit(n), math.Inf(1)
}

// Theorem51 runs A_exp over exponential chains, reporting achieved
// interference against the closed-form bound of the proof and the √n
// lower bound, and fits the scaling law I ≈ c·n^k (expect k ≈ 0.5).
func Theorem51() (*tablefmt.Table, string) {
	t := tablefmt.New(
		"T5.1/F8: A_exp on the exponential chain — I = O(√n), matching the Theorem 5.2 lower bound",
		"n", "I_aexp", "thm51_bound", "sqrt_n_lower", "I_lin")
	var xs, ys []float64
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 500} {
		pts, r := chainFor(n)
		aexpI := core.Interference(pts, highway.AExp(pts)).Max()
		linI := core.Interference(pts, highway.LinearRange(pts, r)).Max()
		t.AddRowf(n, aexpI, highway.AExpBound(n), highway.LowerBoundExpChain(n), linI)
		xs = append(xs, float64(n))
		ys = append(ys, float64(aexpI))
	}
	c, k := stats.PowerFit(xs, ys)
	return t, fmt.Sprintf("power fit: I_aexp ≈ %.2f · n^%.3f (theory: Θ(n^0.5))", c, k)
}

// Theorem52 computes the exact optimum on small chains and compares it
// against A_exp and the √n lower bound, establishing the asymptotic
// optimality claim at reproducible scale.
func Theorem52() *tablefmt.Table {
	t := tablefmt.New(
		"T5.2: exact minimum interference on small exponential chains",
		"n", "OPT", "sqrt_n_floor", "I_aexp", "aexp/OPT", "proved")
	for _, n := range []int{4, 6, 8, 10, 12, 14} {
		pts := gen.ExpChain(n, 1)
		res := opt.Exact(pts)
		aexpI := core.Interference(pts, highway.AExp(pts)).Max()
		t.AddRowf(n, res.Interference, highway.LowerBoundExpChain(n), aexpI,
			float64(aexpI)/float64(res.Interference), res.Exact)
	}
	return t
}

// Theorem54 measures A_gen's interference against √Δ across the random
// highway families.
func Theorem54(seed int64) *tablefmt.Table {
	t := tablefmt.New(
		"T5.4/F9: A_gen on random highway instances — I = O(√Δ)",
		"family", "n", "delta", "sqrt_delta", "I_agen", "I_agen/sqrt_delta", "I_lin")
	rng := rand.New(rand.NewSource(seed))
	type inst struct {
		name string
		pts  []geom.Point
	}
	var instances []inst
	for _, n := range []int{64, 256, 1024, 4096} {
		instances = append(instances,
			inst{"uniform", gen.HighwayUniform(rng, n, float64(n)/20)},
			inst{"dense", gen.HighwayUniform(rng, n, float64(n)/100)},
			inst{"bursty", gen.HighwayBursty(rng, n, 1+n/64, float64(n)/20, 0.3)},
		)
	}
	instances = append(instances,
		inst{"expfrag", gen.HighwayExpFragments(rng, 6, 10, 50)},
		inst{"expchain", gen.ExpChain(40, 1)},
	)
	for _, in := range instances {
		delta := udg.MaxDegree(in.pts, udg.Radius)
		agenI := core.Interference(in.pts, highway.AGen(in.pts)).Max()
		linI := core.Interference(in.pts, highway.Linear(in.pts)).Max()
		sq := math.Sqrt(float64(delta))
		t.AddRowf(in.name, len(in.pts), delta, sq, agenI, float64(agenI)/sq, linI)
	}
	return t
}

// Theorem56 measures A_apx's approximation quality: achieved interference
// against the Lemma 5.5 lower bound Ω(√γ) (all instances) and the exact
// optimum (small instances), with the branch it chose.
func Theorem56(seed int64) *tablefmt.Table {
	t := tablefmt.New(
		"T5.6: A_apx — achieved interference vs lower bound and Δ^¼ guarantee",
		"family", "n", "branch", "gamma", "lb=sqrt(gamma/2)", "I_apx", "I_apx/lb", "delta^1/4", "OPT(small n)")
	rng := rand.New(rand.NewSource(seed))
	type inst struct {
		name string
		pts  []geom.Point
	}
	instances := []inst{
		{"uniform-sm", gen.HighwayUniform(rng, 12, 3)},
		{"expchain-sm", gen.ExpChain(12, 1)},
		{"uniform", gen.HighwayUniform(rng, 400, 40)},
		{"even", evenChain(200, 0.4)},
		{"bursty", gen.HighwayBursty(rng, 400, 8, 40, 0.2)},
		{"expfrag", gen.HighwayExpFragments(rng, 5, 9, 40)},
		{"expchain", gen.ExpChain(40, 1)},
	}
	for _, in := range instances {
		g, branch := highway.AApxExplain(in.pts)
		apxI := core.Interference(in.pts, g).Max()
		gamma, _ := highway.Gamma(in.pts)
		lb := highway.GammaLowerBound(gamma)
		delta := udg.MaxDegree(in.pts, udg.Radius)
		ratio := math.NaN()
		if lb > 0 {
			ratio = float64(apxI) / float64(lb)
		}
		optCell := "-"
		if len(in.pts) <= opt.MaxExactN {
			res := opt.Exact(in.pts)
			optCell = fmt.Sprintf("%d", res.Interference)
		}
		t.AddRowf(in.name, len(in.pts), branch, gamma, lb, apxI, ratio,
			math.Pow(float64(delta), 0.25), optCell)
	}
	return t
}

// evenChain returns n nodes with identical gaps — the benign instance of
// Section 5.3 where A_gen alone would waste O(√Δ).
func evenChain(n int, gap float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*gap, 0)
	}
	return pts
}

// Section4 runs the full topology-control zoo over 2-D instance families
// and the Theorem 4.1 gadget, reporting the receiver-centric and
// sender-centric interference of each construction.
func Section4(seed int64) *tablefmt.Table {
	t := tablefmt.New(
		"S4: known topology-control algorithms under the receiver-centric measure",
		"instance", "algorithm", "recv_I", "send_I", "max_degree", "edges")
	rng := rand.New(rand.NewSource(seed))
	type inst struct {
		name string
		pts  []geom.Point
	}
	instances := []inst{
		{"uniform-2d", gen.UniformSquare(rng, 250, 4)},
		{"clustered-2d", gen.Clustered(rng, 250, 6, 4, 0.25)},
		{"gadget-T41", gen.DoubleExpChain(40)},
	}
	for _, in := range instances {
		for _, alg := range topology.All() {
			g := alg.Build(in.pts)
			recv := core.Interference(in.pts, g).Max()
			_, send := core.SenderInterference(in.pts, g)
			t.AddRowf(in.name, alg.Name, recv, send, g.MaxDegree(), g.M())
		}
	}
	return t
}

// RobustnessX1 runs arrival sequences over random instances, measuring
// the distribution of per-node interference increases for both measures
// under a fixed (pre-arrival) radius assignment — the paper's robustness
// property (≤ 1 receiver-centric) and its sender-centric counterexample.
func RobustnessX1(seed int64, trials int) *tablefmt.Table {
	t := tablefmt.New(
		"X1: per-arrival interference deltas (fixed existing radii)",
		"trial", "n", "max_recv_delta", "send_before", "send_after_worst")
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		n := 20 + rng.Intn(80)
		pts := gen.UniformSquare(rng, n, 2)
		radii := core.Radii(pts[:n-1], topology.MST(pts[:n-1]))
		// New node arrives with the radius its MST attachment would give.
		newR := nearestDist(pts, n-1)
		deltas := core.FixedTopologyDelta(pts, radii, newR)
		maxD := 0
		for _, d := range deltas {
			if d > maxD {
				maxD = d
			}
		}
		// Sender-centric: worst single link the arrival could force.
		before := topology.MST(pts[:n-1])
		_, sBefore := core.SenderInterference(pts[:n-1], before)
		after := topology.MST(pts)
		_, sAfter := core.SenderInterference(pts, after)
		t.AddRowf(trial, n, maxD, sBefore, sAfter)
	}
	return t
}

func nearestDist(pts []geom.Point, i int) float64 {
	_, d := geom.NewGrid(pts, core.GridCell(pts)).Nearest(i)
	if math.IsInf(d, 1) {
		return 0
	}
	return d
}

// SimX2 runs the packet simulator over several topologies on the same
// exponential-chain instance and workload, relating static interference
// to collision rate, delivery, retransmissions, latency, and energy.
func SimX2(n int, seed int64) *tablefmt.Table {
	t := tablefmt.New(
		fmt.Sprintf("X2: packet-level convergecast on a %d-node exponential chain (same workload, different topologies)", n),
		"topology", "I(G)", "delivery", "collision_rate", "retx", "mean_latency", "energy")
	pts := gen.ExpChain(n, 1)
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"linear", highway.Linear(pts)},
		{"aexp", highway.AExp(pts)},
		{"agen", highway.AGen(pts)},
		{"mst", topology.MST(pts)},
		{"nnf+bridges", connectedNNF(pts)},
	}
	for _, tp := range topos {
		nw := sim.NewNetwork(pts, tp.g)
		cfg := sim.DefaultConfig()
		cfg.Slots = 60000
		cfg.Seed = seed
		s := sim.New(nw, cfg)
		sim.Convergecast{N: n, Sink: 0, Period: 500, Slots: 30000, Stagger: true}.Install(s)
		m := s.Run()
		t.AddRowf(tp.name, core.Interference(pts, tp.g).Max(),
			m.DeliveryRatio(), m.CollisionRate(), m.Retransmits, m.MeanLatency(), m.Energy)
	}
	return t
}

// maxDeg returns Δ of the UDG over pts.
func maxDeg(pts []geom.Point) int { return udg.MaxDegree(pts, udg.Radius) }

// sqrtF returns √x as float64 for table cells.
func sqrtF(x int) float64 { return math.Sqrt(float64(x)) }

// connectedNNF augments the NNF with MST edges between its components so
// it can carry traffic (the raw NNF may be disconnected); the added
// bridges are exactly the MST edges joining distinct NNF trees.
func connectedNNF(pts []geom.Point) *graph.Graph {
	g := topology.NNF(pts)
	mst := topology.MST(pts)
	label, _ := g.Components()
	for _, e := range mst.SortedEdges() {
		if label[e.U] != label[e.V] {
			g.AddEdge(e.U, e.V, e.W)
			// Relabel the smaller side lazily: recompute labels.
			label, _ = g.Components()
		}
	}
	return g
}

// Figure8Detail reproduces Figure 8's node-level annotation: for an
// n-node exponential chain under A_exp it lists each node's hub status,
// degree, and individual interference I(v) — the values the paper prints
// next to every node — plus the same chain connected linearly (Figure 7's
// labels) for contrast.
func Figure8Detail(n int) *tablefmt.Table {
	pts := gen.ExpChain(n, 1)
	aexp := highway.AExp(pts)
	lin := highway.Linear(pts)
	ivA := core.Interference(pts, aexp)
	ivL := core.Interference(pts, lin)
	hubs := map[int]bool{}
	for _, h := range highway.Hubs(aexp) {
		hubs[h] = true
	}
	t := tablefmt.New(
		fmt.Sprintf("F8 detail: per-node interference on the %d-node exponential chain", n),
		"node", "hub", "deg_aexp", "I_aexp(v)", "I_linear(v)")
	for v := 0; v < n; v++ {
		t.AddRowf(v, hubs[v], aexp.Degree(v), ivA[v], ivL[v])
	}
	return t
}
