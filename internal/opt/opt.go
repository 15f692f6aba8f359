// Package opt computes minimum-interference connectivity-preserving
// topologies — the optimum the paper's theorems compare against.
//
// # Radius-assignment search
//
// The receiver-centric interference of a topology depends only on its
// radius vector (r_u): I(v) = |{u ≠ v : |u,v| ≤ r_u}|. Conversely, given
// any radius assignment r, the mutual-reachability graph
//
//	Ĝ(r) = { {u,v} : |u,v| ≤ min(r_u, r_v) and |u,v| ≤ 1 }
//
// contains every topology realizing r, and any spanning forest of Ĝ(r)
// realizes radii pointwise ≤ r, hence interference ≤ I(r). The minimum
// interference over connectivity-preserving topologies therefore equals
// the minimum of I(r) over radius assignments r (each r_u a distance from
// u to some other node) whose Ĝ(r) preserves the UDG's components.
// Searching radius vectors (≤ n candidate values per node) is
// exponentially smaller than searching spanning trees (n^{n−2} of them)
// and admits strong pruning:
//
//   - interference is monotone in every radius, so candidates are tried
//     in ascending order and a pruned radius prunes all larger ones;
//   - every node of a non-singleton UDG component needs some neighbor, so
//     r_u is at least the distance to u's nearest UDG neighbor; and
//   - a node whose assigned radius cannot reach any mutually reachable
//     partner (assigned or future) is a dead end.
//
// Exact is a depth-first branch-and-bound over this space, practical to
// n ≈ 14 — enough to verify Theorem 5.2 and the A_apx approximation
// ratios at small scale. Anneal is a simulated-annealing heuristic over
// the same space for larger instances; it yields upper bounds on the
// optimum and is labeled as such in experiments. Both return a radius
// assignment, not a topology: RealizeForest builds one on request.
package opt

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/udg"
)

// Result is a minimum-interference topology search outcome.
type Result struct {
	// Interference is I(G') of the best topology found.
	Interference int
	// Radii is the radius assignment attaining it. RealizeForest(pts,
	// Radii) turns it into a topology: a spanning forest of Ĝ(Radii), one
	// tree per UDG component, with interference at most Interference.
	Radii []float64
	// Exact records whether the search proved optimality (false when the
	// node budget ran out or the annealer produced the result).
	Exact bool
	// Visited counts search-tree nodes (reporting/ablation only).
	Visited int64
}

// MaxExactN bounds the instance size Exact accepts; beyond it the search
// space stops being practical even with pruning.
const MaxExactN = 16

// defaultBudget caps the number of search-tree nodes Exact explores
// before giving up on the optimality proof.
const defaultBudget = 200_000_000

// Exact computes the minimum-interference connectivity-preserving
// topology by branch-and-bound over radius assignments. It panics when
// len(pts) > MaxExactN. If the internal node budget is exhausted the best
// topology found so far is returned with Exact == false.
func Exact(pts []geom.Point) Result {
	return ExactBudget(pts, defaultBudget)
}

// ExactBudget is Exact with an explicit search budget (search-tree nodes
// explored before giving up on the optimality proof). Small budgets turn
// the solver into an anytime heuristic that still returns the best
// topology found, flagged Exact == false.
func ExactBudget(pts []geom.Point, budget int64) Result {
	return ExactBudgetWith(core.GraphMeasure, pts, budget)
}

// ExactWith is Exact under an arbitrary interference measure; the
// feasibility constraint (preserving UDG components) is measure-
// independent, so only the objective changes.
func ExactWith(factory core.MeasureFactory, pts []geom.Point) Result {
	return ExactBudgetWith(factory, pts, defaultBudget)
}

// ExactBudgetWith is ExactBudget generalized over the measure engine.
// The branch-and-bound relies only on the core.Measure contract:
// monotonicity of Max in every radius (true for disk counts and for
// power sums alike) and exact Snapshot/Restore.
func ExactBudgetWith(factory core.MeasureFactory, pts []geom.Point, budget int64) Result {
	n := len(pts)
	if n > MaxExactN {
		panic("opt: instance too large for exact search; use Anneal")
	}
	if n == 0 {
		return Result{Exact: true}
	}
	sp := obs.Start("opt.exact")
	defer sp.End()
	base := udg.Build(pts)
	_, wantK := base.Components()

	ev := factory(pts)
	s := &exactSearch{
		pts:    pts,
		cand:   candidates(pts, ev.Grid()),
		udgAdj: base,
		fc:     newFeasChecker(pts, ev.Grid(), wantK),
		radii:  make([]float64, n),
		budget: budget,
		ev:     ev,
	}

	// Seed the upper bound with the best feasible topology at hand: the
	// range-limited Euclidean MST, improved by a short annealing run. The
	// tighter the seed, the harder the bound prunes. The seed value is
	// measured through the same engine (then reset to all-zero for the
	// search invariant), so it is exact under any measure.
	seed := sp.Child("opt.exact.seed")
	seedRadii := core.EdgeRadii(n, graph.EuclideanMSTEdges(pts, udg.Radius))
	ev.BatchSet(seedRadii, 0)
	seedI := ev.Max()
	ev.BatchSet(make([]float64, n), 0)
	if ann := AnnealWith(factory, pts, rand.New(rand.NewSource(1)), 400*n); ann.Interference < seedI {
		seedI = ann.Interference
		seedRadii = ann.Radii
	}
	s.best = seedI
	s.bestRadii = append([]float64(nil), seedRadii...)
	seed.End()

	search := sp.Child("opt.exact.search")
	s.search(0)
	search.End()
	if obs.On() {
		obsExactVisited.Add(s.visited)
	}

	return Result{
		Interference: s.best,
		Radii:        s.bestRadii,
		Exact:        s.budget > 0,
		Visited:      s.visited,
	}
}

// candidates returns, for each node, the ascending list of admissible
// radii (nodeCandidates for every node); Exact's branch-and-bound needs
// them all up front.
func candidates(pts []geom.Point, grid *geom.Grid) [][]float64 {
	cand := make([][]float64, len(pts))
	var buf []int
	for u := range pts {
		cand[u], buf = nodeCandidates(pts, grid, u, buf)
	}
	return cand
}

// nodeCandidates returns u's ascending list of admissible radii:
// distances to other nodes within unit range, starting at the
// nearest-UDG-neighbor distance (nodes of non-singleton components need
// at least one link), or {0} for an isolated node. u's unit disk is
// enumerated through the grid, O(|D(u, 1) ∩ V|); oracle.Candidates is
// the all-pairs reference. buf is scratch space, returned for reuse.
func nodeCandidates(pts []geom.Point, grid *geom.Grid, u int, buf []int) ([]float64, []int) {
	var set []float64
	buf = grid.Within(pts[u], udg.Radius, buf[:0])
	for _, v := range buf {
		if v != u {
			set = append(set, pts[u].Dist(pts[v]))
		}
	}
	if len(set) == 0 {
		return []float64{0}, buf
	}
	return dedupeSorted(set), buf
}

// dedupeSorted sorts set ascending and removes duplicates in place.
func dedupeSorted(set []float64) []float64 {
	sort.Float64s(set)
	out := set[:1]
	for _, d := range set[1:] {
		if d != out[len(out)-1] {
			out = append(out, d)
		}
	}
	return out
}

// feasChecker tests whether a radius assignment's mutual-reachability
// graph Ĝ(r) preserves the UDG component structure, without building the
// graph: mutual edges are enumerated through the shared grid and merged
// in a reusable union-find. Because Ĝ(r) is always a subgraph of the
// UDG, its component count equals the UDG's iff the partitions are
// identical, so only the count is compared. Cost is O(n + Σ_u |D(u,
// min(r_u, 1)) ∩ V|) per call — output-sensitive, against the Θ(n²) of
// materializing MutualGraph.
//
// shrinkOK decides the annealer's radius decreases locally and falls
// back to feasible only when its search budget runs out.
type feasChecker struct {
	pts    []geom.Point
	grid   *geom.Grid
	wantK  int
	parent []int32
	buf    []int

	// shrinkOK's scratch: the endpoints of the lost edges, and the
	// bidirectional search's per-node visit stamps, sides and queues.
	lost  []int
	epoch uint32
	stamp []uint32
	side  []uint8
	queue [2][]int32
}

func newFeasChecker(pts []geom.Point, grid *geom.Grid, wantK int) *feasChecker {
	return &feasChecker{
		pts:    pts,
		grid:   grid,
		wantK:  wantK,
		parent: make([]int32, len(pts)),
		stamp:  make([]uint32, len(pts)),
		side:   make([]uint8, len(pts)),
	}
}

func (fc *feasChecker) find(u int32) int32 {
	for fc.parent[u] != u {
		fc.parent[u] = fc.parent[fc.parent[u]] // path halving
		u = fc.parent[u]
	}
	return u
}

// feasible reports whether Ĝ(radii) preserves the UDG components.
func (fc *feasChecker) feasible(radii []float64) bool {
	n := len(fc.pts)
	for i := range fc.parent {
		fc.parent[i] = int32(i)
	}
	comps := n
	for u := 0; u < n; u++ {
		ru := radii[u]
		if ru <= 0 {
			continue
		}
		// InDisk is monotone in the radius, so the disk of radius
		// min(r_u, 1) holds exactly the nodes within both r_u and unit
		// range: every checked edge is a udg.Build edge, and the
		// comps ≥ wantK invariant (and its early exit) holds.
		fc.buf = fc.grid.Within(fc.pts[u], math.Min(ru, udg.Radius), fc.buf[:0])
		for _, v := range fc.buf {
			if v <= u {
				continue // each unordered pair once, from its smaller side
			}
			if !geom.InDisk(fc.pts[v], radii[v], fc.pts[u]) {
				continue
			}
			a, b := fc.find(int32(u)), fc.find(int32(v))
			if a != b {
				fc.parent[a] = b
				comps--
				if comps == fc.wantK {
					// Mutual edges never join distinct UDG components, so
					// comps ≥ wantK is invariant: hitting it is success.
					return true
				}
			}
		}
	}
	return comps == fc.wantK
}

// mutual reports whether {u, v} is an edge of Ĝ as feasible counts it
// when u has radius ru and v radius rv: the smaller index must transmit
// (feasible skips silent nodes) and reach the other within unit range,
// and the larger must reach back.
func (fc *feasChecker) mutual(u, v int, ru, rv float64) bool {
	if u > v {
		u, v, ru, rv = v, u, rv, ru
	}
	return ru > 0 && geom.InDisk(fc.pts[u], math.Min(ru, udg.Radius), fc.pts[v]) &&
		geom.InDisk(fc.pts[v], rv, fc.pts[u])
}

// shrinkBudget caps the node expansions one shrinkOK call may spend on
// its searches before it gives up and leaves the answer to feasible.
const shrinkBudget = 512

// shrinkOK decides whether lowering radii[u] to r keeps Ĝ(radii)
// feasible, given that it is feasible now. Shrinking r_u only removes
// edges at u, so the partition survives iff each lost edge's endpoints
// stay connected in the shrunk Ĝ. Each lost edge (u, v) gets a
// bidirectional search from u and v through the grid: the sides meeting
// proves the pair connected; one side running out of nodes proves the
// split. Either way the answer is certain and equals feasible's. When
// the searches together expand more than shrinkBudget nodes, shrinkOK
// returns certain == false and the caller must ask feasible. radii is
// restored before it returns.
func (fc *feasChecker) shrinkOK(radii []float64, u int, r float64) (ok, certain bool) {
	old := radii[u]
	fc.lost = fc.lost[:0]
	fc.buf = fc.grid.Within(fc.pts[u], math.Min(old, udg.Radius), fc.buf[:0])
	for _, v := range fc.buf {
		if v != u && fc.mutual(u, v, old, radii[v]) && !fc.mutual(u, v, r, radii[v]) {
			fc.lost = append(fc.lost, v)
		}
	}
	radii[u] = r
	budget := shrinkBudget
	ok, certain = true, true
	for _, v := range fc.lost {
		if ok, certain = fc.linked(radii, u, v, &budget); !ok || !certain {
			break
		}
	}
	radii[u] = old
	return ok, certain
}

// linked runs a bidirectional breadth-first search in Ĝ(radii) between
// s and t, always expanding from the side with the shorter queue, and
// charges each expansion to budget. It reports (true, true) when the
// sides meet, (false, true) when one side's component is exhausted
// without meeting, and (false, false) when the budget runs out first.
func (fc *feasChecker) linked(radii []float64, s, t int, budget *int) (ok, certain bool) {
	fc.epoch++
	if fc.epoch == 0 { // wrapped: old stamps could alias the new epoch
		clear(fc.stamp)
		fc.epoch = 1
	}
	ep := fc.epoch
	fc.stamp[s], fc.side[s] = ep, 0
	fc.stamp[t], fc.side[t] = ep, 1
	fc.queue[0] = append(fc.queue[0][:0], int32(s))
	fc.queue[1] = append(fc.queue[1][:0], int32(t))
	var head [2]int
	for {
		sd := uint8(0)
		if len(fc.queue[1])-head[1] < len(fc.queue[0])-head[0] {
			sd = 1
		}
		if head[sd] == len(fc.queue[sd]) {
			return false, true // this side's whole component, without the other
		}
		if *budget == 0 {
			return false, false
		}
		*budget--
		x := int(fc.queue[sd][head[sd]])
		head[sd]++
		rx := radii[x]
		fc.buf = fc.grid.Within(fc.pts[x], math.Min(rx, udg.Radius), fc.buf[:0])
		for _, y := range fc.buf {
			if y == x || !fc.mutual(x, y, rx, radii[y]) {
				continue
			}
			if fc.stamp[y] == ep {
				if fc.side[y] != sd {
					return true, true
				}
				continue
			}
			fc.stamp[y], fc.side[y] = ep, sd
			fc.queue[sd] = append(fc.queue[sd], int32(y))
		}
	}
}

type exactSearch struct {
	pts       []geom.Point
	cand      [][]float64
	udgAdj    *graph.Graph
	fc        *feasChecker
	radii     []float64
	ev        core.Measure
	best      int // best feasible interference found (inclusive bound)
	bestRadii []float64
	visited   int64
	budget    int64
}

// search assigns a radius to node u and recurses. Invariant: ev holds
// the radii of nodes < u (nodes ≥ u at 0, contributing nothing to
// interference yet, which underestimates — safe for pruning). Each
// speculative assignment is pushed with Snapshot and popped with
// Restore, so backtracking costs exactly the annuli it touched.
func (s *exactSearch) search(u int) {
	if s.budget <= 0 {
		return
	}
	n := len(s.pts)
	if u == n {
		if s.ev.Max() < s.best && s.feasible() {
			s.best = s.ev.Max()
			s.bestRadii = append(s.bestRadii[:0], s.radii...)
		}
		return
	}
	for _, r := range s.cand[u] {
		if s.budget <= 0 {
			return
		}
		s.visited++
		s.budget--
		s.ev.Snapshot()
		s.ev.SetRadius(u, r)
		s.radii[u] = r
		pruned := s.ev.Max() >= s.best
		if !pruned && !s.deadEnd(u, r) {
			s.search(u + 1)
		}
		s.ev.Restore()
		s.radii[u] = 0
		if pruned {
			// Candidates ascend and interference is monotone in the
			// radius: every larger candidate is pruned too.
			break
		}
	}
}

// deadEnd reports whether assigning radius r to node u makes connecting u
// impossible: u (in a non-singleton component) has no assigned partner it
// mutually reaches and no unassigned UDG neighbor within r.
func (s *exactSearch) deadEnd(u int, r float64) bool {
	if s.udgAdj.Degree(u) == 0 {
		return false
	}
	for _, v := range s.udgAdj.Neighbors(u) {
		if !geom.InDisk(s.pts[u], r, s.pts[v]) {
			continue
		}
		if v > u {
			return false // a future node can still meet u
		}
		if geom.InDisk(s.pts[v], s.radii[v], s.pts[u]) {
			return false // mutually reachable assigned partner
		}
	}
	return true
}

// feasible reports whether the current radius assignment's mutual-
// reachability graph preserves the UDG component structure.
func (s *exactSearch) feasible() bool {
	return s.fc.feasible(s.radii)
}

// MutualGraph returns Ĝ(r): edges between nodes that can mutually reach
// each other within their radii and within unit range. Each node's disk
// of radius min(r_u, 1) is enumerated through a grid (the feasChecker's
// query), and edges are added in all-pairs (u, v) order, so the graph is
// oracle.MutualGraph's edge for edge.
func MutualGraph(pts []geom.Point, radii []float64) *graph.Graph {
	g := graph.New(len(pts))
	if len(pts) == 0 {
		return g
	}
	grid := geom.NewGrid(pts, core.GridCell(pts))
	var buf []int
	for u, pu := range pts {
		buf = grid.Within(pu, math.Min(radii[u], udg.Radius), buf[:0])
		sort.Ints(buf)
		for _, v := range buf {
			if v > u && geom.InDisk(pts[v], radii[v], pu) {
				g.AddEdge(u, v, pu.Dist(pts[v]))
			}
		}
	}
	return g
}

// RealizeForest returns a spanning forest of the mutual-reachability
// graph of radii, preferring short edges (Kruskal), i.e. a concrete
// topology realizing at most the interference of the radius assignment.
func RealizeForest(pts []geom.Point, radii []float64) *graph.Graph {
	return graph.KruskalMSF(MutualGraph(pts, radii))
}

// Anneal searches radius assignments by simulated annealing, returning
// an upper bound on the optimal interference and the radius assignment
// attaining it (RealizeForest turns it into a topology). The search
// space and feasibility test match Exact; a move picks a node and
// retargets its radius to a random candidate, rejected outright when it
// breaks connectivity.
//
// A call costs what it touches. The start is the range-limited
// Euclidean MST's radii (grid Prim), and the UDG's component count is
// read off that forest. A node's candidate list is built the first time
// the walk draws it. Interference deltas come from the persistent
// evaluator (O(|annulus|) per move). Connectivity is only re-checked on
// radius decreases — growing a radius adds mutual edges, and adding
// edges to a subgraph of the UDG whose partition already equals the
// UDG's cannot change the partition — and a decrease is decided locally
// by searching around the edges it loses (feasChecker.shrinkOK), with
// the whole-instance union-find as the fallback. oracle.AnnealFull is
// the recompute-everything reference walk; both draw identically from
// rng, so they walk the same move sequence.
func Anneal(pts []geom.Point, rng *rand.Rand, iters int) Result {
	return AnnealWith(core.GraphMeasure, pts, rng, iters)
}

// AnnealWith is Anneal under an arbitrary interference measure: the
// move set, candidate lists, feasibility checks, and rng draws are
// identical to Anneal's, so AnnealWith(core.GraphMeasure, …) walks the
// same sequence bit-for-bit; only Max comes from the supplied engine.
func AnnealWith(factory core.MeasureFactory, pts []geom.Point, rng *rand.Rand, iters int) Result {
	n := len(pts)
	if n == 0 {
		return Result{}
	}
	sp := obs.Start("opt.anneal")
	defer sp.End()
	setup := sp.Child("opt.anneal.setup")
	// Start from the MST radii (feasible by construction). The forest
	// spans each UDG component with one tree, so it also counts them.
	mst := graph.EuclideanMSTEdges(pts, udg.Radius)
	wantK := n - len(mst)
	cur := core.EdgeRadii(n, mst)

	ev := factory(pts)
	fc := newFeasChecker(pts, ev.Grid(), wantK)
	cand := make([][]float64, n)
	var candBuf []int
	// shrinkOK presumes the current state feasible. Every MST edge is
	// mutual unless a zero-length edge leaves its smaller end silent,
	// which feasible does not count; only then must the start be checked,
	// and if it fails, every decrease goes to feasible.
	local := true
	for _, e := range mst {
		if cur[e.U] <= 0 {
			local = fc.feasible(cur)
			break
		}
	}

	ev.BatchSet(cur, 0)
	curI := ev.Max()
	best := append([]float64(nil), cur...)
	bestI := curI
	setup.End()

	loop := sp.Child("opt.anneal.loop")
	var accepted, rejected, shrinks, fallbacks int64
	var chunk *obs.Span
	temp := 2.0
	cool := math.Pow(0.01/temp, 1/math.Max(1, float64(iters)))
	for it := 0; it < iters; it++ {
		// One trace span per 64-iteration chunk keeps per-move timing
		// visible without a million-record trace; continues below are safe
		// because the chunk ends at the next boundary, not per iteration.
		if it&63 == 0 {
			chunk.End()
			chunk = loop.Child("opt.anneal.iters64")
		}
		u := rng.Intn(n)
		if cand[u] == nil {
			cand[u], candBuf = nodeCandidates(pts, ev.Grid(), u, candBuf)
		}
		r := cand[u][rng.Intn(len(cand[u]))]
		if r == cur[u] {
			temp *= cool
			continue
		}
		if r < cur[u] {
			// Shrinking can disconnect; test before touching the state.
			shrinks++
			ok, certain := false, false
			if local {
				ok, certain = fc.shrinkOK(cur, u, r)
			}
			if !certain {
				if local {
					fallbacks++
				}
				cur[u] = r
				ok = fc.feasible(cur)
				cur[u] = ev.Radius(u)
			}
			if !ok {
				temp *= cool
				rejected++
				continue
			}
		}
		old := ev.SetRadius(u, r)
		newI := ev.Max()
		dE := float64(newI - curI)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/temp) {
			cur[u] = r
			curI = newI
			accepted++
			if curI < bestI {
				bestI = curI
				copy(best, cur)
			}
		} else {
			ev.SetRadius(u, old)
			rejected++
		}
		temp *= cool
	}
	chunk.End()
	loop.End()
	if obs.On() {
		obsAnnealIters.Add(int64(iters))
		obsAnnealAccepted.Add(accepted)
		obsAnnealRejected.Add(rejected)
		obsAnnealShrinks.Add(shrinks)
		obsAnnealFallbacks.Add(fallbacks)
	}
	return Result{
		Interference: bestI,
		Radii:        best,
		Exact:        false,
	}
}
