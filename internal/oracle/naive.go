package oracle

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/udg"
)

// This file holds the straight-from-the-paper reference implementations:
// quadratic loops over all pairs, no spatial index, no incremental state.
// They are deliberately boring — the point is that each one is obviously
// a transcription of a definition, so agreement with the optimized paths
// is evidence about the optimized paths, not about shared cleverness.

// Radii returns the transmission radius r_u = max_{v ∈ N_u} |u, v| of
// every node (Definition: minimum power reaching the farthest neighbor),
// recomputing every distance from the geometry rather than trusting the
// stored edge weights — so a topology built with wrong weights diverges
// here.
func Radii(pts []geom.Point, g *graph.Graph) []float64 {
	r := make([]float64, len(pts))
	for u := range pts {
		for _, v := range g.Neighbors(u) {
			if d := pts[u].Dist(pts[v]); d > r[u] {
				r[u] = d
			}
		}
	}
	return r
}

// Interference evaluates Definition 3.1 by the double loop it is stated
// as: I(v) = |{u ≠ v : v ∈ D(u, r_u)}|.
func Interference(pts []geom.Point, radii []float64) core.Vector {
	iv := make(core.Vector, len(pts))
	for u := range pts {
		if radii[u] <= 0 {
			continue
		}
		for v := range pts {
			if v != u && geom.InDisk(pts[u], radii[u], pts[v]) {
				iv[v]++
			}
		}
	}
	return iv
}

// InterferenceOf is Definition 3.2 for a topology: derive the radii, count
// the disks, take the maximum.
func InterferenceOf(pts []geom.Point, g *graph.Graph) int {
	return Interference(pts, Radii(pts, g)).Max()
}

// CoveredBy lists the witnesses behind I(v) — the nodes u ≠ v whose disks
// contain v — in ascending index order.
func CoveredBy(pts []geom.Point, radii []float64, v int) []int {
	var out []int
	for u := range pts {
		if u != v && radii[u] > 0 && geom.InDisk(pts[u], radii[u], pts[v]) {
			out = append(out, u)
		}
	}
	return out
}

// Within is the naive range query: every index within distance r of c
// (boundary-inclusive, same predicate as the grid), ascending.
func Within(pts []geom.Point, c geom.Point, r float64) []int {
	var out []int
	for j := range pts {
		if geom.InDisk(c, r, pts[j]) {
			out = append(out, j)
		}
	}
	return out
}

// WithinAnnulus is the naive annulus query: indices j with
// lo < |c, p_j| ≤ hi under the shared boundary predicate, ascending —
// the reference for the grid query behind Evaluator.SetRadius. A
// non-positive lo is an empty inner disk (a silent node covers nothing,
// not even a coincident one), so the query degenerates to Within(c, hi).
func WithinAnnulus(pts []geom.Point, c geom.Point, lo, hi float64) []int {
	var out []int
	for j := range pts {
		if geom.InDisk(c, hi, pts[j]) && (lo <= 0 || !geom.InDisk(c, lo, pts[j])) {
			out = append(out, j)
		}
	}
	return out
}

// Nearest is the linear-scan reference for geom.Grid.Nearest: the
// nearest point to pts[i] other than i, ties broken toward the smaller
// index, with the distance reported through Dist; (-1, +Inf) when there
// is none.
func Nearest(pts []geom.Point, i int) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for j, q := range pts {
		if j == i {
			continue
		}
		d2 := pts[i].Dist2(q)
		if d2 < bestD2 || (d2 == bestD2 && j < best) {
			best, bestD2 = j, d2
		}
	}
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, pts[i].Dist(pts[best])
}

// NNF builds the Nearest Neighbor Forest by the definition: every node
// links to its nearest neighbor within communication range, ties broken
// toward the smaller index.
func NNF(pts []geom.Point) *graph.Graph {
	g := graph.New(len(pts))
	for u := range pts {
		best, bestD := -1, math.Inf(1)
		for v := range pts {
			if v == u {
				continue
			}
			if d := pts[u].Dist(pts[v]); d < bestD {
				best, bestD = v, d
			}
		}
		if best >= 0 && geom.InDisk(pts[u], udg.Radius, pts[best]) {
			g.AddEdge(u, best, bestD)
		}
	}
	return g
}

// UDG builds the unit disk graph by the quadratic definition: an edge for
// every pair within communication range.
func UDG(pts []geom.Point) *graph.Graph {
	g := graph.New(len(pts))
	for u := range pts {
		for v := u + 1; v < len(pts); v++ {
			if geom.InDisk(pts[u], udg.Radius, pts[v]) {
				g.AddEdge(u, v, pts[u].Dist(pts[v]))
			}
		}
	}
	return g
}

// Components labels the UDG components by brute-force flood fill over the
// pairwise distance matrix, returning the label vector and the count.
func Components(pts []geom.Point) ([]int, int) {
	n := len(pts)
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	k := 0
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		queue := []int{s}
		label[s] = k
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if label[v] < 0 && geom.InDisk(pts[u], udg.Radius, pts[v]) {
					label[v] = k
					queue = append(queue, v)
				}
			}
		}
		k++
	}
	return label, k
}

// RepairEdges is the reference for dynamic.Maintainer's connectivity
// repair: Kruskal, in (W, U, V) order, over every edge of the quadratic
// UDG whose endpoints lie in different components of topo. It returns
// the edges Kruskal joins, in join order — the edges a settle due to
// repair must append to topo. topo is not modified.
func RepairEdges(pts []geom.Point, topo *graph.Graph) []graph.Edge {
	label, k := topo.Components()
	uf := graph.NewUnionFind(k)
	var joined []graph.Edge
	for _, e := range UDG(pts).SortedEdges() {
		if label[e.U] != label[e.V] && uf.Union(label[e.U], label[e.V]) {
			joined = append(joined, e)
		}
	}
	return joined
}

// EuclideanMST is the reference for graph.EuclideanMST: dense Prim,
// O(n²), over the complete Euclidean graph restricted to edges of length
// at most maxLen. Each component is started from its smallest unspanned
// index in ascending order; a step extracts the cheapest fringe node
// (ties to the smaller index) and relaxes every other node with a strict
// <. The grid-and-heap version must return this forest edge for edge, in
// this insertion order, with bit-equal weights.
func EuclideanMST(pts []geom.Point, maxLen float64) *graph.Graph {
	n := len(pts)
	t := graph.New(n)
	if n == 0 {
		return t
	}
	const unseen = -2
	inTree := make([]bool, n)
	bestD := make([]float64, n)
	bestTo := make([]int, n)
	for i := range bestD {
		bestD[i] = math.Inf(1)
		bestTo[i] = unseen
	}
	for start := 0; start < n; start++ {
		if inTree[start] {
			continue
		}
		bestD[start] = 0
		bestTo[start] = -1
		for {
			u, ud := -1, math.Inf(1)
			for v := 0; v < n; v++ {
				if !inTree[v] && bestTo[v] != unseen && bestD[v] < ud {
					u, ud = v, bestD[v]
				}
			}
			if u < 0 {
				break
			}
			inTree[u] = true
			if bestTo[u] >= 0 {
				t.AddEdge(bestTo[u], u, ud)
			}
			for v := 0; v < n; v++ {
				if inTree[v] || !geom.InDisk(pts[u], maxLen, pts[v]) {
					continue
				}
				if d := pts[u].Dist(pts[v]); d < bestD[v] {
					bestD[v] = d
					bestTo[v] = u
				}
			}
		}
	}
	return t
}

// MSTWeight returns the total weight of a minimum spanning forest of the
// UDG by the textbook O(n³) Prim (one pass per component, no heap) — the
// weight-only reference for graph.EuclideanMST.
func MSTWeight(pts []geom.Point) float64 {
	n := len(pts)
	inTree := make([]bool, n)
	dist := make([]float64, n)
	total := 0.0
	for root := 0; root < n; root++ {
		if inTree[root] {
			continue
		}
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[root] = 0
		for {
			u, best := -1, math.Inf(1)
			for v := 0; v < n; v++ {
				if !inTree[v] && dist[v] < best {
					u, best = v, dist[v]
				}
			}
			if u < 0 {
				break
			}
			inTree[u] = true
			total += dist[u]
			for v := 0; v < n; v++ {
				if inTree[v] || !geom.InDisk(pts[u], udg.Radius, pts[v]) {
					continue
				}
				if d := pts[u].Dist(pts[v]); d < dist[v] {
					dist[v] = d
				}
			}
		}
	}
	return total
}

// MutualGraph returns Ĝ(r) by the definition in internal/opt: edges
// between nodes that mutually reach each other within their radii and
// within unit range.
func MutualGraph(pts []geom.Point, radii []float64) *graph.Graph {
	g := graph.New(len(pts))
	for u := range pts {
		for v := u + 1; v < len(pts); v++ {
			if geom.InDisk(pts[u], udg.Radius, pts[v]) &&
				geom.InDisk(pts[u], radii[u], pts[v]) && geom.InDisk(pts[v], radii[v], pts[u]) {
				g.AddEdge(u, v, pts[u].Dist(pts[v]))
			}
		}
	}
	return g
}

// Feasible reports whether the radius assignment preserves the UDG
// component structure: the partition of Ĝ(r) equals the UDG's (compared
// label-by-label, not just by count).
func Feasible(pts []geom.Point, radii []float64) bool {
	wantLabel, wantK := Components(pts)
	gotLabel, gotK := MutualGraph(pts, radii).Components()
	if gotK != wantK {
		return false
	}
	// Both labelings are canonical (first-seen order), so after count
	// equality a pointwise comparison via a remap detects any difference.
	remap := make(map[int]int)
	for i := range wantLabel {
		m, ok := remap[gotLabel[i]]
		if !ok {
			remap[gotLabel[i]] = wantLabel[i]
		} else if m != wantLabel[i] {
			return false
		}
	}
	return true
}

// MaxBruteN bounds the instance size BruteForceOptimal accepts.
const MaxBruteN = 9

// BruteForceOptimal enumerates every radius assignment over the
// per-node candidate sets (Candidates, exactly the space internal/opt
// searches) and returns the minimum interference over
// assignments whose mutual-reachability graph preserves the UDG
// components, together with an attaining assignment. It is the oracle for
// opt.Exact at n ≤ MaxBruteN.
//
// The only concession to tractability is the obvious monotonicity skip —
// interference of a prefix (unassigned radii zero) never exceeds the
// finished assignment's, so prefixes already at or above the incumbent
// are not extended. Every evaluation is a fresh quadratic recompute.
func BruteForceOptimal(pts []geom.Point) (int, []float64) {
	n := len(pts)
	if n > MaxBruteN {
		panic("oracle: instance too large for brute force")
	}
	if n == 0 {
		return 0, nil
	}
	cand := Candidates(pts)

	best := math.MaxInt
	var bestRadii []float64
	radii := make([]float64, n)
	var enumerate func(u int)
	enumerate = func(u int) {
		if Interference(pts, radii).Max() >= best {
			return
		}
		if u == n {
			if Feasible(pts, radii) {
				best = Interference(pts, radii).Max()
				bestRadii = append(bestRadii[:0], radii...)
			}
			return
		}
		for _, r := range cand[u] {
			radii[u] = r
			enumerate(u + 1)
			radii[u] = 0
		}
	}
	enumerate(0)
	if bestRadii == nil {
		return -1, nil // no feasible assignment (cannot happen: UDG radii are feasible)
	}
	return best, bestRadii
}

// Candidates returns, for each node, the ascending distinct radii the
// optimum searches range over: distances to the other nodes within unit
// range, or {0} for a node the UDG leaves isolated. It is the all-pairs
// reference for internal/opt's grid-enumerated lists.
func Candidates(pts []geom.Point) [][]float64 {
	cand := make([][]float64, len(pts))
	for u := range pts {
		var set []float64
		for v := range pts {
			if v != u && geom.InDisk(pts[u], udg.Radius, pts[v]) {
				set = append(set, pts[u].Dist(pts[v]))
			}
		}
		if len(set) == 0 {
			cand[u] = []float64{0}
			continue
		}
		sort.Float64s(set)
		out := set[:1]
		for _, d := range set[1:] {
			if d != out[len(out)-1] {
				out = append(out, d)
			}
		}
		cand[u] = out
	}
	return cand
}

// AnnealFull is the reference walk for opt.Anneal: the same simulated
// annealing over Candidates, started from the range-limited Euclidean
// MST's radii and drawing identically from rng, but re-checking
// feasibility (Feasible) and re-evaluating interference (Interference)
// from scratch on every move. It returns the best interference and the
// radius assignment attaining it; opt.Anneal with the same seed and
// budget must return both bit for bit.
func AnnealFull(pts []geom.Point, rng *rand.Rand, iters int) (int, []float64) {
	n := len(pts)
	if n == 0 {
		return 0, nil
	}
	cur := Radii(pts, EuclideanMST(pts, udg.Radius))
	curI := Interference(pts, cur).Max()
	best := append([]float64(nil), cur...)
	bestI := curI

	cand := Candidates(pts)

	temp := 2.0
	cool := math.Pow(0.01/temp, 1/math.Max(1, float64(iters)))
	work := append([]float64(nil), cur...)
	for it := 0; it < iters; it++ {
		u := rng.Intn(n)
		copy(work, cur)
		work[u] = cand[u][rng.Intn(len(cand[u]))]
		if work[u] == cur[u] || !Feasible(pts, work) {
			temp *= cool
			continue
		}
		newI := Interference(pts, work).Max()
		dE := float64(newI - curI)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/temp) {
			cur, work = work, cur
			curI = newI
			if curI < bestI {
				bestI = curI
				copy(best, cur)
			}
		}
		temp *= cool
	}
	return bestI, best
}
