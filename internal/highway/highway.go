// Package highway implements Section 5 of the paper: interference-aware
// topology control for one-dimensional node distributions (the highway
// model). It provides
//
//   - Linear: the naive linearly connected chain (Figures 6–7),
//   - AExp: the scan-line algorithm achieving O(√n) interference on the
//     exponential node chain (Theorem 5.1),
//   - AGen: the segment/hub algorithm achieving O(√Δ) interference on any
//     highway instance (Theorem 5.4, Figure 9),
//   - AApx: the hybrid O(Δ^¼)-approximation (Theorem 5.6),
//   - CriticalSet / Gamma: the critical-node machinery of Definition 5.2
//     and Lemma 5.5, and
//   - LowerBoundExpChain: the √n bound of Theorem 5.2.
//
// All functions require the input to be one-dimensional (Y == 0) and
// sorted by X; Validate checks both. Node indices refer to this sorted
// order throughout.
package highway

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/udg"
)

// Validate checks that pts is a valid highway instance: every Y
// coordinate zero and X coordinates non-decreasing.
func Validate(pts []geom.Point) error {
	for i, p := range pts {
		if p.Y != 0 {
			return fmt.Errorf("highway: node %d has Y = %v, want 0", i, p.Y)
		}
		if i > 0 && p.X < pts[i-1].X {
			return fmt.Errorf("highway: nodes not sorted at %d (%v < %v)", i, p.X, pts[i-1].X)
		}
	}
	return nil
}

func mustValidate(pts []geom.Point) {
	if err := Validate(pts); err != nil {
		panic(err)
	}
}

// Linear connects every node to its immediate left and right neighbor
// when within communication range (the "linearly connected" topology of
// Section 5.1). On the exponential node chain this yields interference
// n−2 at the leftmost node (Figure 7).
func Linear(pts []geom.Point) *graph.Graph {
	return LinearRange(pts, udg.Radius)
}

// LinearRange is Linear with an explicit communication range. Pass
// math.Inf(1) for the range-free Section 5.1 setting, where the
// exponential chain is assumed completely connectable (the measure is
// scale-invariant, so unnormalized chains with r = +Inf are equivalent to
// unit-extent chains with r = 1).
func LinearRange(pts []geom.Point, r float64) *graph.Graph {
	mustValidate(pts)
	g := graph.New(len(pts))
	for i := 1; i < len(pts); i++ {
		if geom.InDisk(pts[i-1], r, pts[i]) {
			g.AddEdge(i-1, i, pts[i].X-pts[i-1].X)
		}
	}
	return g
}

// Hubs returns the hub set of a highway topology per Definition 5.1: node
// v_i is a hub iff it has an edge to some node to its right. (For AGen's
// redefinition — more than one neighbor — see HubsByDegree.)
func Hubs(g *graph.Graph) []int {
	var hubs []int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				hubs = append(hubs, u)
				break
			}
		}
	}
	return hubs
}

// HubsByDegree returns the nodes with more than one neighbor, the hub
// redefinition used by Algorithm A_gen in Section 5.2.
func HubsByDegree(g *graph.Graph) []int {
	var hubs []int
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > 1 {
			hubs = append(hubs, u)
		}
	}
	return hubs
}

// AExp is the scan-line algorithm of Section 5.1. Starting with the
// leftmost node as the current hub h, it processes nodes left to right,
// inserting the edge {h, v_i}; when an insertion raises the topology
// interference I(G_exp), the node that caused the increase becomes the
// new hub and subsequent nodes connect to it. On the exponential node
// chain the result has interference O(√n) (Theorem 5.1) — asymptotically
// optimal by Theorem 5.2.
//
// The incremental evaluator makes each insertion cost proportional to the
// number of nodes whose coverage changes, not to n.
func AExp(pts []geom.Point) *graph.Graph {
	return AExpRange(pts, math.Inf(1))
}

// AExpRange is AExp with a finite communication range: when the current
// hub cannot reach the next node, the scan hands the hub role to that
// node's nearest in-range predecessor (its immediate left neighbor) and
// continues — on instances wider than one range the construction
// degrades gracefully toward per-window hub structures instead of
// emitting illegal links. With r = +Inf it is exactly the paper's
// algorithm; with r = 1 it is safe on arbitrary highway instances.
func AExpRange(pts []geom.Point, r float64) *graph.Graph {
	mustValidate(pts)
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	sp := obs.Start("highway.aexp")
	defer sp.End()
	inc := core.NewEvaluator(pts)
	hub := 0
	for i := 1; i < len(pts); i++ {
		if !geom.InDisk(pts[hub], r, pts[i]) {
			// The hub cannot reach v_i: promote v_{i-1}. If even the
			// immediate neighbor is out of range the UDG is disconnected
			// here and v_i starts a fresh hub on its own.
			hub = i - 1
			if !geom.InDisk(pts[hub], r, pts[i]) {
				hub = i
				continue
			}
		}
		d := pts[hub].Dist(pts[i])
		before := inc.Max()
		g.AddEdge(hub, i, d)
		inc.GrowTo(hub, d)
		inc.GrowTo(i, d)
		if inc.Max() > before {
			hub = i
		}
	}
	return g
}

// Extent returns the length of highway covered by the instance. The
// Section 5.1 analysis (AExp's bound and the √n lower bound) assumes the
// exponential chain has extent at most one communication range; the
// constructor in internal/gen guarantees it and callers can assert it
// with this helper.
func Extent(pts []geom.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].X - pts[0].X
}

// AExpBound returns the interference bound of Theorem 5.1 for an
// n-node exponential chain: the smallest I with n ≤ I²/2 − I/2 + 2
// rearranged, I = ⌈(1+√(8n−15))/2⌉ for n ≥ 2 — reported as O(√n) in the
// paper. For n < 2 the bound is 0.
func AExpBound(n int) int {
	if n < 2 {
		return 0
	}
	// From the proof: an interference value I is reached only once
	// n ≥ Σ_{i=1}^{I-1}(i) + 2 = I(I−1)/2 + 2. Invert for the max I
	// attainable with n nodes.
	i := 1
	for (i+1)*i/2+2 <= n {
		i++
	}
	return i
}

// LowerBoundExpChain returns ⌈√n⌉ − 1… specifically the Theorem 5.2 lower
// bound ⌊√n⌋ on the interference of any connected topology for the
// exponential node chain with n nodes (stated as √n in the paper; any
// connected topology must have I ≥ √(n) up to rounding: H + S ≤
// √n·(√n−3)+2+√n < n otherwise).
func LowerBoundExpChain(n int) int {
	if n < 2 {
		return 0
	}
	return int(math.Floor(math.Sqrt(float64(n))))
}

// SegmentSize is the hub spacing parameter of AGen: every spacing-th node
// of a unit segment becomes a hub. The paper uses ⌈√Δ⌉.
func hubSpacing(delta int) int {
	if delta < 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(delta))))
}

// AGen is Algorithm A_gen of Section 5.2 (Theorem 5.4): partition the
// highway into unit-length segments; within each segment nominate every
// ⌈√Δ⌉-th node (and the segment's rightmost node) a hub, connect hubs
// linearly, connect every regular node to its nearest hub of its
// interval, and join adjacent segments by an edge between the rightmost
// node of the left segment and the leftmost node of the right one (when
// within range). The result has interference O(√Δ).
func AGen(pts []geom.Point) *graph.Graph {
	return AGenSpacing(pts, 0)
}

// AGenSpacing is AGen with an explicit hub spacing (0 means the paper's
// ⌈√Δ⌉). It exists for the ablation experiment that sweeps the spacing.
func AGenSpacing(pts []geom.Point, spacing int) *graph.Graph {
	mustValidate(pts)
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g
	}
	sp := obs.Start("highway.agen")
	defer sp.End()
	if spacing <= 0 {
		dsp := sp.Child("highway.agen.delta")
		delta := udg.MaxDegree(pts, udg.Radius)
		dsp.End()
		spacing = hubSpacing(delta)
	}
	wire := sp.Child("highway.agen.wire")
	defer wire.End()
	// Partition into unit segments anchored at the leftmost node.
	x0 := pts[0].X
	segStart := 0
	var prevSegEnd = -1 // index of the rightmost node of the previous segment
	for segStart < len(pts) {
		segIdx := int(math.Floor(pts[segStart].X - x0))
		// Gather the segment [x0+segIdx, x0+segIdx+1).
		segEnd := segStart
		for segEnd+1 < len(pts) && int(math.Floor(pts[segEnd+1].X-x0)) == segIdx {
			segEnd++
		}
		buildSegment(pts, g, segStart, segEnd, spacing)
		// Join to the previous segment when within range (adjacent
		// segments are at most 2 apart in coordinate, but only adjacent
		// ones can be within unit range).
		if prevSegEnd >= 0 && geom.InDisk(pts[prevSegEnd], udg.Radius, pts[segStart]) {
			g.AddEdge(prevSegEnd, segStart, pts[segStart].X-pts[prevSegEnd].X)
		}
		prevSegEnd = segEnd
		segStart = segEnd + 1
	}
	return g
}

// buildSegment wires one unit segment [s, e] (inclusive indices): hubs at
// every spacing-th node plus the rightmost, hubs linearly connected,
// regular nodes to their nearest hub.
func buildSegment(pts []geom.Point, g *graph.Graph, s, e, spacing int) {
	n := e - s + 1
	if n == 1 {
		return // singleton segment: joined to neighbors by the caller
	}
	// Hub positions within the segment.
	isHub := make([]bool, n)
	for i := 0; i < n; i += spacing {
		isHub[i] = true
	}
	isHub[n-1] = true // avoid boundary effects (paper's rule)
	var hubs []int
	for i, h := range isHub {
		if h {
			hubs = append(hubs, s+i)
		}
	}
	// Hubs linearly connected.
	for i := 1; i < len(hubs); i++ {
		g.AddEdge(hubs[i-1], hubs[i], pts[hubs[i]].X-pts[hubs[i-1]].X)
	}
	// Regular nodes to the nearest hub of their interval (ties broken
	// toward the left hub, "arbitrarily" per the paper).
	hi := 0
	for i := s; i <= e; i++ {
		if isHub[i-s] {
			continue
		}
		// Find the interval [hubs[hi], hubs[hi+1]] containing i.
		for hi+1 < len(hubs) && hubs[hi+1] < i {
			hi++
		}
		left := hubs[hi]
		right := left
		if hi+1 < len(hubs) {
			right = hubs[hi+1]
		}
		dl := pts[i].X - pts[left].X
		dr := pts[right].X - pts[i].X
		if dl <= dr {
			g.AddEdge(left, i, dl)
		} else {
			g.AddEdge(i, right, dr)
		}
	}
}

// CriticalSet returns C_v for node v (Definition 5.2): the nodes that
// interfere with v when the instance is connected linearly — i.e. the
// nodes u ≠ v whose linear-topology radius r_u reaches v.
func CriticalSet(pts []geom.Point, v int) []int {
	return CriticalSetRange(pts, v, udg.Radius)
}

// CriticalSetRange is CriticalSet under an explicit communication range
// (math.Inf(1) for the range-free chain setting).
func CriticalSetRange(pts []geom.Point, v int, r float64) []int {
	mustValidate(pts)
	lin := LinearRange(pts, r)
	radii := core.Radii(pts, lin)
	var out []int
	for u := range pts {
		if u != v && radii[u] > 0 && geom.InDisk(pts[u], radii[u], pts[v]) {
			out = append(out, u)
		}
	}
	return out
}

// Gamma returns γ = max_v |C_v|, the maximum critical-set size (equal to
// the interference of the linearly connected topology), together with the
// attaining node. Lemma 5.5: any minimum-interference topology for the
// instance has interference Ω(√γ).
func Gamma(pts []geom.Point) (gamma, atNode int) {
	return GammaRange(pts, udg.Radius)
}

// GammaRange is Gamma under an explicit communication range.
func GammaRange(pts []geom.Point, r float64) (gamma, atNode int) {
	mustValidate(pts)
	if len(pts) < 2 {
		return 0, -1
	}
	lin := LinearRange(pts, r)
	iv := core.Interference(pts, lin)
	return iv.Max(), iv.ArgMax()
}

// GammaLowerBound returns the Lemma 5.5 lower bound ⌊√(γ/2)⌋ on the
// interference of any connected topology for the instance: at least half
// of C_v lies on one side of v, forming a virtual exponential chain to
// which Theorem 5.2 applies.
func GammaLowerBound(gamma int) int {
	if gamma < 2 {
		return gamma
	}
	return int(math.Floor(math.Sqrt(float64(gamma) / 2)))
}

// AApx is the hybrid Algorithm A_apx of Section 5.3 (Theorem 5.6): compute
// γ; if γ > √Δ the instance is inherently hard — apply AGen (O(√Δ) ≤
// O(√Δ) vs the Ω(√γ) ≥ Ω(Δ^¼) optimum); otherwise connect linearly
// (interference γ vs Ω(√γ) optimum). Either way the approximation ratio
// is O(Δ^¼).
func AApx(pts []geom.Point) *graph.Graph {
	g, _ := AApxExplain(pts)
	return g
}

// AApxExplain is AApx exposing which branch was taken ("agen" or
// "linear") for experiment reporting.
func AApxExplain(pts []geom.Point) (*graph.Graph, string) {
	mustValidate(pts)
	if len(pts) < 2 {
		return graph.New(len(pts)), "linear"
	}
	sp := obs.Start("highway.aapx")
	defer sp.End()
	gsp := sp.Child("highway.aapx.gamma")
	gamma, _ := Gamma(pts)
	gsp.End()
	delta := udg.MaxDegree(pts, udg.Radius)
	if float64(gamma) > math.Sqrt(float64(delta)) {
		return AGen(pts), "agen"
	}
	return Linear(pts), "linear"
}

// AExpTrace records one insertion step of the scan-line algorithm.
type AExpTrace struct {
	// Node is the node just connected; Hub the hub it connected to.
	Node, Hub int
	// MaxAfter is I(G_exp) after the insertion; Promoted reports whether
	// the insertion raised it, making Node the new hub.
	MaxAfter int
	Promoted bool
}

// AExpWithTrace is AExp additionally returning the per-insertion trace —
// the data behind Figure 8's narrative (hubs accumulate one more
// connection than their predecessor before the interference bumps).
func AExpWithTrace(pts []geom.Point) (*graph.Graph, []AExpTrace) {
	mustValidate(pts)
	g := graph.New(len(pts))
	if len(pts) < 2 {
		return g, nil
	}
	inc := core.NewEvaluator(pts)
	hub := 0
	trace := make([]AExpTrace, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		before := inc.Max()
		d := pts[hub].Dist(pts[i])
		g.AddEdge(hub, i, d)
		inc.GrowTo(hub, d)
		inc.GrowTo(i, d)
		step := AExpTrace{Node: i, Hub: hub, MaxAfter: inc.Max(), Promoted: inc.Max() > before}
		trace = append(trace, step)
		if step.Promoted {
			hub = i
		}
	}
	return g, trace
}
