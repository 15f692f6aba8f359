package dynamic

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/udg"
)

// Component labels, the unit-disk adjacency and the local settle.
//
// The maintainer keeps label[u], the id of node u's topology component,
// and size[l], the node count of label l; free holds empty label ids for
// reuse. After every settle the labels induce exactly the topology's
// partition, which is also the UDG's. Between settles, Insert, Remove
// and Move record what they change: touched holds the endpoints of every
// topology edge added or removed, moved the nodes that arrived or moved.
// Labels can only be stale on the components of those nodes, so the
// settle looks there and nowhere else.
//
// nbr[u] is u's UDG neighbourhood, built by one disk query on u's first
// use and kept exact from then on: the disk query an arrival or move
// makes at the node's new position fills its list and adds it to the
// built lists of its new neighbours, a move first takes it out of its
// old neighbours' lists, and Remove shifts every built list down. Only
// the point set decides the lists, so rebuilds and anneals keep them.

// nodeScratch and labelScratch are the settle's per-node and per-label
// working state. Every field is valid only while its stamp equals the
// current settle's (or piece's) stamp, so nothing is ever cleared.
type nodeScratch struct {
	seen    uint64 // settle stamp: walked into a piece
	queried uint64 // settle stamp: in the settle's query set
	piece   int32  // the piece it was walked into
}

type labelScratch struct {
	countAt   uint64 // piece stamp the count belongs to
	count     int32  // the label's nodes in that piece
	bestAt    uint64 // settle stamp the best fields belong to
	best      int32  // most of the label's nodes found in one piece
	bestPiece int32  // that piece
	elemAt    uint64 // settle stamp elem belongs to
	elem      int32  // union-find element of an untouched component
}

// nbrs returns u's UDG neighbour list, building it by one disk query on
// first use.
func (m *Maintainer) nbrs(u int) []int32 {
	if m.nbr[u] == nil {
		m.buf = m.eng.Grid().Within(m.points()[u], udg.Radius, m.buf[:0])
		m.nbr[u] = m.fromQuery(u, nil)
	}
	return m.nbr[u]
}

// fromQuery returns u's list out of m.buf, a disk query around u, in l's
// storage when it fits. The list is sized to the degree and never nil.
func (m *Maintainer) fromQuery(u int, l []int32) []int32 {
	if need := max(len(m.buf)-1, 0); l == nil || cap(l) < need {
		l = make([]int32, 0, need)
	}
	l = l[:0]
	for _, v := range m.buf {
		if v != u {
			l = append(l, int32(v))
		}
	}
	return l
}

// place gives idx, just added or moved to p, its neighbour list from one
// disk query, adds idx to its new neighbours' built lists, and returns
// its nearest neighbour in range, or -1: least Dist2, ties to the lower
// index, exactly as geom.Grid.Nearest answers when that is in range.
func (m *Maintainer) place(idx int, p geom.Point) int {
	pts := m.points()
	m.buf = m.eng.Grid().Within(p, udg.Radius, m.buf[:0])
	m.nbr[idx] = m.fromQuery(idx, m.nbr[idx])
	best, bestD2 := -1, math.Inf(1)
	for _, v32 := range m.nbr[idx] {
		v := int(v32)
		if d2 := p.Dist2(pts[v]); d2 < bestD2 || d2 == bestD2 && v < best {
			best, bestD2 = v, d2
		}
		if m.nbr[v] != nil {
			m.nbr[v] = addNbr(m.nbr[v], int32(idx))
		}
	}
	return best
}

// unplace takes idx, about to move, out of its neighbours' built lists.
func (m *Maintainer) unplace(idx int) {
	for _, v := range m.nbrs(idx) {
		if l := m.nbr[v]; l != nil {
			i := slices.Index(l, int32(idx))
			l[i] = l[len(l)-1]
			m.nbr[v] = l[:len(l)-1]
		}
	}
}

// addNbr appends v to a built list, growing it by a quarter rather than
// doubling: lists are sized to the degree, and most never grow.
func addNbr(l []int32, v int32) []int32 {
	if len(l) == cap(l) {
		l = append(make([]int32, 0, len(l)+len(l)/4+1), l...)
	}
	return append(l, v)
}

// dropNbrs deletes node idx from the adjacency, shifting higher indices
// down by one as Remove shifts the points.
func (m *Maintainer) dropNbrs(idx int) {
	m.nbr = slices.Delete(m.nbr, idx, idx+1)
	for u, l := range m.nbr {
		m.nbr[u] = shiftOut(l, idx) // an unbuilt (nil) list stays nil
	}
}

// relabel recomputes every label with one Components pass. rebuild,
// Anneal and Restore call it where they replace the topology wholesale;
// the recorded changes are subsumed and dropped.
func (m *Maintainer) relabel() {
	tl, k := m.topo.Components()
	m.label = m.label[:0]
	for _, l := range tl {
		m.label = append(m.label, int32(l))
	}
	m.size = slices.Grow(m.size[:0], k)[:k]
	clear(m.size)
	for _, l := range m.label {
		m.size[l]++
	}
	m.labelScr = slices.Grow(m.labelScr[:0], k)[:k]
	m.free = m.free[:0]
	m.touched, m.moved = m.touched[:0], m.moved[:0]
}

// newLabel returns an empty label id, reusing a freed one when it can.
func (m *Maintainer) newLabel() int32 {
	if k := len(m.free); k > 0 {
		l := m.free[k-1]
		m.free = m.free[:k-1]
		return l
	}
	m.size = append(m.size, 0)
	m.labelScr = append(m.labelScr, labelScratch{})
	return int32(len(m.size) - 1)
}

// shrinkLabel takes one node off label l, freeing the id when it empties.
func (m *Maintainer) shrinkLabel(l int32) {
	if m.size[l]--; m.size[l] == 0 {
		m.free = append(m.free, l)
	}
}

// record notes a topology edge {u, v} that an operation added or removed.
func (m *Maintainer) record(u, v int) {
	m.touched = append(m.touched, int32(u), int32(v))
}

// forget drops node idx from the labels and the recorded changes,
// shifting higher indices down by one as Remove shifts the points.
func (m *Maintainer) forget(idx int) {
	m.shrinkLabel(m.label[idx])
	m.label = append(m.label[:idx], m.label[idx+1:]...)
	m.touched = shiftOut(m.touched, idx)
	m.moved = shiftOut(m.moved, idx)
}

// shiftOut removes idx from list in place and decrements the entries
// above it.
func shiftOut(list []int32, idx int) []int32 {
	x, k := int32(idx), 0
	for _, v := range list {
		if v != x {
			if v > x {
				v--
			}
			list[k] = v
			k++
		}
	}
	return list[:k]
}

// repairConnectivity makes the topology's partition match the UDG's
// again after the recorded changes, and reports whether it could not.
// With join set it joins the UDG edges that cross two topology
// components, Kruskal over them in (W, U, V) order: the shortest
// crossing edge per component pair, as iterating the global minimum
// would, growing both endpoint radii through the evaluator so the
// maintained interference stays exact. It reports false and leaves the
// labels matching the joined topology. With join unset (only arrivals
// since the last settle) it only looks, and reports true at the first
// crossing edge: an arrival merged two UDG components the topology
// keeps apart, and the caller rebuilds.
//
// The cost is what the changes touched. Before them, labels, topology
// partition and UDG partition agreed, so a crossing UDG edge either has
// a moved endpoint (the edge is new) or joins two pieces of one old
// label that the changes split. explore walks the touched components,
// and scan reads the neighbour lists of the moved nodes plus, per split
// label, the nodes outside its largest piece: a crossing edge between
// two pieces of one label has an endpoint there.
func (m *Maintainer) repairConnectivity(join bool) bool {
	defer func() { m.touched, m.moved = m.touched[:0], m.moved[:0] }()
	if len(m.touched) == 0 && len(m.moved) == 0 {
		return false
	}
	m.stamp++
	at := m.stamp
	if n := len(m.label); len(m.nodeScr) < n {
		m.nodeScr = append(m.nodeScr, make([]nodeScratch, n-len(m.nodeScr))...)
	}
	visits := m.explore(at)
	found, scanned := m.scan(at, join)
	if !found {
		m.join(at)
		visits += m.relabelPieces()
	}
	if obs.On() {
		obsSettleVisited.Add(int64(visits))
		obsSettleScanned.Add(int64(scanned))
	}
	return found
}

// explore walks the current topology breadth-first from the touched
// nodes, one whole component (a piece) at a time, into m.nodes; piece p
// is m.nodes[m.pieceAt[p]:m.pieceAt[p+1]]. Every node of an old label
// met lands in a piece: the label's nodes stay in one component unless
// edges between them were removed, and each part a removal leaves holds
// an endpoint of a removed edge, which starts a walk. For every old
// label met explore records the piece holding most of its nodes, ties
// to the first. It returns the number of adjacency visits.
func (m *Maintainer) explore(at uint64) int {
	m.nodes, m.pieceAt = m.nodes[:0], m.pieceAt[:0]
	visits := 0
	for _, s := range m.touched {
		if m.nodeScr[s].seen == at {
			continue
		}
		p := int32(len(m.pieceAt))
		start := len(m.nodes)
		m.pieceAt = append(m.pieceAt, int32(start))
		m.stamp++
		pieceStamp := m.stamp
		m.nodeScr[s] = nodeScratch{seen: at, piece: p}
		m.nodes = append(m.nodes, s)
		m.plabels = m.plabels[:0]
		for i := start; i < len(m.nodes); i++ {
			u := m.nodes[i]
			ls := &m.labelScr[m.label[u]]
			if ls.countAt != pieceStamp {
				ls.countAt, ls.count = pieceStamp, 0
				m.plabels = append(m.plabels, m.label[u])
			}
			ls.count++
			nb := m.topo.Neighbors(int(u))
			visits += len(nb)
			for _, v := range nb {
				if m.nodeScr[v].seen != at {
					m.nodeScr[v] = nodeScratch{seen: at, piece: p}
					m.nodes = append(m.nodes, int32(v))
				}
			}
		}
		for _, l := range m.plabels {
			ls := &m.labelScr[l]
			if ls.bestAt != at || ls.count > ls.best {
				ls.bestAt, ls.best, ls.bestPiece = at, ls.count, p
			}
		}
	}
	m.pieceAt = append(m.pieceAt, int32(len(m.nodes)))
	return visits
}

// sameComponent reports whether u and v lie in one component of the
// current topology: one piece, or one untouched (hence still correctly
// labeled) component.
func (m *Maintainer) sameComponent(at uint64, u, v int) bool {
	su, sv := m.nodeScr[u].seen == at, m.nodeScr[v].seen == at
	switch {
	case su != sv:
		return false
	case su:
		return m.nodeScr[u].piece == m.nodeScr[v].piece
	}
	return m.label[u] == m.label[v]
}

// scan collects the crossing UDG edges into m.cross, each once, from the
// neighbour lists of the moved nodes and of every piece node outside its
// old label's largest piece. With join unset it stops at the first
// crossing edge and reports it. It also returns the number of lists it
// had to build by a disk query.
func (m *Maintainer) scan(at uint64, join bool) (found bool, scanned int) {
	m.query = m.query[:0]
	query := func(u int32) {
		if m.nodeScr[u].queried != at {
			m.nodeScr[u].queried = at
			m.query = append(m.query, u)
		}
	}
	for _, u := range m.moved {
		query(u)
	}
	for _, u := range m.nodes {
		if m.labelScr[m.label[u]].bestPiece != m.nodeScr[u].piece {
			query(u)
		}
	}
	pts := m.points()
	m.cross = m.cross[:0]
	for _, u32 := range m.query {
		u := int(u32)
		if m.nbr[u] == nil {
			scanned++
		}
		for _, v32 := range m.nbrs(u) {
			v := int(v32)
			if m.sameComponent(at, u, v) {
				continue
			}
			if m.nodeScr[v].queried == at && v < u {
				continue // both ends queried: emitted once, at the lower index
			}
			if !join {
				return true, scanned
			}
			a, b := min(u, v), max(u, v)
			m.cross = append(m.cross, graph.Edge{U: a, V: b, W: pts[u].Dist(pts[v])})
		}
	}
	if obs.On() {
		obsSettleCrossing.Add(int64(len(m.cross)))
	}
	return false, scanned
}

// join runs Kruskal over m.cross in (W, U, V) order with a union-find
// whose elements are the pieces (0..P-1) and then the untouched
// components met, in order; m.rep holds a node of each of the latter.
// Kruskal accepts at most the first edge between two elements, so only
// the lightest crossing edge per element pair is sorted.
func (m *Maintainer) join(at uint64) {
	pieces := len(m.pieceAt) - 1
	m.parent, m.rep = m.parent[:0], m.rep[:0]
	for p := 0; p < pieces; p++ {
		m.parent = append(m.parent, int32(p))
	}
	if m.lightest == nil {
		m.lightest = make(map[uint64]int32)
	}
	clear(m.lightest)
	kept := m.cross[:0]
	for _, e := range m.cross {
		a, b := m.elem(at, e.U), m.elem(at, e.V)
		key := uint64(min(a, b))<<32 | uint64(max(a, b))
		if i, ok := m.lightest[key]; ok {
			if edgeOrder(e, kept[i]) < 0 {
				kept[i] = e
			}
			continue
		}
		m.lightest[key] = int32(len(kept))
		kept = append(kept, e)
	}
	m.cross = kept
	slices.SortFunc(m.cross, edgeOrder)
	pts := m.points()
	for _, e := range m.cross {
		ru, rv := m.find(m.elem(at, e.U)), m.find(m.elem(at, e.V))
		if ru == rv {
			continue
		}
		m.parent[ru] = rv
		m.topo.AddEdge(e.U, e.V, e.W)
		oldU := m.eng.GrowTo(e.U, e.W)
		oldV := m.eng.GrowTo(e.V, e.W)
		m.touch(pts[e.U], math.Max(oldU, e.W))
		m.touch(pts[e.V], math.Max(oldV, e.W))
		if obs.On() {
			obsRepairEdges.Inc()
		}
	}
}

// edgeOrder is Kruskal's (W, U, V) order.
func edgeOrder(a, b graph.Edge) int {
	if c := cmp.Compare(a.W, b.W); c != 0 {
		return c
	}
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// elem returns x's union-find element in join: its piece, or its
// untouched component's, appended on first use.
func (m *Maintainer) elem(at uint64, x int) int32 {
	if m.nodeScr[x].seen == at {
		return m.nodeScr[x].piece
	}
	ls := &m.labelScr[m.label[x]]
	if ls.elemAt != at {
		ls.elemAt, ls.elem = at, int32(len(m.parent))
		m.parent = append(m.parent, ls.elem)
		m.rep = append(m.rep, int32(x))
	}
	return ls.elem
}

// find returns the root of union-find element x, halving paths.
func (m *Maintainer) find(x int32) int32 {
	for m.parent[x] != x {
		m.parent[x] = m.parent[m.parent[x]]
		x = m.parent[x]
	}
	return x
}

// relabelPieces gives each joined group one label. The pieces' old
// labels all empty out (every node of a label met in a piece lies in a
// piece). A group keeps its largest untouched component's label, or
// takes a new one, and smaller untouched components joined to the group
// are walked. It returns the adjacency visits the walks took.
func (m *Maintainer) relabelPieces() int {
	pieces := len(m.pieceAt) - 1
	for _, u := range m.nodes {
		m.shrinkLabel(m.label[u])
	}
	m.target = m.target[:0]
	for range m.parent {
		m.target = append(m.target, -1)
	}
	for c := pieces; c < len(m.parent); c++ {
		r, l := m.find(int32(c)), m.label[m.rep[c-pieces]]
		if t := m.target[r]; t < 0 || m.size[l] > m.size[t] {
			m.target[r] = l
		}
	}
	for p := 0; p < pieces; p++ {
		r := m.find(int32(p))
		if m.target[r] < 0 {
			m.target[r] = m.newLabel()
		}
		l := m.target[r]
		piece := m.nodes[m.pieceAt[p]:m.pieceAt[p+1]]
		for _, u := range piece {
			m.label[u] = l
		}
		m.size[l] += int32(len(piece))
	}
	visits := 0
	for c := pieces; c < len(m.parent); c++ {
		s := m.rep[c-pieces]
		if from, to := m.label[s], m.target[m.find(int32(c))]; from != to {
			visits += m.walkRelabel(s, from, to)
		}
	}
	return visits
}

// walkRelabel moves the untouched component of s, every node labeled
// from, to label to, and returns the adjacency visits it took.
func (m *Maintainer) walkRelabel(s, from, to int32) int {
	visits := 0
	m.label[s] = to
	m.walk = append(m.walk[:0], s)
	for len(m.walk) > 0 {
		u := m.walk[len(m.walk)-1]
		m.walk = m.walk[:len(m.walk)-1]
		nb := m.topo.Neighbors(int(u))
		visits += len(nb)
		for _, v := range nb {
			if m.label[v] == from {
				m.label[v] = to
				m.walk = append(m.walk, int32(v))
			}
		}
	}
	m.size[to] += m.size[from]
	m.size[from] = 0
	m.free = append(m.free, from)
	return visits
}

// crossingEdge returns a UDG edge whose endpoints carry different labels,
// by one disk query per node: the whole-instance check Restore runs
// once on a topology it did not build.
func (m *Maintainer) crossingEdge() (u, v int, ok bool) {
	pts := m.points()
	grid := m.eng.Grid()
	var buf []int
	for u := range pts {
		buf = grid.Within(pts[u], udg.Radius, buf[:0])
		for _, v := range buf {
			if m.label[v] != m.label[u] {
				return u, v, true
			}
		}
	}
	return 0, 0, false
}
