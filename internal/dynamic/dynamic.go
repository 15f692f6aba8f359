// Package dynamic maintains a low-interference topology online, under
// node arrivals and departures, without rebuilding from scratch on every
// event — the engineering payoff of the measure's robustness property.
//
// The maintainer applies cheap local rules per event and keeps the exact
// interference bookkeeping incrementally:
//
//   - Arrival: the newcomer links to its nearest neighbor when
//     geom.InDisk puts it within unit range (one new edge, a udg.Build
//     edge; the nearest neighbor raises its radius just enough to
//     answer).
//     Receiver-centric interference of any existing node grows by at
//     most 1 from the newcomer's own disk, plus whatever the single
//     answering radius increase adds — a local, bounded change, exactly
//     the behavior Figure 1 shows the sender-centric measure lacks.
//   - Departure: the node's edges vanish; its former neighbors shrink
//     their radii to their remaining farthest neighbors. If the victim
//     was a cut vertex of the maintained topology, the maintainer
//     reconnects the pieces with the shortest available UDG edges
//     between them (a local repair, not a rebuild).
//
// Every event is an evaluator delta: a persistent core.Evaluator carries
// the point set, the per-node interference vector, and I(G') across
// events, so an arrival costs the newcomer's disk query plus the
// answering node's annulus, and a departure costs the shrinking annuli
// plus an O(n) index shift — never a full re-evaluation. The maintained
// I(G') is therefore O(1) to read after every event.
//
// Settling: arrivals, departures and moves latch the connectivity repair
// and drift check they owe, and one routine pays them — right after the
// operation, or once at EndBatch under BeginBatch. Every topology edge
// is a UDG edge, so the repair's crossing-edge search is also the whole
// "topology matches the UDG" check. The search is local too: the
// maintainer keeps a component label per node and each node's UDG
// neighbour list (built on first use, patched by the one disk query an
// arrival or move makes), the operations record the nodes whose edges
// they changed, and a settle walks the components of those nodes only,
// one plain breadth-first walk each, then reads the neighbour lists of
// the nodes a crossing edge can start from — never the whole instance,
// and no disk query for a listed node.
//
// Drift control: local rules accumulate suboptimality, so the
// maintainer tracks I(G') incrementally and rebuilds with the greedy
// constructor when the maintained value exceeds RebuildFactor times the
// last rebuild's value, or when arrivals merged UDG components the
// topology keeps apart. The X8-style test measures how rarely that
// fires.
package dynamic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/topology"
	"repro/internal/udg"
)

// Engine is the incremental-evaluator surface the maintainer drives.
// It is an alias for core.Measure: *core.Evaluator implements it for
// the graph measure, phys.Evaluator for the physical (SINR) model, and
// the differential oracle's DiffEvaluator shadows either one behind
// the same surface, so a whole maintenance (or serving) pipeline
// can run against any measure without code changes.
type Engine = core.Measure

var _ Engine = (*core.Evaluator)(nil)

// EngineFactory builds the engine for an instance; the maintainer calls
// it at construction and again on every full rebuild. It is an alias
// for core.MeasureFactory so factories flow into opt's *With searchers
// unchanged.
type EngineFactory = core.MeasureFactory

// EventKind labels a maintainer event for hook consumers.
type EventKind uint8

const (
	EventInsert EventKind = iota + 1
	EventRemove
	EventSetRadius
	EventAnneal
	EventRebuild
	EventMove
)

// String names the kind for traces and logs.
func (k EventKind) String() string {
	switch k {
	case EventInsert:
		return "insert"
	case EventRemove:
		return "remove"
	case EventSetRadius:
		return "set-radius"
	case EventAnneal:
		return "anneal"
	case EventRebuild:
		return "rebuild"
	case EventMove:
		return "move"
	}
	return "unknown"
}

// Event is the notification delivered to OnEvent after each applied
// operation. Index is the affected node for Insert/Remove/SetRadius
// (-1 otherwise); Max is the maintained I(G') after the operation,
// read before the settle's repair and drift check (a rebuild fires its
// own EventRebuild).
type Event struct {
	Kind  EventKind
	Index int
	Max   int
}

// Maintainer holds the evolving instance and topology.
type Maintainer struct {
	// RebuildFactor triggers a full greedy rebuild when the maintained
	// interference exceeds factor × the post-rebuild baseline. <= 1
	// disables maintenance (rebuild every event); 0 means the default 2.
	RebuildFactor float64

	// OnEvent, when non-nil, is called synchronously after every applied
	// operation (and after every full rebuild, including those triggered
	// mid-operation by drift control). The serving pipeline hooks its
	// metrics and trace recording here.
	OnEvent func(Event)

	// OnTouch, when non-nil, is called synchronously for every radius the
	// maintainer changes through the engine — the newcomer's answer
	// radius and its neighbor's growth on Insert, the neighbor shrinks
	// and the vanished disk on Remove, repair-edge growth, and expert
	// SetRadius overrides. Each call reports the node's position and the
	// larger of its old and new radius: the disk within which any other
	// node's received interference may have changed. Anneal and full
	// rebuilds do NOT report touches — consumers must treat the
	// EventAnneal/EventRebuild notifications as "everything dirty". The
	// serving layer accumulates these into its per-batch dirty summary.
	OnTouch func(at geom.Point, r float64)

	factory  EngineFactory
	eng      Engine
	topo     *graph.Graph
	baseline int // I(G') right after the last rebuild
	rebuilds int
	events   int

	// Settling (see settle): Insert, Remove and Move latch the
	// connectivity repair and drift check they owe here; settle pays
	// them at once, or at EndBatch while deferring, so a batch of k
	// operations pays for one connectivity pass instead of k.
	deferring  bool
	needRepair bool
	needCheck  bool

	// Component labels and the changes recorded since the last settle
	// (see settle.go).
	label   []int32
	size    []int32
	free    []int32
	touched []int32
	moved   []int32

	// nbr[u] lists u's UDG neighbours, {v ≠ u : geom.InDisk(p_u,
	// udg.Radius, p_v)} in no particular order, or is nil until u's
	// first use (see settle.go).
	nbr [][]int32

	// Settle scratch, stamped and reused so a settle allocates nothing
	// in steady state.
	stamp    uint64
	nodeScr  []nodeScratch
	labelScr []labelScratch
	nodes    []int32 // walked pieces, concatenated
	pieceAt  []int32 // piece p is nodes[pieceAt[p]:pieceAt[p+1]]
	plabels  []int32 // old labels met in the piece being walked
	query    []int32
	buf      []int
	cross    []graph.Edge
	lightest map[uint64]int32 // element pair -> its edge's index in cross
	parent   []int32          // union-find over pieces, then untouched components
	rep      []int32          // a node of each untouched component in parent
	target   []int32
	walk     []int32
	moveScr  []int // Move's copy of the node's topology neighbours
	gone     []int // Remove's list of the victim's former neighbours
}

// New starts a maintainer over the initial instance, built with the
// greedy constructor and the production core.Evaluator engine.
func New(pts []geom.Point, rebuildFactor float64) *Maintainer {
	return NewWithEngine(pts, rebuildFactor, nil)
}

// NewWithEngine is New with an explicit engine factory (nil selects
// core.NewEvaluator). Tests pass a factory returning the oracle's
// DiffEvaluator to shadow-check every maintenance op.
func NewWithEngine(pts []geom.Point, rebuildFactor float64, factory EngineFactory) *Maintainer {
	m := newMaintainer(rebuildFactor, factory)
	m.nbr = make([][]int32, len(pts))
	m.rebuild(pts)
	return m
}

// newMaintainer applies the defaults New and Restore share: RebuildFactor
// 0 means 2, a nil factory means core.GraphMeasure.
func newMaintainer(rebuildFactor float64, factory EngineFactory) *Maintainer {
	m := &Maintainer{RebuildFactor: rebuildFactor, factory: factory}
	if m.RebuildFactor == 0 {
		m.RebuildFactor = 2
	}
	if m.factory == nil {
		m.factory = core.GraphMeasure
	}
	return m
}

// RestoreState is a behavioral snapshot of a Maintainer: everything a
// Restore needs to continue exactly where the source left off — same
// maintained topology, same radii, same drift baseline, same counters.
// The serving layer's checkpoint files serialize this.
type RestoreState struct {
	Points   []geom.Point
	Radii    []float64
	Edges    []graph.Edge
	Baseline int
	Events   int
	Rebuilds int
}

// Snapshot captures the maintainer's full behavioral state. The returned
// slices are copies; mutating them does not affect the maintainer.
func (m *Maintainer) Snapshot() RestoreState {
	var st core.State
	m.eng.ExportState(&st)
	return RestoreState{
		Points:   st.Points,
		Radii:    st.Radii,
		Edges:    append([]graph.Edge(nil), m.topo.Edges()...),
		Baseline: m.baseline,
		Events:   m.events,
		Rebuilds: m.rebuilds,
	}
}

// Restore reconstructs a maintainer from a Snapshot without running the
// greedy constructor: the engine is built from the snapshot's points and
// radii, the topology from its edge list, and the drift baseline and
// counters carry over. A restored maintainer is behaviorally identical
// to the one snapshotted — the crash-recovery property test holds it
// against a from-scratch replay. nil factory selects core.NewEvaluator.
//
// Restore returns an error, never panics, on a state no maintainer can
// be in: NaN, infinite or negative radii, edges out of range,
// self-loops, edges that are not UDG edges, or a topology whose
// partition differs from the UDG's (one disk query per node). Snapshots are taken between
// batches, where the settle has made the partitions agree.
func Restore(st RestoreState, rebuildFactor float64, factory EngineFactory) (*Maintainer, error) {
	if len(st.Radii) != len(st.Points) {
		return nil, fmt.Errorf("dynamic: restore: %d radii for %d points", len(st.Radii), len(st.Points))
	}
	m := newMaintainer(rebuildFactor, factory)
	for i, r := range st.Radii {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return nil, fmt.Errorf("dynamic: restore: node %d has radius %v", i, r)
		}
	}
	m.topo = graph.New(len(st.Points))
	for _, e := range st.Edges {
		switch {
		case e.U < 0 || e.U >= len(st.Points) || e.V < 0 || e.V >= len(st.Points):
			return nil, fmt.Errorf("dynamic: restore: edge (%d,%d) out of range for %d points", e.U, e.V, len(st.Points))
		case e.U == e.V:
			return nil, fmt.Errorf("dynamic: restore: self-loop at node %d", e.U)
		case !geom.InDisk(st.Points[e.U], udg.Radius, st.Points[e.V]):
			return nil, fmt.Errorf("dynamic: restore: edge (%d,%d) is not a UDG edge", e.U, e.V)
		}
		m.topo.AddEdge(e.U, e.V, e.W)
	}
	m.eng = m.factory(st.Points)
	m.eng.BatchSet(st.Radii, 0)
	m.nbr = make([][]int32, len(st.Points))
	m.relabel()
	if u, v, ok := m.crossingEdge(); ok {
		return nil, fmt.Errorf("dynamic: restore: UDG edge (%d,%d) crosses two topology components", u, v)
	}
	m.baseline = st.Baseline
	m.events = st.Events
	m.rebuilds = st.Rebuilds
	return m, nil
}

// points returns the current instance (shared with the evaluator; treat
// as read-only).
func (m *Maintainer) points() []geom.Point { return m.eng.Points() }

// Engine returns the maintainer's evaluator engine (shared; callers must
// not mutate it behind the maintainer's back — use the maintenance ops).
// The serving layer reads snapshots through Engine().ExportState.
func (m *Maintainer) Engine() Engine { return m.eng }

// Points returns a snapshot of the current instance.
func (m *Maintainer) Points() []geom.Point {
	return append([]geom.Point(nil), m.points()...)
}

// Topology returns the maintained topology (shared; treat as read-only).
func (m *Maintainer) Topology() *graph.Graph { return m.topo }

// Interference returns the maintained I(G'), read from the incremental
// evaluator in O(1).
func (m *Maintainer) Interference() int { return m.eng.Max() }

// Rebuilds returns how many full rebuilds have happened (including the
// initial construction).
func (m *Maintainer) Rebuilds() int { return m.rebuilds }

// Events returns how many arrivals/departures were applied.
func (m *Maintainer) Events() int { return m.events }

func (m *Maintainer) rebuild(pts []geom.Point) {
	sp := obs.Start("dynamic.rebuild")
	defer sp.End()
	if obs.On() {
		obsRebuilds.Inc()
	}
	m.topo = topology.GreedyMinI(pts)
	m.relabel()
	m.eng = m.factory(pts)
	m.eng.BatchSet(core.Radii(pts, m.topo), 0)
	m.baseline = m.eng.Max()
	m.rebuilds++
	m.fire(Event{Kind: EventRebuild, Index: -1, Max: m.baseline})
}

func (m *Maintainer) fire(ev Event) {
	if m.OnEvent != nil {
		m.OnEvent(ev)
	}
}

// touch reports a changed coverage disk to OnTouch. r is the larger of
// the node's old and new radius, so the disk over-approximates every
// receiver whose interference the change can have altered.
func (m *Maintainer) touch(at geom.Point, r float64) {
	if m.OnTouch != nil {
		m.OnTouch(at, r)
	}
}

// Insert adds a node and returns its index. The newcomer links to its
// nearest in-range neighbor (if any); out-of-range newcomers start a new
// component, which is correct — the UDG is disconnected there too.
func (m *Maintainer) Insert(p geom.Point) int {
	sp := obs.Start("dynamic.insert")
	defer sp.End()
	if obs.On() {
		obsEvents.Inc()
	}
	m.events++
	idx := m.eng.AddPoint(p)
	// The topology grows in place. Rethread puts every adjacency list in
	// edge-list order, as the edge-by-edge copy that used to grow it did:
	// Move drops a node's edges in adjacency order, and the edge list's
	// order after those swap-removes is part of the maintained output.
	m.topo.AddNode()
	m.topo.Rethread()
	l := m.newLabel()
	m.size[l] = 1
	m.label = append(m.label, l)
	m.moved = append(m.moved, int32(idx))
	m.nbr = append(m.nbr, nil)
	m.link(idx, m.place(idx, p))
	// The newcomer's own disk (radius 0 when no neighbor answered —
	// still a disk: coincident nodes are covered at distance zero).
	m.touch(p, m.eng.Radius(idx))
	m.needCheck = true
	m.fire(Event{Kind: EventInsert, Index: idx, Max: m.eng.Max()})
	m.settle()
	return idx
}

// link joins the newcomer (or moved node) idx to best, its nearest
// in-range neighbor as place found it: one topology edge, idx's radius
// set to reach it, and the neighbor's radius grown to answer. best < 0
// (nothing in range) leaves idx unlinked.
func (m *Maintainer) link(idx, best int) {
	if best < 0 {
		return
	}
	pts := m.points()
	d := pts[idx].Dist(pts[best])
	m.topo.AddEdge(idx, best, d)
	m.record(idx, best)
	m.eng.SetRadius(idx, d)
	old := m.eng.GrowTo(best, d)
	m.touch(pts[best], math.Max(old, d))
}

// shrink lowers v's radius to its farthest topology neighbor other than
// gone, the node whose edges are going away (Remove still has them in
// the topology; Move has already dropped them).
func (m *Maintainer) shrink(v, gone int) {
	far := 0.0
	for _, w := range m.topo.Neighbors(v) {
		if w == gone {
			continue
		}
		if d, ok := m.topo.EdgeWeight(v, w); ok && d > far {
			far = d
		}
	}
	old := m.eng.SetRadius(v, far)
	m.touch(m.points()[v], math.Max(old, far))
}

// Remove deletes the node at index idx (indices above shift down by one,
// matching slice semantics). It panics on out-of-range indices.
func (m *Maintainer) Remove(idx int) {
	if idx < 0 || idx >= len(m.points()) {
		panic(fmt.Sprintf("dynamic: remove index %d out of range", idx))
	}
	sp := obs.Start("dynamic.remove")
	defer sp.End()
	if obs.On() {
		obsEvents.Inc()
	}
	m.events++
	// The victim's disk vanishes: every receiver it covered is dirty.
	m.touch(m.points()[idx], m.eng.Radius(idx))
	// The victim's former neighbors shrink to their remaining farthest
	// neighbor; each shrink is one annulus update.
	for _, v := range m.topo.Neighbors(idx) {
		m.shrink(v, idx)
	}
	m.eng.RemovePoint(idx)
	m.forget(idx)
	m.dropNbrs(idx)
	// Delete the victim from the topology in place, indices shifting
	// down; its former neighbors are touched.
	m.gone = m.topo.DeleteNode(idx, m.gone[:0])
	for _, v := range m.gone {
		m.touched = append(m.touched, int32(v))
	}
	m.needRepair, m.needCheck = true, true
	m.fire(Event{Kind: EventRemove, Index: idx, Max: m.eng.Max()})
	m.settle()
}

// SetRadius overrides node idx's transmission radius through the engine
// and returns the previous value. The override is advisory: the
// maintained topology is left untouched (a radius below the farthest
// topology neighbor makes that edge unrealizable until the next rebuild),
// and any later event's drift control may rebuild over it. It exists for
// the serving pipeline's expert set-radius mutation. Panics on negative
// radii or out-of-range indices, mirroring the engine's contract.
func (m *Maintainer) SetRadius(idx int, r float64) float64 {
	if idx < 0 || idx >= len(m.points()) {
		panic(fmt.Sprintf("dynamic: set-radius index %d out of range", idx))
	}
	sp := obs.Start("dynamic.set-radius")
	defer sp.End()
	if obs.On() {
		obsEvents.Inc()
	}
	m.events++
	old := m.eng.SetRadius(idx, r)
	m.touch(m.points()[idx], math.Max(old, r))
	m.fire(Event{Kind: EventSetRadius, Index: idx, Max: m.eng.Max()})
	return old
}

// Anneal runs the simulated-annealing optimizer over the current instance
// for iters iterations (seeded deterministically by seed) and adopts the
// resulting radius assignment and topology wholesale, resetting the drift
// baseline. It returns the new maintained I(G'). Instances with fewer
// than two nodes are a no-op.
func (m *Maintainer) Anneal(seed int64, iters int) int {
	sp := obs.Start("dynamic.anneal")
	defer sp.End()
	if obs.On() {
		obsEvents.Inc()
	}
	m.events++
	if len(m.points()) >= 2 && iters > 0 {
		// Optimize against the session's own measure: a physical-model
		// maintainer anneals the SINR objective, not the disk counts.
		res := opt.AnnealWith(m.factory, m.points(), rand.New(rand.NewSource(seed)), iters)
		m.eng.BatchSet(res.Radii, 0)
		m.topo = opt.RealizeForest(m.points(), res.Radii)
		m.relabel()
		m.baseline = m.eng.Max()
	}
	m.fire(Event{Kind: EventAnneal, Index: -1, Max: m.eng.Max()})
	return m.eng.Max()
}

// Move relocates node idx to p, preserving its index — the serving
// layer's waypoint-churn primitive. Semantically it matches Remove
// followed by Insert at the new position (old edges drop, former
// neighbors shrink to their remaining farthest neighbor, the node
// re-links to its nearest in-range neighbor), but costs only the touched
// disks: no index shift, no topology copy, and — under BeginBatch — no
// per-operation connectivity pass.
func (m *Maintainer) Move(idx int, p geom.Point) {
	if idx < 0 || idx >= len(m.points()) {
		panic(fmt.Sprintf("dynamic: move index %d out of range", idx))
	}
	sp := obs.Start("dynamic.move")
	defer sp.End()
	if obs.On() {
		obsEvents.Inc()
	}
	m.events++
	// The disk leaves its old position: everyone it covered there is
	// dirty, capped by the node's former radius.
	m.touch(m.points()[idx], m.eng.Radius(idx))
	// Former neighbors shrink exactly as on Remove.
	m.moveScr = append(m.moveScr[:0], m.topo.Neighbors(idx)...)
	for _, v := range m.moveScr {
		m.topo.RemoveEdge(idx, v)
		m.record(idx, v)
	}
	for _, v := range m.moveScr {
		m.shrink(v, idx)
	}
	// Silence before relocating so the engine's move pays only the
	// receiver-side recount, then re-link like an arrival.
	m.unplace(idx)
	m.eng.SetRadius(idx, 0)
	m.eng.MovePoint(idx, p)
	m.link(idx, m.place(idx, p))
	m.moved = append(m.moved, int32(idx))
	m.touch(p, m.eng.Radius(idx))
	m.needRepair, m.needCheck = true, true
	m.fire(Event{Kind: EventMove, Index: idx, Max: m.eng.Max()})
	m.settle()
}

// BeginBatch defers connectivity repair and drift control until the
// matching EndBatch, so a batch of k mutations pays one settle instead
// of k (a settle explores every topology component the batch touched,
// and a component several operations touch is explored once).
// Interference bookkeeping stays exact throughout — only reconnection and
// rebuild decisions are postponed, so mid-batch the maintained topology
// may transiently disagree with the UDG's component structure. Event.Max
// is read before the settle in and out of a batch alike; with
// RebuildFactor <= 1 ("rebuild every event") a deferred batch rebuilds
// once, at EndBatch. Batches do not nest.
func (m *Maintainer) BeginBatch() {
	if m.deferring {
		panic("dynamic: nested BeginBatch")
	}
	m.deferring = true
}

// EndBatch settles what the batch's operations deferred since
// BeginBatch: one connectivity repair and one drift check.
func (m *Maintainer) EndBatch() {
	if !m.deferring {
		panic("dynamic: EndBatch without BeginBatch")
	}
	m.deferring = false
	m.settle()
}

// settle pays the connectivity repair and drift check latched by Insert,
// Remove and Move — at once outside a batch, at EndBatch inside one. Every
// topology edge is a udg.Build edge (arrivals link within geom.InDisk's
// unit range, repairs join UDG edges, rebuilds and anneals build UDG
// subgraphs), so the topology's partition matches the UDG's iff no UDG
// edge crosses two topology components. A due repair joins the crossing
// edges; when none is due (only arrivals since the last settle), a
// crossing edge means an arrival merged two UDG components the topology
// still keeps apart, and drift control rebuilds. repairConnectivity
// finds the crossing edges from the recorded changes and the maintained
// component labels, in time proportional to the components the changes
// touched (settle.go).
func (m *Maintainer) settle() {
	if m.deferring || !m.needCheck {
		return
	}
	repair := m.needRepair
	m.needRepair, m.needCheck = false, false
	split := m.repairConnectivity(repair)
	if m.RebuildFactor <= 1 || split ||
		float64(m.eng.Max()) > m.RebuildFactor*float64(m.baseline)+1e-9 {
		m.rebuild(m.points())
	}
}
