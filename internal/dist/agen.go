package dist

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/udg"
)

// Distributed A_gen — 2 rounds, O(1) words per message.
//
// A_gen is presented in the paper as a centralized construction, but on a
// highway every unit segment is a clique of the UDG, so one position
// broadcast gives every node its entire segment: each node then computes
// the same hub assignment locally and declares exactly its own links.
// Cross-segment joining is local too: only adjacent segments can contain
// nodes within range, and the boundary nodes can identify each other
// among their neighbors (any closer candidate would also be a neighbor).
//
// The hub spacing ⌈√Δ⌉ needs the global maximum degree; in a deployment
// it is computed once by an aggregation flood, so the protocol takes it
// as a parameter (exp.DistProtocols derives it from the instance). AnchorX
// is the segment-grid origin — the paper anchors at the leftmost node;
// pass the instance minimum.
type AGenNode struct {
	id       int
	pos      geom.Point
	env      *Env
	spacing  int
	anchorX  float64
	segIndex int
}

// NewAGenNode returns a factory for distributed A_gen instances with the
// given hub spacing and segment anchor.
func NewAGenNode(spacing int, anchorX float64) func() Node {
	if spacing < 1 {
		panic("dist: AGen spacing must be >= 1")
	}
	return func() Node { return &AGenNode{spacing: spacing, anchorX: anchorX} }
}

type agenPos struct {
	X float64
}

// Init implements Node.
func (a *AGenNode) Init(id int, pos geom.Point, _ []int, env *Env) {
	a.id = id
	a.pos = pos
	a.env = env
	a.segIndex = int(math.Floor(pos.X - a.anchorX))
}

// member is a (position, id) pair ordered the way the centralized
// algorithm orders nodes: by coordinate, ties by id.
type member struct {
	x  float64
	id int
}

func sortMembers(ms []member) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].x != ms[j].x {
			return ms[i].x < ms[j].x
		}
		return ms[i].id < ms[j].id
	})
}

// Round implements Node.
func (a *AGenNode) Round(round int, inbox map[int]Message) bool {
	switch round {
	case 0:
		a.env.Broadcast(agenPos{X: a.pos.X})
		return false
	default:
		a.computeLinks(inbox)
		return true
	}
}

func (a *AGenNode) computeLinks(inbox map[int]Message) {
	seg := func(x float64) int { return int(math.Floor(x - a.anchorX)) }

	// Partition the visible world (me + neighbors) by segment.
	var mine []member        // my segment, includes me
	var left, right []member // adjacent segments
	mine = append(mine, member{a.pos.X, a.id})
	for from, m := range inbox {
		x := m.(agenPos).X
		switch seg(x) {
		case a.segIndex:
			mine = append(mine, member{x, from})
		case a.segIndex - 1:
			left = append(left, member{x, from})
		case a.segIndex + 1:
			right = append(right, member{x, from})
		}
	}
	sortMembers(mine)

	// My rank within the segment and the hub layout.
	n := len(mine)
	rank := -1
	for i, m := range mine {
		if m.id == a.id {
			rank = i
			break
		}
	}
	isHub := func(i int) bool { return i%a.spacing == 0 || i == n-1 }

	if n > 1 {
		if isHub(rank) {
			// Adjacent hubs.
			for i := rank - 1; i >= 0; i-- {
				if isHub(i) {
					a.env.DeclareLink(mine[i].id)
					break
				}
			}
			for i := rank + 1; i < n; i++ {
				if isHub(i) {
					a.env.DeclareLink(mine[i].id)
					break
				}
			}
			// Regular members whose nearest hub I am.
			for i, m := range mine {
				if isHub(i) {
					continue
				}
				if a.nearestHubOf(mine, i, isHub) == rank {
					a.env.DeclareLink(m.id)
				}
			}
		} else {
			a.env.DeclareLink(mine[a.nearestHubOf(mine, rank, isHub)].id)
		}
	}

	// Cross-segment joins: I am the rightmost of my segment and the
	// leftmost of the next segment is within range (and vice versa).
	if rank == n-1 && len(right) > 0 {
		sortMembers(right)
		first := right[0]
		if geom.InDisk(a.pos, udg.Radius, geom.Pt(first.x, a.pos.Y)) {
			a.env.DeclareLink(first.id)
		}
	}
	if rank == 0 && len(left) > 0 {
		sortMembers(left)
		last := left[len(left)-1]
		if geom.InDisk(a.pos, udg.Radius, geom.Pt(last.x, a.pos.Y)) {
			a.env.DeclareLink(last.id)
		}
	}
}

// nearestHubOf returns the index (within ms) of the nearest hub to the
// regular member at index i, ties resolved toward the left hub as in the
// centralized algorithm.
func (a *AGenNode) nearestHubOf(ms []member, i int, isHub func(int) bool) int {
	leftIdx, rightIdx := -1, -1
	for j := i - 1; j >= 0; j-- {
		if isHub(j) {
			leftIdx = j
			break
		}
	}
	for j := i + 1; j < len(ms); j++ {
		if isHub(j) {
			rightIdx = j
			break
		}
	}
	switch {
	case leftIdx < 0:
		return rightIdx
	case rightIdx < 0:
		return leftIdx
	}
	dl := ms[i].x - ms[leftIdx].x
	dr := ms[rightIdx].x - ms[i].x
	if dl <= dr {
		return leftIdx
	}
	return rightIdx
}
