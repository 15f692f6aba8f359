package dynamic

import "fmt"

// Test-only access for the external dynamic_test package.

// ShellPoint exposes shellPoint: a point on the range shell of c.
var ShellPoint = shellPoint

// LabelsErr reports how the maintained component labels fail to induce
// the topology's Components partition, with exact sizes and a free list
// of exactly the empty ids; nil when they do.
func LabelsErr(m *Maintainer) error {
	tl, _ := m.topo.Components()
	if len(m.label) != len(tl) {
		return fmt.Errorf("dynamic: %d labels for %d nodes", len(m.label), len(tl))
	}
	fwd := map[int32]int{}
	back := map[int]int32{}
	count := make([]int32, len(m.size))
	for u, l := range m.label {
		if f, ok := fwd[l]; ok && f != tl[u] {
			return fmt.Errorf("dynamic: label %d spans two components (node %d)", l, u)
		}
		if b, ok := back[tl[u]]; ok && b != l {
			return fmt.Errorf("dynamic: component of node %d carries labels %d and %d", u, b, l)
		}
		fwd[l], back[tl[u]] = tl[u], l
		count[l]++
	}
	free := map[int32]bool{}
	for _, l := range m.free {
		free[l] = true
	}
	for l, c := range count {
		if m.size[l] != c {
			return fmt.Errorf("dynamic: label %d has size %d, counts %d nodes", l, m.size[l], c)
		}
		if (c == 0) != free[int32(l)] {
			return fmt.Errorf("dynamic: label %d with %d nodes free=%v", l, c, free[int32(l)])
		}
	}
	if len(free) != len(m.free) {
		return fmt.Errorf("dynamic: free list holds duplicates")
	}
	return nil
}

// Nbrs returns node u's maintained UDG neighbour list and whether it is
// built.
func Nbrs(m *Maintainer, u int) ([]int32, bool) { return m.nbr[u], m.nbr[u] != nil }

// BuildNbrs builds every node's neighbour list, so later operations must
// patch all of them.
func BuildNbrs(m *Maintainer) {
	for u := range m.nbr {
		m.nbrs(u)
	}
}
