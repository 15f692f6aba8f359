package dynamic_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/mobility"
)

// settleHash is the FNV-64a of everything a settle decides: the
// topology edge list in order, every radius's bits, I(G') and the
// rebuild count.
func settleHash(m *dynamic.Maintainer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, e := range m.Topology().Edges() {
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.W))
	}
	eng := m.Engine()
	for i := 0; i < eng.N(); i++ {
		put(math.Float64bits(eng.Radius(i)))
	}
	put(uint64(m.Interference()))
	put(uint64(m.Rebuilds()))
	return h.Sum64()
}

// liveChurnReplay is rimbench live_churn's shape driven straight into a
// maintainer: n=4096 waypoint nodes on a 64 square (~3 expected
// neighbours, below percolation), 600 batches of at most 64 moves, and
// one leave plus one join every 25 batches. end closes each batch.
func liveChurnReplay(seed int64, end func(*dynamic.Maintainer)) *dynamic.Maintainer {
	const n, side, batches, movers, every = 4096, 64, 600, 64, 25
	rng := rand.New(rand.NewSource(seed))
	model := mobility.NewWaypoint(rng, n, side, side, 0.5, 3.0, 1.0)
	m := dynamic.New(model.Positions(), 0)
	at := make([]int, n) // model node -> maintainer index, -1 once left
	for i := range at {
		at[i] = i
	}
	var moved []int
	rot := 0
	for b := 0; b < batches; b++ {
		moved = model.StepInto(0.01, moved[:0])
		m.BeginBatch()
		k := min(len(moved), movers)
		for j := 0; j < k; j++ {
			if i := moved[(rot+j)%len(moved)]; at[i] >= 0 {
				m.Move(at[i], model.At(i))
			}
		}
		rot += k
		if b%every == every-1 {
			v := rng.Intn(n)
			for at[v] < 0 {
				v = rng.Intn(n)
			}
			gone := at[v]
			m.Remove(gone)
			for i := range at {
				if at[i] > gone {
					at[i]--
				}
			}
			at[v] = -1
			m.Insert(geom.Pt(rng.Float64()*side, rng.Float64()*side))
		}
		end(m)
	}
	return m
}

// recoverReplay is rimbench recover's shape: n=4096 uniform on a 25.6
// square, 160 batches of 32 operations, 15 SetRadius and the rest
// teleporting moves, with every 8th batch trading a SetRadius for one
// join and one leave. end closes each batch.
func recoverReplay(seed int64, end func(*dynamic.Maintainer)) *dynamic.Maintainer {
	const n, side, batches, ops, sets, joinEvery = 4096, 25.6, 160, 32, 15, 8
	const (
		opMove = iota
		opSet
		opJoin
		opLeave
	)
	rng := rand.New(rand.NewSource(seed))
	m := dynamic.New(gen.UniformSquare(rng, n, side), 0)
	for b := 0; b < batches; b++ {
		kinds := make([]int, 0, ops)
		joins := 0
		if b%joinEvery == joinEvery-1 {
			joins = 1
			kinds = append(kinds, opJoin, opLeave)
		}
		for k := 0; k < sets-joins; k++ {
			kinds = append(kinds, opSet)
		}
		for len(kinds) < ops {
			kinds = append(kinds, opMove)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		m.BeginBatch()
		for _, k := range kinds {
			cur := m.Engine().N()
			switch k {
			case opJoin:
				m.Insert(geom.Pt(rng.Float64()*side, rng.Float64()*side))
			case opLeave:
				m.Remove(rng.Intn(cur))
			case opSet:
				m.SetRadius(rng.Intn(cur), 0.05+rng.Float64()*0.45)
			default:
				m.Move(rng.Intn(cur), geom.Pt(rng.Float64()*side, rng.Float64()*side))
			}
		}
		end(m)
	}
	return m
}

// TestGoldenSettle4096 pins the settle's output at full size, where the
// property tests do not reach: seeded live_churn- and recover-shaped
// replays must end in the same topology (edge order included), radii,
// I(G') and rebuild count as the global crossing scan produced. The
// hashes were recorded with that scan and must not be regenerated.
func TestGoldenSettle4096(t *testing.T) {
	golden := []struct {
		shape        string
		seed         int64
		interference int
		rebuilds     int
		hash         uint64
	}{
		{"live_churn", 1, 8, 1, 0x4f182e835ccf34e0},
		{"live_churn", 2, 7, 1, 0x2b56829c8018b872},
		{"live_churn", 3, 7, 1, 0x3af2659177d61832},
		{"recover", 1, 7, 1, 0x10098ef812626099},
		{"recover", 2, 8, 1, 0x68fba8a2caccdd60},
		{"recover", 3, 7, 1, 0xe975a82218fb7e29},
	}
	for _, g := range golden {
		var m *dynamic.Maintainer
		if g.shape == "live_churn" {
			m = liveChurnReplay(g.seed, (*dynamic.Maintainer).EndBatch)
		} else {
			m = recoverReplay(g.seed, (*dynamic.Maintainer).EndBatch)
		}
		if got, h := m.Interference(), settleHash(m); got != g.interference || m.Rebuilds() != g.rebuilds || h != g.hash {
			t.Errorf("%s seed %d: I=%d rebuilds=%d hash %#016x; golden I=%d rebuilds=%d hash %#016x",
				g.shape, g.seed, got, m.Rebuilds(), h, g.interference, g.rebuilds, g.hash)
		}
	}
}
