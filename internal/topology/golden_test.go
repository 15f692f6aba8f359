package topology

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
)

// edgeHash is FNV-64a over the edge list in order: little-endian uint64
// U, V and the bits of W per edge.
func edgeHash(g *graph.Graph) string {
	h := fnv.New64a()
	var b [24]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint64(b[0:], uint64(e.U))
		binary.LittleEndian.PutUint64(b[8:], uint64(e.V))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(e.W))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenGreedy4096 pins GreedyMinI's output — edges, order, weight
// bits — on uniform n=4096 squares from sparse (side 64, ~2.4 expected
// neighbours) to dense (side 8, ~200). The hashes were recorded by the
// eager builder (today's oracle.GreedyMinI) before the lazy rewrite and
// must never be regenerated: a change here is a change of output.
func TestGoldenGreedy4096(t *testing.T) {
	golden := []struct {
		side float64
		seed int64
		hash string
	}{
		{64, 1, "7d4bd541e751ed0a"}, {64, 2, "2f008db3da4b3e30"},
		{25.6, 1, "4e99ad223cd30f56"}, {25.6, 2, "6ed4e426b323157a"},
		{12.8, 1, "6d344909cb3bc826"}, {12.8, 2, "a5729bcaf6d99f2f"},
		{8, 1, "062c731c1c38912d"}, {8, 2, "0fe7f84995e995d7"},
	}
	for _, c := range golden {
		pts := gen.UniformSquare(rand.New(rand.NewSource(c.seed)), 4096, c.side)
		if got := edgeHash(GreedyMinI(pts)); got != c.hash {
			t.Errorf("side %v seed %d: hash %s, golden %s", c.side, c.seed, got, c.hash)
		}
	}
}

// TestGoldenLazyGreedySiblings pins GreedySumI's and RCLISE's output the
// same way, on hashes recorded before they moved onto the shared
// lazy-greedy engine and grid neighbours.
func TestGoldenLazyGreedySiblings(t *testing.T) {
	uniform := func(n int, side float64) []geom.Point {
		return gen.UniformSquare(rand.New(rand.NewSource(7)), n, side)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		hash string
	}{
		{"GreedySumI n=800 side 12.8", GreedySumI(uniform(800, 12.8)), "077e6a14d2afc1f1"},
		{"GreedySumI n=400 side 4", GreedySumI(uniform(400, 4)), "5da630332fbcbcf9"},
		{"RCLISE n=300 side 6 t=2", RCLISE(uniform(300, 6), 2), "92590cd8e1b02486"},
	} {
		if got := edgeHash(c.g); got != c.hash {
			t.Errorf("%s: hash %s, golden %s", c.name, got, c.hash)
		}
	}
}
