package gather

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestGoldenGreedyMinITree pins GreedyMinITree's parent array (FNV-64a
// over little-endian uint64 entries) on uniform instances, sparse to
// dense. The hashes were recorded before the builder moved onto the
// shared lazy-greedy engine, lower-bound pushes and read-only pricing.
func TestGoldenGreedyMinITree(t *testing.T) {
	for _, c := range []struct {
		n    int
		side float64
		sink int
		hash string
	}{
		{800, 4, 0, "f52f79661800afc5"},
		{600, 10, 5, "9ab5b95ac26753b3"},
		{500, 30, 3, "a1ae2ffe9d30bc05"},
	} {
		pts := gen.UniformSquare(rand.New(rand.NewSource(7)), c.n, c.side)
		h := fnv.New64a()
		var b [8]byte
		for _, p := range GreedyMinITree(pts, c.sink).Parent {
			binary.LittleEndian.PutUint64(b[:], uint64(p))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.hash {
			t.Errorf("n=%d side %v sink %d: hash %s, golden %s", c.n, c.side, c.sink, got, c.hash)
		}
	}
}
