package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestSpanCheckMatchesDijkstra: on random weighted graphs (zero-length
// and repeated weights, unreachable pairs), the bounded spanned test
// equals the full Dijkstra verdict d[v] <= bound for bounds below, at
// and above the true distance — with one spanCheck reused across graphs
// of different sizes, so stale stamped distances would show.
func TestSpanCheckMatchesDijkstra(t *testing.T) {
	var sc spanCheck
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := graph.New(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := []float64{0, 0.5, 1, rng.Float64() * 3}[rng.Intn(4)]
			g.AddEdge(u, v, w)
		}
		for q := 0; q < 10; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			d := g.Dijkstra(u)[v]
			bounds := []float64{rng.Float64() * 5, 0}
			if !math.IsInf(d, 1) {
				bounds = append(bounds, d, math.Nextafter(d, 0), math.Nextafter(d, 10))
			}
			for _, b := range bounds {
				want := d <= b && !math.IsInf(d, 1)
				if got := sc.within(g, u, v, b); got != want {
					t.Logf("seed %d: n=%d %d→%d bound %v: bounded %v, Dijkstra d=%v", seed, n, u, v, b, got, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
