package geom_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/oracle"
)

// TestGridMutationsAgainstBrute drives a randomized mix of in-place
// moves, arrivals, and departures through the grid and cross-checks
// Within and WithinAnnulus against the oracle's brute-force scans. Moves and
// queries deliberately land outside the construction bounding box: strays
// clamp into border cells, and a query centered entirely beyond the box
// must still scan the border line it projects onto (the clampRange
// regression — an empty cell range silently hid strays).
func TestGridMutationsAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []geom.Point
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Pt(rng.Float64()*2, rng.Float64()*2))
	}
	g := geom.NewGrid(append([]geom.Point(nil), pts...), 1)
	queries := 0
	for step := 0; step < 4000; step++ {
		switch roll := rng.Intn(10); {
		case roll < 5:
			g.Move(rng.Intn(g.Len()), geom.Pt(rng.Float64()*3-0.5, rng.Float64()*3-0.5))
		case roll < 7:
			g.Add(geom.Pt(rng.Float64()*3-0.5, rng.Float64()*3-0.5))
		case roll < 8:
			if g.Len() > 5 {
				g.Remove(rng.Intn(g.Len()))
			}
		default:
			queries++
			c := geom.Pt(rng.Float64()*3-0.5, rng.Float64()*3-0.5)
			r := rng.Float64() * 1.5
			got := sortedCopy(g.Within(c, r, nil))
			want := oracle.Within(g.Points(), c, r)
			if !equalInts(got, want) {
				t.Fatalf("step %d: Within(%v, %v) = %v, brute %v", step, c, r, got, want)
			}
			lo := r * rng.Float64()
			ga := sortedCopy(g.WithinAnnulus(c, lo, r, nil))
			wa := oracle.WithinAnnulus(g.Points(), c, lo, r)
			if !equalInts(ga, wa) {
				t.Fatalf("step %d: WithinAnnulus(%v, %v, %v) = %v, brute %v", step, c, lo, r, ga, wa)
			}
			if n := g.CountWithin(c, r); n != len(want) {
				t.Fatalf("step %d: CountWithin(%v, %v) = %d, brute %d", step, c, r, n, len(want))
			}
		}
	}
	if queries < 300 {
		t.Fatalf("only %d query steps — the mix is broken", queries)
	}
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
