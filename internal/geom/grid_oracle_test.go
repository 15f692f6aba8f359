package geom_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/oracle"
)

// The grid queries are checked against the oracle's O(n) scans, which
// share InDisk with the grid: the reference and the fast path apply one
// range rule.

func randomPoints(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	return pts
}

func TestGridWithinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(200)
		pts := randomPoints(rng, n, 10, 10)
		g := geom.NewGrid(pts, 1)
		for q := 0; q < 10; q++ {
			c := geom.Pt(rng.Float64()*12-1, rng.Float64()*12-1)
			r := rng.Float64() * 3
			if q == 0 {
				r = -1 // an empty disk, for the grid and the oracle alike
			}
			got := sortedCopy(g.Within(c, r, nil))
			want := oracle.Within(pts, c, r)
			if !equalInts(got, want) {
				t.Fatalf("trial %d: Within(%v, %v) = %v, brute %v", trial, c, r, got, want)
			}
			if cn := g.CountWithin(c, r); cn != len(want) {
				t.Fatalf("trial %d: CountWithin = %d, want %d", trial, cn, len(want))
			}
		}
	}
}

func TestWithinAnnulusMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPoints(rng, 400, 8, 8)
	g := geom.NewGrid(pts, 0.5)
	for trial := 0; trial < 300; trial++ {
		c := geom.Pt(rng.Float64()*10-1, rng.Float64()*10-1)
		hi := rng.Float64() * 6
		lo := hi * rng.Float64()
		if trial%7 == 0 {
			lo = 0 // degenerate annulus = full disk
		}
		if trial%11 == 0 {
			c = pts[rng.Intn(len(pts))] // centered on an indexed point
		}
		if trial%13 == 0 {
			hi = -1 // a negative outer radius: empty
		}
		got := sortedCopy(g.WithinAnnulus(c, lo, hi, nil))
		want := oracle.WithinAnnulus(pts, c, lo, hi)
		if !equalInts(got, want) {
			t.Fatalf("trial %d: annulus(%v,%g,%g) = %v, brute %v", trial, c, lo, hi, got, want)
		}
	}
}

func TestGridAddRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 50, 4, 4)
	g := geom.NewGrid(pts, 0.5)
	live := append([]geom.Point(nil), pts...)
	for step := 0; step < 400; step++ {
		switch {
		case len(live) < 5 || rng.Float64() < 0.55:
			var p geom.Point
			if rng.Float64() < 0.2 {
				p = geom.Pt(rng.Float64()*20-8, rng.Float64()*20-8) // often out of bounds
			} else {
				p = geom.Pt(rng.Float64()*4, rng.Float64()*4)
			}
			if idx := g.Add(p); idx != len(live) {
				t.Fatalf("step %d: Add index %d, want %d", step, idx, len(live))
			}
			live = append(live, p)
		default:
			idx := rng.Intn(len(live))
			g.Remove(idx)
			live = append(live[:idx], live[idx+1:]...)
		}
		if g.Len() != len(live) {
			t.Fatalf("step %d: Len %d, want %d", step, g.Len(), len(live))
		}
		if step%13 == 0 {
			c := geom.Pt(rng.Float64()*6-1, rng.Float64()*6-1)
			r := rng.Float64() * 5
			if got, want := sortedCopy(g.Within(c, r, nil)), oracle.Within(live, c, r); !equalInts(got, want) {
				t.Fatalf("step %d: Within %v vs brute %v", step, got, want)
			}
			lo := r * rng.Float64()
			if got, want := sortedCopy(g.WithinAnnulus(c, lo, r, nil)), oracle.WithinAnnulus(live, c, lo, r); !equalInts(got, want) {
				t.Fatalf("step %d: annulus %v vs brute %v", step, got, want)
			}
			// Nearest stays correct under churn, including strays.
			i := rng.Intn(len(live))
			gi, _ := g.Nearest(i)
			bi, _ := oracle.Nearest(live, i)
			if gi != bi {
				t.Fatalf("step %d: Nearest(%d) = %d, brute %d", step, i, gi, bi)
			}
		}
	}
}

func TestGridNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(150)
		pts := randomPoints(rng, n, 8, 3)
		g := geom.NewGrid(pts, 0.7)
		for i := 0; i < n; i++ {
			gi, gd := g.Nearest(i)
			bi, bd := oracle.Nearest(pts, i)
			if gi != bi {
				// Equal distances with different indices are a tie-break bug.
				t.Fatalf("trial %d point %d: Nearest = %d (%v), brute = %d (%v)", trial, i, gi, gd, bi, bd)
			}
			if math.Abs(gd-bd) > 1e-12 {
				t.Fatalf("trial %d point %d: distance %v vs %v", trial, i, gd, bd)
			}
		}
	}
}

func TestGridExponentialSpread(t *testing.T) {
	// The exponential node chain concentrates points near the origin while
	// spanning a large extent; verify the grid still answers correctly.
	pts := make([]geom.Point, 20)
	x := 0.0
	for i := range pts {
		pts[i] = geom.Pt(x, 0)
		x += math.Pow(2, float64(i)) * 1e-5
	}
	g := geom.NewGrid(pts, 0.01)
	for i := range pts {
		gi, _ := g.Nearest(i)
		bi, _ := oracle.Nearest(pts, i)
		if gi != bi {
			t.Fatalf("point %d: Nearest = %d, brute = %d", i, gi, bi)
		}
	}
	all := g.Within(geom.Pt(0, 0), x, nil)
	if len(all) != len(pts) {
		t.Fatalf("Within full radius found %d of %d", len(all), len(pts))
	}
}
