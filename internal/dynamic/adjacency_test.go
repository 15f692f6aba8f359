package dynamic_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/oracle"
)

// nbrsErr reports the first built neighbour list that differs, as a set,
// from node u's neighbourhood in oracle.UDG; nil when all agree.
func nbrsErr(m *dynamic.Maintainer) error {
	pts := m.Points()
	udg := oracle.UDG(pts)
	for u := range pts {
		got, built := dynamic.Nbrs(m, u)
		if !built {
			continue
		}
		want := make([]int32, 0, udg.Degree(u))
		for _, v := range udg.Neighbors(u) {
			want = append(want, int32(v))
		}
		got = slices.Clone(got)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("node %d of %d: list %v, UDG neighbours %v", u, len(pts), got, want)
		}
	}
	return nil
}

// rangeShell returns a point at one of the distances from c where the
// unit disk's boundary is decided: coincident, exactly 1, 1 ± 1 ulp, and
// around geom.InDisk's edge at 1+5e-10 (in or out of the disk).
func rangeShell(rng *rand.Rand, c geom.Point) geom.Point {
	d := []float64{0, 1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1 + 4e-10, 1 + 6e-10}[rng.Intn(6)]
	switch rng.Intn(3) {
	case 0:
		return geom.Pt(c.X+d, c.Y)
	case 1:
		return geom.Pt(c.X, c.Y-d)
	}
	a := rng.Float64() * 2 * math.Pi
	return geom.Pt(c.X+d*math.Cos(a), c.Y+d*math.Sin(a))
}

// TestNbrsMatchUDGProperty: on seeded churn — batched and unbatched;
// Insert, Remove, Move, SetRadius and Anneal; drift rebuilds from
// "rebuild every event" to rare; a Restore now and then; arrivals and
// moves placed on coincident copies and at the unit disk's boundary
// distances — every built neighbour list equals the node's oracle.UDG
// neighbourhood as a set after every operation and every settle. Half
// the cases build every list first, so every later patch is checked;
// the rest build lists only as the maintainer uses them.
func TestNbrsMatchUDGProperty(t *testing.T) {
	property := func(seed int64, batched, eager bool, factor uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(25)
		side := math.Sqrt(float64(n) * math.Pi / (1 + float64(rng.Intn(10))))
		pts := gen.UniformSquare(rng, n, side)
		for i := 0; i < n/3; i++ {
			pts = append(pts, rangeShell(rng, pts[rng.Intn(len(pts))]))
		}
		rf := []float64{0, 1, 8}[factor%3]
		m := dynamic.New(pts, rf)
		if eager {
			dynamic.BuildNbrs(m)
		}
		place := func() geom.Point {
			cur := m.Points()
			if rng.Intn(3) > 0 {
				return rangeShell(rng, cur[rng.Intn(len(cur))])
			}
			return geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		check := func(step int, what string) bool {
			if err := nbrsErr(m); err != nil {
				t.Logf("seed %d batched=%v eager=%v factor=%v step %d after %s: %v", seed, batched, eager, rf, step, what, err)
				return false
			}
			return true
		}
		for step := 0; step < 25; step++ {
			k := 1
			if batched {
				k = 1 + rng.Intn(5)
				m.BeginBatch()
			}
			for i := 0; i < k; i++ {
				var what string
				switch cur := len(m.Points()); {
				case cur < 6 || rng.Intn(4) == 0:
					m.Insert(place())
					what = "insert"
				case rng.Intn(3) == 0:
					m.Remove(rng.Intn(cur))
					what = "remove"
				case rng.Intn(8) == 0:
					m.SetRadius(rng.Intn(cur), rng.Float64())
					what = "set-radius"
				case rng.Intn(10) == 0:
					m.Anneal(rng.Int63(), 40)
					what = "anneal"
				default:
					m.Move(rng.Intn(cur), place())
					what = "move"
				}
				if !check(step, what) {
					return false
				}
			}
			if batched {
				m.EndBatch()
				if !check(step, "end-batch") {
					return false
				}
			}
			if rng.Intn(8) == 0 {
				r, err := dynamic.Restore(m.Snapshot(), rf, nil)
				if err != nil {
					t.Logf("seed %d: restore: %v", seed, err)
					return false
				}
				m = r
				if eager {
					dynamic.BuildNbrs(m)
				}
				if !check(step, "restore") {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
