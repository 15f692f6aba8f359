package dynamic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/udg"
)

// TestInsertOnRangeShellAddsNoRebuild: a newcomer at relative distance
// 1+7e-10 is outside geom.InDisk's unit disk, so it must stay unlinked
// and leave the topology matching the UDG — no drift-control rebuild.
// Just inside the disk, at 1+3e-10, it links to its neighbor, again
// without a rebuild.
func TestInsertOnRangeShellAddsNoRebuild(t *testing.T) {
	for _, tc := range []struct {
		d    float64
		link bool
	}{
		{1 + 7e-10, false},
		{1 + 3e-10, true},
	} {
		m := New([]geom.Point{geom.Pt(0, 0), geom.Pt(-0.5, 0)}, 0)
		idx := m.Insert(geom.Pt(tc.d, 0))
		if got := m.Topology().HasEdge(0, idx); got != tc.link {
			t.Errorf("d=%v: newcomer linked = %v, want %v", tc.d, got, tc.link)
		}
		if m.Rebuilds() != 1 {
			t.Errorf("d=%v: %d rebuilds, want only the initial one", tc.d, m.Rebuilds())
		}
	}
}

// shellPoint returns a point at relative distance 1+k·1e-10 from c in a
// random direction, k in [1, 9]: straddling the InDisk boundary at about
// 1+5e-10.
func shellPoint(rng *rand.Rand, c geom.Point) geom.Point {
	d := 1 + float64(1+rng.Intn(9))*1e-10
	a := rng.Float64() * 2 * math.Pi
	return geom.Pt(c.X+d*math.Cos(a), c.Y+d*math.Sin(a))
}

// TestSettleMatchesUDGProperty: on random churn — batched and unbatched,
// with arrivals and moves seeded on the range shell of existing nodes —
// the maintained topology's partition equals the UDG's after every
// settle.
func TestSettleMatchesUDGProperty(t *testing.T) {
	property := func(seed int64, batched bool) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := gen.UniformSquare(rng, 12, 3)
		for i := 0; i < 6; i++ {
			pts = append(pts, shellPoint(rng, pts[rng.Intn(len(pts))]))
		}
		m := New(pts, 2)
		place := func() geom.Point {
			cur := m.points()
			if rng.Intn(2) == 0 {
				return shellPoint(rng, cur[rng.Intn(len(cur))])
			}
			return geom.Pt(rng.Float64()*3, rng.Float64()*3)
		}
		for step := 0; step < 40; step++ {
			k := 1
			if batched {
				k = 1 + rng.Intn(5)
				m.BeginBatch()
			}
			for i := 0; i < k; i++ {
				switch n := len(m.points()); {
				case n < 6 || rng.Intn(3) == 0:
					m.Insert(place())
				case rng.Intn(2) == 0:
					m.Remove(rng.Intn(n))
				default:
					m.Move(rng.Intn(n), place())
				}
			}
			if batched {
				m.EndBatch()
			}
			if !graph.SameComponents(udg.Build(m.points()), m.Topology()) {
				t.Logf("seed %d batched=%v: partition differs from the UDG after step %d", seed, batched, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
