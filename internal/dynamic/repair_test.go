package dynamic_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestSettleMatchesOracleRepair: on random churn — batched and
// unbatched; Insert, Remove, Move, SetRadius and Anneal; arrivals and
// moves seeded on the range shell of existing nodes; from ~1 to ~20
// expected neighbours — every settle appends exactly the edges that
// oracle.RepairEdges picks for the pre-settle topology, in order, and
// leaves component labels inducing the topology's partition. A settle
// with only arrivals to check appends nothing and rebuilds when the
// oracle finds anything to repair.
func TestSettleMatchesOracleRepair(t *testing.T) {
	property := func(seed int64, batched bool, density, factor uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(30)
		nbrs := 1 + float64(density%20)
		side := math.Sqrt(float64(n) * math.Pi / nbrs)
		pts := gen.UniformSquare(rng, n, side)
		for i := 0; i < n/4; i++ {
			pts = append(pts, dynamic.ShellPoint(rng, pts[rng.Intn(len(pts))]))
		}
		m := dynamic.New(pts, []float64{0, 8, 1}[factor%3])
		place := func() geom.Point {
			cur := m.Points()
			if rng.Intn(2) == 0 {
				return dynamic.ShellPoint(rng, cur[rng.Intn(len(cur))])
			}
			return geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}

		// The pre-settle state: a copy of the topology to hand the oracle,
		// and the live graph, which the repair appends to even when a
		// drift rebuild then replaces it.
		var pre, live *graph.Graph
		var prePts []geom.Point
		var m0, r0 int
		capture := func() {
			pre, live, m0 = m.Topology().Clone(), m.Topology(), m.Topology().M()
			prePts, r0 = m.Points(), m.Rebuilds()
		}
		if !batched {
			m.OnEvent = func(ev dynamic.Event) {
				switch ev.Kind {
				case dynamic.EventInsert, dynamic.EventRemove, dynamic.EventMove:
					capture() // fired right before the operation's settle
				}
			}
		}
		check := func(step int, repair bool) bool {
			want := oracle.RepairEdges(prePts, pre)
			added := live.Edges()[m0:]
			switch {
			case repair && !sameEdges(added, want):
				t.Logf("seed %d batched=%v step %d: settle added %v, oracle %v", seed, batched, step, added, want)
				return false
			case !repair && (len(added) > 0 || len(want) > 0 && m.Rebuilds() == r0):
				t.Logf("seed %d batched=%v step %d: arrivals-only settle added %v, rebuilt %v; oracle %v",
					seed, batched, step, added, m.Rebuilds() > r0, want)
				return false
			}
			if err := dynamic.LabelsErr(m); err != nil {
				t.Logf("seed %d batched=%v step %d: %v", seed, batched, step, err)
				return false
			}
			return true
		}

		for step := 0; step < 30; step++ {
			k := 1
			if batched {
				k = 1 + rng.Intn(6)
				m.BeginBatch()
			}
			repair := false
			for i := 0; i < k; i++ {
				settles, due := true, false
				switch cur := len(m.Points()); {
				case cur < 6 || rng.Intn(4) == 0:
					m.Insert(place())
				case rng.Intn(3) == 0:
					m.Remove(rng.Intn(cur))
					due = true
				case rng.Intn(8) == 0:
					m.SetRadius(rng.Intn(cur), rng.Float64())
					settles = false
				case rng.Intn(12) == 0:
					m.Anneal(rng.Int63(), 50)
					settles = false
				default:
					m.Move(rng.Intn(cur), place())
					due = true
				}
				repair = repair || due
				if !batched && settles && !check(step, due) {
					return false
				}
			}
			if batched {
				capture()
				m.EndBatch()
				if !check(step, repair) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// sameEdges compares edge lists exactly, order and weight bits included.
func sameEdges(a, b []graph.Edge) bool {
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
