package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestEvaluatorMatchesFullEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(60)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*4, rng.Float64()*4)
		}
		inc := NewEvaluator(pts)
		radii := make([]float64, n)
		for step := 0; step < 200; step++ {
			u := rng.Intn(n)
			var r float64
			switch rng.Intn(4) {
			case 0:
				r = 0 // silence the node
			case 1:
				r = radii[u] // no-op
			default:
				r = rng.Float64() * 5
			}
			inc.SetRadius(u, r)
			radii[u] = r
			if step%23 == 0 { // spot-check against the full evaluator
				want := InterferenceRadii(pts, radii)
				for v := range want {
					if inc.I(v) != want[v] {
						t.Fatalf("trial %d step %d node %d: inc %d, full %d", trial, step, v, inc.I(v), want[v])
					}
				}
				if inc.Max() != want.Max() {
					t.Fatalf("trial %d step %d: max inc %d, full %d", trial, step, inc.Max(), want.Max())
				}
			}
		}
		// Final full check.
		want := InterferenceRadii(pts, radii)
		got := inc.Vector()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d final node %d: inc %d, full %d", trial, v, got[v], want[v])
			}
		}
	}
}

func TestEvaluatorRevert(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	inc := NewEvaluator(pts)
	inc.SetRadius(0, 1)
	base := inc.Vector()
	baseMax := inc.Max()
	old := inc.SetRadius(0, 2.5)
	if inc.I(2) != 1 {
		t.Fatal("node 2 should now be covered")
	}
	inc.SetRadius(0, old)
	if inc.Max() != baseMax {
		t.Errorf("Max after revert = %d, want %d", inc.Max(), baseMax)
	}
	for v, want := range base {
		if inc.I(v) != want {
			t.Errorf("I(%d) after revert = %d, want %d", v, inc.I(v), want)
		}
	}
}

func TestEvaluatorGrowTo(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	inc := NewEvaluator(pts)
	inc.GrowTo(0, 1)
	if inc.Radius(0) != 1 {
		t.Fatal("GrowTo should raise the radius")
	}
	inc.GrowTo(0, 0.5)
	if inc.Radius(0) != 1 {
		t.Error("GrowTo must never shrink")
	}
	if inc.I(1) != 1 {
		t.Error("node 1 should be covered once")
	}
}

func TestEvaluatorMaxDecreases(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0)}
	inc := NewEvaluator(pts)
	inc.SetRadius(0, 1) // covers 1, 2
	inc.SetRadius(2, 1) // covers 0, 1 -> I(1) = 2
	if inc.Max() != 2 {
		t.Fatalf("Max = %d, want 2", inc.Max())
	}
	inc.SetRadius(0, 0)
	if inc.Max() != 1 {
		t.Fatalf("Max after shrink = %d, want 1", inc.Max())
	}
	inc.SetRadius(2, 0)
	if inc.Max() != 0 {
		t.Fatalf("Max after full shrink = %d, want 0", inc.Max())
	}
}

func TestEvaluatorReset(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	inc := NewEvaluator(pts)
	inc.SetRadius(0, 2)
	inc.Reset()
	if inc.Max() != 0 || inc.I(1) != 0 || inc.Radius(0) != 0 {
		t.Error("Reset should zero all state")
	}
	// Must be reusable after Reset.
	inc.SetRadius(1, 1)
	if inc.I(0) != 1 {
		t.Error("evaluator broken after Reset")
	}
}

func TestEvaluatorPanicsOnNegativeRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative radius should panic")
		}
	}()
	NewEvaluator([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}).SetRadius(0, -1)
}

func TestRobustnessAtMostOne(t *testing.T) {
	// The paper's robustness theorem: with existing radii fixed, one
	// arrival raises every I(v) by at most 1 — and by exactly 1 only for
	// nodes inside the newcomer's disk.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(60)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*3, rng.Float64()*3)
		}
		radii := make([]float64, n-1)
		for i := range radii {
			radii[i] = rng.Float64() * 2
		}
		newR := rng.Float64() * 4
		deltas := FixedTopologyDelta(pts, radii, newR)
		newcomer := pts[n-1]
		for v, d := range deltas {
			if d < 0 || d > 1 {
				t.Fatalf("trial %d: delta[%d] = %d, robustness bound violated", trial, v, d)
			}
			inDisk := geom.InDisk(newcomer, newR, pts[v])
			if (d == 1) != inDisk {
				t.Fatalf("trial %d: delta[%d]=%d but inDisk=%v", trial, v, d, inDisk)
			}
		}
	}
}

func BenchmarkEvaluatorSetRadius(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	n := 2000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	inc := NewEvaluator(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.SetRadius(i%n, rng.Float64()*2)
	}
}

func BenchmarkFullInterference(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	n := 2000
	pts := make([]geom.Point, n)
	radii := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
		radii[i] = rng.Float64() * 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InterferenceRadii(pts, radii)
	}
}

// TestMaxIfGrownMatchesGrowTo: the read-only price of growing u (and v)
// to w equals what the mutating path reads — Snapshot, GrowTo each
// endpoint, Max, Restore — on random radius assignments with coincident
// copies and exact-boundary radii, for one and two grown endpoints,
// across AddPoint/RemovePoint/MovePoint, and leaves the engine unchanged.
func TestMaxIfGrownMatchesGrowTo(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(50)
		side := 0.5 + rng.Float64()*3
		pts := make([]geom.Point, n)
		for i := range pts {
			if i > 0 && rng.Intn(6) == 0 {
				pts[i] = pts[rng.Intn(i)] // coincident copy
			} else {
				pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
			}
		}
		ev := NewEvaluator(pts)
		for step := 0; step < 150; step++ {
			switch rng.Intn(12) {
			case 0:
				ev.AddPoint(geom.Pt(rng.Float64()*side, rng.Float64()*side))
			case 1:
				if ev.N() > 2 {
					ev.RemovePoint(rng.Intn(ev.N()))
				}
			case 2:
				ev.MovePoint(rng.Intn(ev.N()), geom.Pt(rng.Float64()*side, rng.Float64()*side))
			case 3, 4, 5:
				// A radius reaching exactly some other node: the disk
				// boundary the greedy constructions grow to.
				u, cur := rng.Intn(ev.N()), ev.Points()
				ev.SetRadius(u, cur[u].Dist(cur[rng.Intn(ev.N())]))
			}
			cur := ev.Points()
			u, v := rng.Intn(ev.N()), -1
			if rng.Intn(4) != 0 {
				if v = rng.Intn(ev.N() - 1); v >= u {
					v++
				}
			}
			var w float64
			switch rng.Intn(3) {
			case 0:
				w = rng.Float64() * 1.5
			case 1:
				w = cur[u].Dist(cur[rng.Intn(ev.N())])
			default:
				w = ev.Radius(u)
			}
			before := ev.ExportState(nil)
			got := ev.MaxIfGrown(u, v, w)
			if after := ev.ExportState(nil); !sameState(before, after) {
				t.Fatalf("trial %d step %d: MaxIfGrown changed the engine", trial, step)
			}
			ev.Snapshot()
			ev.GrowTo(u, w)
			if v >= 0 {
				ev.GrowTo(v, w)
			}
			want := ev.Max()
			ev.Restore()
			if got != want {
				t.Fatalf("trial %d step %d: MaxIfGrown(%d, %d, %v) = %d, GrowTo path reads %d", trial, step, u, v, w, got, want)
			}
		}
	}
}

func sameState(a, b *State) bool {
	if a.Max != b.Max || len(a.I) != len(b.I) || len(a.Radii) != len(b.Radii) {
		return false
	}
	for i := range a.I {
		if a.I[i] != b.I[i] || a.Radii[i] != b.Radii[i] {
			return false
		}
	}
	return true
}
