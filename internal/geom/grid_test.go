package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randomPoints(rng *rand.Rand, n int, w, h float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*w, rng.Float64()*h)
	}
	return pts
}

func TestGridDegenerate(t *testing.T) {
	// Empty set.
	g := NewGrid(nil, 1)
	if g.Len() != 0 {
		t.Error("empty grid should have Len 0")
	}
	if got := g.Within(Pt(0, 0), 5, nil); len(got) != 0 {
		t.Error("Within on empty grid should return nothing")
	}
	if i, _ := g.Nearest(0); i != -1 {
		t.Error("Nearest on empty grid should return -1")
	}
	// Single point.
	g = NewGrid([]Point{Pt(3, 3)}, 1)
	if i, _ := g.Nearest(0); i != -1 {
		t.Error("Nearest with one point should return -1")
	}
	if got := g.Within(Pt(3, 3), 0, nil); len(got) != 1 {
		t.Error("Within r=0 at the point should return it")
	}
	// Coincident points: all at the same location.
	pts := []Point{Pt(1, 1), Pt(1, 1), Pt(1, 1)}
	g = NewGrid(pts, 1)
	if i, d := g.Nearest(1); i != 0 || d != 0 {
		t.Errorf("Nearest among coincident points = (%d,%v), want (0,0)", i, d)
	}
	if got := g.Within(Pt(1, 1), 0, nil); len(got) != 3 {
		t.Errorf("Within r=0 should return all coincident points, got %d", len(got))
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid([]Point{Pt(0, 0)}, 1)
	if got := g.Within(Pt(0, 0), -1, nil); len(got) != 0 {
		t.Error("negative radius should match nothing")
	}
	if got := g.CountWithin(Pt(0, 0), -1); got != 0 {
		t.Error("negative radius should count nothing")
	}
}

func TestGridPanicsOnBadCell(t *testing.T) {
	for _, cell := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(cell=%v) should panic", cell)
				}
			}()
			NewGrid([]Point{Pt(0, 0)}, cell)
		}()
	}
}

func BenchmarkGridWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 10000, 100, 100)
	g := NewGrid(pts, 1)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(pts[i%len(pts)], 1, buf[:0])
	}
}

func BenchmarkGridNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 10000, 100, 100)
	g := NewGrid(pts, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Nearest(i % len(pts))
	}
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func TestWithinAnnulusComplementsWithin(t *testing.T) {
	// Within(hi) must equal Within(lo) ∪ WithinAnnulus(lo, hi) exactly,
	// including boundary epsilons — the invariant incremental radius
	// updates depend on.
	rng := rand.New(rand.NewSource(22))
	pts := randomPoints(rng, 300, 5, 5)
	g := NewGrid(pts, 0.4)
	for trial := 0; trial < 200; trial++ {
		c := pts[rng.Intn(len(pts))]
		hi := rng.Float64() * 4
		lo := hi * rng.Float64()
		inner := g.Within(c, lo, nil)
		ann := g.WithinAnnulus(c, lo, hi, nil)
		outer := sortedCopy(g.Within(c, hi, nil))
		union := sortedCopy(append(inner, ann...))
		if len(union) != len(outer) {
			t.Fatalf("trial %d: |inner|+|annulus| = %d, |outer| = %d", trial, len(union), len(outer))
		}
		for i := range union {
			if union[i] != outer[i] {
				t.Fatalf("trial %d: union mismatch at %d", trial, i)
			}
		}
	}
}

func TestWithinAnnulusBoundaryExact(t *testing.T) {
	// Points exactly on the inner and outer boundaries: the inner
	// boundary is excluded (it belongs to the inner disk under the
	// inclusive InDisk convention), the outer boundary included.
	pts := []Point{Pt(1, 0), Pt(2, 0), Pt(1.5, 0), Pt(0, 0)}
	g := NewGrid(pts, 0.5)
	got := sortedCopy(g.WithinAnnulus(Pt(0, 0), 1, 2, nil))
	want := []int{1, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("boundary annulus = %v, want %v", got, want)
	}
	// lo = 0 keeps coincident points (distance 0) in the result.
	if got := g.WithinAnnulus(Pt(0, 0), 0, 1, nil); len(got) != 2 { // points 0 and 3
		t.Fatalf("lo=0 annulus = %v, want the unit disk incl. center", got)
	}
}

func BenchmarkGridWithinAnnulus(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 10000, 100, 100)
	g := NewGrid(pts, 1)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.WithinAnnulus(pts[i%len(pts)], 9.5, 10, buf[:0])
	}
}

// TestGridWithinReachesShell: InDisk admits points up to r·√(1+1e-9),
// so a query must scan the cells out to that reach. Here the cell size
// puts the point at 1+3e-10, which InDisk admits, one cell past c+r.
func TestGridWithinReachesShell(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1+3e-10, 0), Pt(-0.5, 0)}
	g := NewGrid(pts, 0.75000000015)
	if !InDisk(pts[0], 1, pts[1]) {
		t.Fatal("InDisk must admit the pair")
	}
	got := sortedCopy(g.Within(pts[0], 1, nil))
	if len(got) != 3 {
		t.Fatalf("Within = %v, want all three nodes", got)
	}
	if n := g.CountWithin(pts[0], 1); n != 3 {
		t.Fatalf("CountWithin = %d, want 3", n)
	}
	if ann := sortedCopy(g.WithinAnnulus(pts[0], 0.5, 1, nil)); len(ann) != 1 || ann[0] != 1 {
		t.Fatalf("WithinAnnulus = %v, want [1]", ann)
	}
}
