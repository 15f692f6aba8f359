package oracle_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/phys"
	"repro/internal/topology"
)

// sweepCases returns the instances the sorted sweep must recount exactly
// as the naive loops do. Each gets several radius assignments
// (sweepRadii): random radii, zero radii, radii that put the farthest
// neighbour exactly on the disk boundary (Radii of the UDG and the NNF),
// and radii that put a receiver exactly on the far-field cutoff.
func sweepCases() map[string][]geom.Point {
	rng := rand.New(rand.NewSource(1))
	coincident := gen.UniformSquare(rng, 40, 1.5)
	coincident = append(coincident, coincident[:20]...)
	coincident = append(coincident, coincident[0], coincident[0])
	var horizontal, vertical []geom.Point
	for i := 0; i < 50; i++ {
		x := float64(i) * 0.13
		horizontal = append(horizontal, geom.Pt(x, 2))
		vertical = append(vertical, geom.Pt(-3, x))
	}
	// Receivers a hair beyond each sender's radius along the sort axis,
	// still inside geom.InDisk's relative epsilon: a strip whose ends are
	// x_u ± r misses them.
	var rim []geom.Point
	for i := 0; i < 20; i++ {
		c := geom.Pt(1+float64(i)*3, 0.5)
		rim = append(rim, c, geom.Pt(c.X+1e-3*(1+2e-10), c.Y), geom.Pt(c.X-4e-3*(1+2e-10), c.Y))
	}
	return map[string][]geom.Point{
		"uniform":       gen.UniformSquare(rng, 300, 6),
		"clustered":     gen.Clustered(rng, 120, 3, 4, 0.2),
		"figure1":       gen.Figure1(rng, 40, 0.3),
		"expchain":      gen.ExpChain(24, 1),
		"doubleexp":     gen.DoubleExpChain(12),
		"coincident":    coincident,
		"horizontal":    horizontal,
		"vertical":      vertical,
		"rim":           rim,
		"single":        {geom.Pt(1, 1)},
		"empty":         nil,
		"pair-vertical": {geom.Pt(0, 0), geom.Pt(0, 0.5)},
	}
}

// sweepRadii returns the radius assignments tried on the named instance.
func sweepRadii(name string, pts []geom.Point) map[string][]float64 {
	rng := rand.New(rand.NewSource(2))
	n := len(pts)
	random, zero, far := make([]float64, n), make([]float64, n), make([]float64, n)
	m := phys.Default()
	for u := range pts {
		if rng.Intn(4) > 0 {
			random[u] = rng.Float64() * 1.2
		}
		// The far-field cutoff F·r_u lands exactly on a random receiver.
		if v := rng.Intn(n); v != u {
			far[u] = pts[u].Dist(pts[v]) / m.FarField
		}
	}
	rs := map[string][]float64{
		"random": random,
		"zero":   zero,
		"far":    far,
		"udg":    oracle.Radii(pts, oracle.UDG(pts)),
		"nnf":    oracle.Radii(pts, oracle.NNF(pts)),
	}
	if name == "rim" {
		// Each triple's centre reaches its right point, the right point
		// reaches the centre on its left, and the left point reaches the
		// centre on its right, each a hair beyond the radius; divided by
		// F, the same pairs sit on the far-field cutoff.
		disk, cutoff := make([]float64, n), make([]float64, n)
		for u := 0; u < n; u += 3 {
			disk[u], disk[u+1], disk[u+2] = 1e-3, 1e-3, 4e-3
		}
		for u, r := range disk {
			cutoff[u] = r / m.FarField
		}
		rs["disk-rim"], rs["cutoff-rim"] = disk, cutoff
	}
	return rs
}

// TestSweepMatchesOracle: the sorted sweep recounts the graph measure's
// interference vector and the SINR power sums and levels bit for bit as
// the naive O(n²) loops do.
func TestSweepMatchesOracle(t *testing.T) {
	m := phys.Default()
	for name, pts := range sweepCases() {
		for rname, radii := range sweepRadii(name, pts) {
			if got, want := oracle.SweepInterference(pts, radii), oracle.Interference(pts, radii); !slices.Equal(got, want) {
				t.Errorf("%s/%s: graph sweep %v, naive %v", name, rname, got, want)
			}
			if got, want := oracle.SweepPhysPower(pts, radii, m), oracle.PhysPower(pts, radii, m); !slices.Equal(got, want) {
				t.Errorf("%s/%s: SINR sweep power %v, naive %v", name, rname, got, want)
			}
			if got, want := oracle.SweepPhysLevels(pts, radii, m), oracle.PhysLevels(pts, radii, m); !slices.Equal(got, want) {
				t.Errorf("%s/%s: SINR sweep levels %v, naive %v", name, rname, got, want)
			}
		}
	}
}

// bootMax keeps BenchmarkBootVerify's recounts live.
var bootMax int

// BenchmarkBootVerify times the boot-time recount of a recovered session:
// the naive O(n²) loops against the sorted sweep, both measures, on
// uniform points at density 6.25 with the greedy topology's radii (what
// a session's create record builds). The naive recount runs only up to
// n = 2^14.
func BenchmarkBootVerify(b *testing.B) {
	m := phys.Default()
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		pts := gen.UniformSquare(rand.New(rand.NewSource(1)), n, math.Sqrt(float64(n)/6.25))
		radii := core.Radii(pts, topology.GreedyMinI(pts))
		for _, c := range []struct {
			name  string
			naive bool
			count func() int
		}{
			{"graph/naive", true, func() int { return oracle.Interference(pts, radii).Max() }},
			{"graph/sweep", false, func() int { return oracle.SweepInterference(pts, radii).Max() }},
			{"sinr/naive", true, func() int { return oracle.PhysLevels(pts, radii, m).Max() }},
			{"sinr/sweep", false, func() int { return oracle.SweepPhysLevels(pts, radii, m).Max() }},
		} {
			if c.naive && n > 1<<14 {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bootMax = c.count()
				}
			})
		}
	}
}
