package rim_test

// Benchmark harness: one testing.B target per paper artifact (figure or
// theorem) plus the ablations called out in DESIGN.md. Each benchmark
// regenerates the corresponding experiment series; run
//
//	go test -bench=. -benchmem
//
// to reproduce every table, or cmd/paperrepro to print them.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/exp"
	"repro/internal/gather"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/highway"
	"repro/internal/opt"
	"repro/internal/oracle"
	"repro/internal/phys"
	"repro/internal/planar"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/udg"
)

// BenchmarkFig1Robustness regenerates Figure 1: both interference
// measures before/after a single node arrival on the gadget.
func BenchmarkFig1Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		pts := gen.Figure1(rng, 128, 0.2)
		impact := core.MeasureAddition(pts, topology.MST)
		if impact.SenderAfter < 100 {
			b.Fatal("figure 1 shape lost")
		}
	}
}

// BenchmarkThm41NNF regenerates Theorem 4.1 / Figures 3–5: NNF vs the
// constant-interference tree on the double exponential chain.
func BenchmarkThm41NNF(b *testing.B) {
	pts := gen.DoubleExpChain(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nnf := topology.NNF(pts)
		if core.Interference(pts, nnf).Max() < 32 {
			b.Fatal("NNF interference collapsed")
		}
	}
}

// BenchmarkFig7Linear regenerates Figures 6–7: the linearly connected
// exponential chain.
func BenchmarkFig7Linear(b *testing.B) {
	pts := gen.ExpChainUnit(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := highway.LinearRange(pts, math.Inf(1))
		if core.Interference(pts, g).Max() != 498 {
			b.Fatal("linear chain shape lost")
		}
	}
}

// BenchmarkThm51AExp regenerates Theorem 5.1 / Figure 8: A_exp on the
// exponential chain across sizes.
func BenchmarkThm51AExp(b *testing.B) {
	for _, n := range []int{32, 128, 500} {
		var pts []geom.Point
		if n <= gen.MaxExpChainN {
			pts = gen.ExpChain(n, 1)
		} else {
			pts = gen.ExpChainUnit(n)
		}
		b.Run(benchName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := highway.AExp(pts)
				if core.Interference(pts, g).Max() > highway.AExpBound(n) {
					b.Fatal("Theorem 5.1 bound violated")
				}
			}
		})
	}
}

// BenchmarkThm52LowerBound regenerates Theorem 5.2: the exact optimum on
// a small exponential chain (branch-and-bound proof included).
func BenchmarkThm52LowerBound(b *testing.B) {
	pts := gen.ExpChain(10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := opt.Exact(pts)
		if !res.Exact || res.Interference*res.Interference < 5 {
			b.Fatal("Theorem 5.2 floor violated")
		}
	}
}

// BenchmarkThm54AGen regenerates Theorem 5.4 / Figure 9: A_gen over
// random highway instances.
func BenchmarkThm54AGen(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{256, 1024, 4096} {
		pts := gen.HighwayUniform(rng, n, float64(n)/50)
		delta := udg.MaxDegree(pts, udg.Radius)
		b.Run(benchName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := highway.AGen(pts)
				if got := core.Interference(pts, g).Max(); float64(got) > 8*math.Sqrt(float64(delta))+4 {
					b.Fatalf("O(√Δ) bound violated: %d vs Δ=%d", got, delta)
				}
			}
		})
	}
}

// BenchmarkThm56AApx regenerates Theorem 5.6: the hybrid approximation
// on instances exercising both branches.
func BenchmarkThm56AApx(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	uniform := gen.HighwayUniform(rng, 512, 200)
	chain := gen.ExpChain(40, 1)
	b.Run("linear-branch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			highway.AApx(uniform)
		}
	})
	b.Run("agen-branch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			highway.AApx(chain)
		}
	})
}

// BenchmarkKnownTopologies regenerates the Section 4 comparison: every
// zoo algorithm on a 2-D instance, measured under the receiver-centric
// model.
func BenchmarkKnownTopologies(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := gen.UniformSquare(rng, 250, 4)
	for _, alg := range topology.All() {
		b.Run(alg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := alg.Build(pts)
				core.Interference(pts, g)
			}
		})
	}
}

// BenchmarkRobustnessDelta regenerates X1: per-arrival interference
// deltas under fixed radii.
func BenchmarkRobustnessDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := gen.UniformSquare(rng, 200, 2)
	radii := core.Radii(pts[:199], topology.MST(pts[:199]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltas := core.FixedTopologyDelta(pts, radii, 0.5)
		for _, d := range deltas {
			if d > 1 {
				b.Fatal("robustness bound violated")
			}
		}
	}
}

// BenchmarkSimCollisions regenerates X2: packet-level convergecast over
// high- and low-interference topologies of the same instance.
func BenchmarkSimCollisions(b *testing.B) {
	pts := gen.ExpChain(24, 1)
	b.Run("linear", func(b *testing.B) { simBench(b, pts, highway.Linear(pts)) })
	b.Run("aexp", func(b *testing.B) { simBench(b, pts, highway.AExp(pts)) })
}

func simBench(b *testing.B, pts []geom.Point, topo *graph.Graph) {
	nw := sim.NewNetwork(pts, topo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Slots = 20000
		s := sim.New(nw, cfg)
		sim.Convergecast{N: len(pts), Sink: 0, Period: 500, Slots: 10000, Stagger: true}.Install(s)
		s.Run()
	}
}

// BenchmarkAblationIncremental compares the incremental interference
// evaluator against full re-evaluation for AExp-style radius updates
// (DESIGN.md ablation 1).
func BenchmarkAblationIncremental(b *testing.B) {
	pts := gen.ExpChainUnit(400)
	b.Run("incremental", func(b *testing.B) {
		inc := core.NewEvaluator(pts)
		for i := 0; i < b.N; i++ {
			u := i % len(pts)
			inc.SetRadius(u, pts[u].X/2+1)
		}
	})
	b.Run("full-reeval", func(b *testing.B) {
		radii := make([]float64, len(pts))
		for i := 0; i < b.N; i++ {
			u := i % len(pts)
			radii[u] = pts[u].X/2 + 1
			core.InterferenceRadii(pts, radii)
		}
	})
}

// BenchmarkAblationGrid compares grid-accelerated against naive
// interference evaluation (DESIGN.md ablation 2).
func BenchmarkAblationGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := gen.UniformSquare(rng, 2000, 10)
	topo := topology.MST(pts)
	radii := core.Radii(pts, topo)
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.InterferenceRadii(pts, radii)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracle.Interference(pts, radii)
		}
	})
}

// BenchmarkAblationHubSpacing sweeps A_gen's hub spacing around the
// paper's ⌈√Δ⌉ choice (DESIGN.md ablation 4) and reports the achieved
// interference per spacing.
func BenchmarkAblationHubSpacing(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := gen.HighwayUniform(rng, 2000, 40)
	delta := udg.MaxDegree(pts, udg.Radius)
	sqrtD := int(math.Ceil(math.Sqrt(float64(delta))))
	for _, spacing := range []int{1, sqrtD / 2, sqrtD, sqrtD * 2, delta} {
		if spacing < 1 {
			spacing = 1
		}
		b.Run(benchName("spacing", spacing), func(b *testing.B) {
			var got int
			for i := 0; i < b.N; i++ {
				g := highway.AGenSpacing(pts, spacing)
				got = core.Interference(pts, g).Max()
			}
			b.ReportMetric(float64(got), "interference")
		})
	}
}

// BenchmarkPaperreproTables times the full table-generation pipeline the
// way cmd/paperrepro runs it (excluding the slow exact-optimum table).
func BenchmarkPaperreproTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure1(1)
		exp.Theorem41()
		exp.Figure7()
		exp.Theorem51()
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkX7TDMASchedule regenerates X7's scheduling step: the greedy
// conflict-free link schedule whose frame length prices interference.
func BenchmarkX7TDMASchedule(b *testing.B) {
	pts := gen.ExpChain(24, 1)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"linear", highway.Linear(pts)},
		{"aexp", highway.AExp(pts)},
	} {
		nw := sim.NewNetwork(pts, tc.g)
		b.Run(tc.name, func(b *testing.B) {
			var frame int
			for i := 0; i < b.N; i++ {
				frame = schedule.GreedyLinkSchedule(nw).Frame
			}
			b.ReportMetric(float64(frame), "frame")
		})
	}
}

// BenchmarkX9GatherTrees regenerates X9's constructions.
func BenchmarkX9GatherTrees(b *testing.B) {
	pts := gen.ExpChain(24, 1)
	b.Run("spt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gather.ShortestPathTree(pts, 0)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gather.GreedyMinITree(pts, 0)
		}
	})
}

// BenchmarkX3AGen2D regenerates the 2-D future-work construction.
func BenchmarkX3AGen2D(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pts := gen.UniformSquare(rng, 500, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planar.AGen2D(pts)
	}
}

// BenchmarkX8Maintainer regenerates the churn-maintenance step.
func BenchmarkX8Maintainer(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := dynamic.New(gen.UniformSquare(rng, 80, 2), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.Insert(geom.Pt(rng.Float64()*2, rng.Float64()*2))
		} else if len(m.Points()) > 40 {
			m.Remove(rng.Intn(len(m.Points())))
		}
	}
}

// BenchmarkAnnealEvaluator measures the incremental-evaluator annealer
// on a large instance — the headline number for the evaluator rework.
func BenchmarkAnnealEvaluator(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := gen.UniformSquare(rng, 4096, 12)
	const iters = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Anneal(pts, rand.New(rand.NewSource(int64(i))), iters)
	}
	b.ReportMetric(float64(iters)*float64(b.N)/b.Elapsed().Seconds(), "iters/s")
}

// BenchmarkPhysEvaluator measures the incremental SINR evaluator at
// n=4096: per-op SetRadius deltas over the far-field neighborhood, the
// hot path of annealing and serving under -measure=sinr. Compare with
// BenchmarkAnnealEvaluator — the physical measure pays for power sums
// over the F·r disk where the graph measure pays for coverage counts
// over the r disk.
func BenchmarkPhysEvaluator(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := gen.UniformSquare(rng, 4096, 12)
	ev := phys.NewEvaluator(pts, phys.Default())
	radii := make([]float64, len(pts))
	for i := range radii {
		radii[i] = 0.2 + rng.Float64()
	}
	ev.BatchSet(radii, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.SetRadius(rng.Intn(len(pts)), 0.2+rng.Float64())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "setradius/s")
}

// BenchmarkDynamicEvents measures maintainer throughput under churn at
// n≈1024, where the persistent evaluator replaces the seed's full
// re-evaluation per event.
func BenchmarkDynamicEvents(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := dynamic.New(gen.UniformSquare(rng, 1024, 8), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.Insert(geom.Pt(rng.Float64()*8, rng.Float64()*8))
		} else if len(m.Points()) > 512 {
			m.Remove(rng.Intn(len(m.Points())))
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkExactSearch measures branch-and-bound throughput in visited
// search-tree nodes per second; the snapshot/restore evaluator turns
// each DFS edge into an O(|annulus|) delta.
func BenchmarkExactSearch(b *testing.B) {
	pts := gen.ExpChain(12, 1)
	var visited int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := opt.Exact(pts)
		visited += res.Visited
	}
	b.ReportMetric(float64(visited)/b.Elapsed().Seconds(), "nodes/s")
}
