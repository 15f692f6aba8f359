package main

// anneal: opt.AnnealWith on a fixed uniform instance, n=4096, under
// core.GraphMeasure and under phys.NewMeasure, alternating. It loads
// opt, core and phys; wire, serve, store, repl and sub stay idle, so it
// is the control for every serving-path change and the workload for the
// SINR speed gap.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/opt"
	"repro/internal/oracle"
	"repro/internal/phys"
)

const (
	annealN      = 4096
	annealSide   = 12
	graphIters   = 1000
	sinrIters    = 500
	warmIters    = 50
	annealMinRep = 3
)

type annealWL struct {
	e   *env
	pts []geom.Point
	// traced runs only
	graphEng, sinrEng *engineProbe

	results map[string][]opt.Result
}

func setupAnneal(e *env, tr *tracer) (instance, error) {
	w := &annealWL{e: e, results: map[string][]opt.Result{}}
	w.pts = gen.UniformSquare(rand.New(rand.NewSource(e.seed)), annealN, annealSide)
	if tr != nil {
		w.graphEng = newEngineProbe(tr, "core", nil)
		w.sinrEng = newEngineProbe(tr, "phys", nil)
	}
	// One short call per measure lets lazy set-up and caches settle
	// before anything is timed.
	for _, f := range []core.MeasureFactory{core.GraphMeasure, phys.NewMeasure} {
		opt.AnnealWith(f, w.pts, rand.New(rand.NewSource(e.seed)), warmIters)
	}
	return w, nil
}

func (w *annealWL) factories() (graph, sinr core.MeasureFactory) {
	if w.graphEng == nil {
		return core.GraphMeasure, phys.NewMeasure
	}
	return w.graphEng.factory(core.GraphMeasure), w.sinrEng.factory(phys.NewMeasure)
}

// annealCalls collects one measure's calls.
type annealCalls struct {
	name      string
	f         core.MeasureFactory
	iters     int
	p         *engineProbe // traced runs only
	wall, cpu []float64    // ms per call
	busy      time.Duration
}

func (w *annealWL) run(d time.Duration) (*phase, error) {
	graph, sinr := w.factories()
	calls := []*annealCalls{
		{name: "graph", f: graph, iters: graphIters, p: w.graphEng},
		{name: "sinr", f: sinr, iters: sinrIters, p: w.sinrEng},
	}
	deadline := time.Now().Add(d)
	for i := 0; i < annealMinRep || time.Now().Before(deadline); i++ {
		// Each pair of calls walks from its own seed: a single walk's cost
		// varies with the seed by up to 20%, the median of several does
		// not.
		walk := w.e.seed*1000 + int64(i)
		for _, c := range calls {
			var b0 int64
			if c.p != nil {
				b0 = c.p.busyNs.Load()
			}
			t, c0 := time.Now(), cpuTime()
			res := opt.AnnealWith(c.f, w.pts, rand.New(rand.NewSource(walk)), c.iters)
			c.wall = append(c.wall, time.Since(t).Seconds()*1e3)
			c.cpu = append(c.cpu, (cpuTime()-c0).Seconds()*1e3)
			if c.p != nil {
				c.busy += time.Duration(c.p.busyNs.Load() - b0)
			}
			w.results[c.name] = append(w.results[c.name], res)
		}
	}
	g, s := calls[0], calls[1]
	// Annealing is CPU-bound; calls are scored in process CPU time, which
	// host CPU steal does not inflate (WORKLOADS.md).
	gCPU, sCPU := median(g.cpu), median(s.cpu)
	ph := &phase{attempted: int64(len(g.cpu) + len(s.cpu)), e2e: map[string]float64{
		"rate_per_s": graphIters / (gCPU / 1e3),
		"time_ms":    sCPU,
	}}
	ph.notes = append(ph.notes,
		fmt.Sprintf("graph: %.1f iterations per CPU-second; SINR: %.1f ms CPU per %d-iteration call (%.1f iterations per CPU-second); %d calls each",
			graphIters/(gCPU/1e3), sCPU, sinrIters, sinrIters/(sCPU/1e3), len(g.cpu)),
		fmt.Sprintf("anneal_graph_iters_per_s = %.1f 1/s, anneal_sinr_iters_per_s = %.1f 1/s (wall clock, median calls; not gated)",
			graphIters/(median(g.wall)/1e3), sinrIters/(median(s.wall)/1e3)))
	if w.graphEng == nil {
		return ph, nil
	}
	m := map[string]float64{}
	engineLayer(m, "core", w.graphEng)
	engineLayer(m, "phys", w.sinrEng)
	m["opt.engine_share_graph"] = g.busy.Seconds() / (sum(g.wall) / 1e3)
	m["opt.engine_share_sinr"] = s.busy.Seconds() / (sum(s.wall) / 1e3)
	ph.layer = m
	return ph, nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// check scores every result's radii with the oracle for its measure.
func (w *annealWL) check() []string {
	var bad []string
	for name, rs := range w.results {
		for i, r := range rs {
			var want int
			if name == "graph" {
				want = oracle.Interference(w.pts, r.Radii).Max()
			} else {
				want = oracle.PhysLevels(w.pts, r.Radii, phys.Default()).Max()
			}
			if r.Interference != want {
				bad = append(bad, fmt.Sprintf("%s call %d reports I=%d, oracle scores its radii %d", name, i, r.Interference, want))
			}
			if !oracle.Feasible(w.pts, r.Radii) {
				bad = append(bad, fmt.Sprintf("%s call %d: radii disconnect a UDG component", name, i))
			}
		}
	}
	return bad
}

func (w *annealWL) close() {}
