// Command netsim runs the packet-level simulator over a chosen instance
// and topology, reporting delivery, collisions, retransmissions, latency,
// and energy — the MAC-layer quantities the receiver-centric interference
// measure predicts.
//
//	netsim -family expchain -n 24 -topo linear,aexp,mst -workload convergecast
//	netsim -family uniform2d -n 150 -topo mst,life -workload poisson -rate 0.1
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/highway"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/tablefmt"
	"repro/internal/topology"
	"repro/internal/udg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "expchain", "expchain|highway|uniform2d|clustered2d")
	n := fs.Int("n", 24, "node count")
	topos := fs.String("topo", "linear,aexp,agen,mst", "comma-separated topologies: linear,aexp,agen,aapx,mst,gg,rng,xtc,lmst,life,nnf,anneal")
	workload := fs.String("workload", "convergecast", "convergecast|poisson")
	rate := fs.Float64("rate", 0.05, "poisson injections per slot")
	period := fs.Int64("period", 500, "convergecast report period (slots)")
	slots := fs.Int64("slots", 60000, "simulation horizon (slots)")
	seed := fs.Int64("seed", 1, "seed for instance, MAC, and workload")
	csma := fs.Bool("csma", false, "enable carrier sensing (CSMA)")
	phys := fs.Bool("sinr", false, "use the physical (SINR) reception model instead of the disk model")
	failNode := fs.Int("fail", -1, "node to fail at mid-run (-1 = none)")
	trace := fs.String("trace", "", "write a per-event trace of the FIRST topology's run to this file")
	annealIters := fs.Int("anneal-iters", 0, "iterations for the anneal topology (0 = 10·n)")
	var ocli obs.CLI
	ocli.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ostop, err := ocli.Start("netsim", args)
	if err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 1
	}
	defer func() { ostop(stderr) }()
	ocli.SetSeed(*seed)

	pts, err := makeInstance(*family, *n, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 2
	}
	t := tablefmt.New(
		fmt.Sprintf("netsim: %s %s, workload=%s, slots=%d, seed=%d", *family, gen.Describe(pts), *workload, *slots, *seed),
		"topology", "I(G)", "injected", "delivered", "ratio", "collision_rate", "retx", "latency", "energy")

	var traceFile *os.File
	if *trace != "" {
		var err error
		traceFile, err = os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "netsim:", err)
			return 1
		}
		defer traceFile.Close()
	}
	for i, name := range strings.Split(*topos, ",") {
		name = strings.TrimSpace(name)
		build := builder(name, pts, *seed, *annealIters)
		if build == nil {
			fmt.Fprintf(stderr, "netsim: unknown topology %q\n", name)
			return 2
		}
		g := build()
		nw := sim.NewNetwork(pts, g)
		cfg := sim.DefaultConfig()
		cfg.Slots = *slots
		cfg.Seed = *seed
		cfg.CarrierSense = *csma
		if *phys {
			cfg.Physical = sim.DefaultPhysical()
		}
		s := sim.New(nw, cfg)
		if traceFile != nil && i == 0 {
			s.SetTracer(&sim.WriterTracer{W: traceFile})
		}
		if *failNode >= 0 && *failNode < len(pts) {
			s.FailNodeAt(*slots/2, *failNode)
		}
		switch *workload {
		case "convergecast":
			sim.Convergecast{N: len(pts), Sink: 0, Period: *period, Slots: *slots / 2, Stagger: true}.Install(s)
		case "poisson":
			sim.PoissonPairs{N: len(pts), Rate: *rate, Slots: *slots / 2, Seed: *seed, SameComponentOnly: true}.Install(s)
		default:
			fmt.Fprintf(stderr, "netsim: unknown workload %q\n", *workload)
			return 2
		}
		m := s.Run()
		t.AddRowf(name, core.Interference(pts, g).Max(), m.Injected, m.Delivered,
			m.DeliveryRatio(), m.CollisionRate(), m.Retransmits, m.MeanLatency(), m.Energy)
	}
	t.Render(stdout)
	return 0
}

func makeInstance(family string, n int, seed int64) ([]geom.Point, error) {
	rng := rand.New(rand.NewSource(seed))
	switch family {
	case "expchain":
		return gen.ExpChain(n, 1), nil
	case "highway":
		return gen.HighwayUniform(rng, n, float64(n)/10), nil
	case "uniform2d":
		return gen.UniformSquare(rng, n, 3), nil
	case "clustered2d":
		return gen.Clustered(rng, n, 1+n/40, 3, 0.25), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func builder(name string, pts []geom.Point, seed int64, annealIters int) func() *graph.Graph {
	oneD := func(f func([]geom.Point) *graph.Graph) func() *graph.Graph {
		if err := highway.Validate(pts); err != nil {
			return nil
		}
		return func() *graph.Graph { return f(pts) }
	}
	switch name {
	case "linear":
		return oneD(highway.Linear)
	case "aexp":
		return oneD(func(p []geom.Point) *graph.Graph { return highway.AExpRange(p, udg.Radius) })
	case "agen":
		return oneD(highway.AGen)
	case "aapx":
		return oneD(highway.AApx)
	case "mst":
		return func() *graph.Graph { return topology.MST(pts) }
	case "gg":
		return func() *graph.Graph { return topology.GG(pts) }
	case "rng":
		return func() *graph.Graph { return topology.RNG(pts) }
	case "xtc":
		return func() *graph.Graph { return topology.XTC(pts) }
	case "lmst":
		return func() *graph.Graph { return topology.LMST(pts) }
	case "life":
		return func() *graph.Graph { return topology.LIFE(pts) }
	case "nnf":
		return func() *graph.Graph { return topology.NNF(pts) }
	case "anneal":
		// Simulated-annealing topology: the optimizer's upper-bound
		// construction, simulated like any other. Powers `make trace-demo`
		// (anneal + sim in one traced run).
		return func() *graph.Graph {
			iters := annealIters
			if iters <= 0 {
				iters = 10 * len(pts)
			}
			return opt.RealizeForest(pts, opt.Anneal(pts, rand.New(rand.NewSource(seed)), iters).Radii)
		}
	default:
		return nil
	}
}
