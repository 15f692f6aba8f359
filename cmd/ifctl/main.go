// Command ifctl ("interference control") generates instances, runs
// topology-control algorithms over them, and reports both interference
// measures. It is the general-purpose workbench of the library.
//
// Subcommands:
//
//	ifctl compare  -family uniform -n 250 -side 4 -seed 1
//	    run the whole algorithm zoo and tabulate recv/send interference
//	ifctl measure  -family clustered -n 200 -alg MST
//	    detailed per-node report for one algorithm
//	ifctl optimal  -family highway -n 10
//	    exact minimum-interference topology (small n)
//	ifctl profile  -family uniform -n 120 -alg GreedyI
//	    full quality profile: both measures, degree, stretch, energy
//	ifctl stats    -family clustered -n 200
//	    instance geometry: extent, hull, density, closest pair, Δ, γ
//	ifctl dump     -family gadget -n 120
//	    emit the instance as CSV (replayable via internal/encode)
//	ifctl svg      -family gadget -n 36 -alg NNF > gadget.svg
//	    render the instance + topology with interference disks
//	ifctl phys     -family gadget -n 12 -iters 6000
//	    anneal under the graph and the physical (SINR) measure, score
//	    both optima under both measures
//	ifctl log-dump -data /var/lib/rimd
//	    print a rimd data directory's write-ahead log (one line per
//	    record, each batch's ops beneath it) and checkpoints, read-only
//
// Families: uniform, clustered, highway, expchain, gadget (T4.1),
// figure1.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/highway"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/phys"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tablefmt"
	"repro/internal/topology"
	"repro/internal/udg"
	"repro/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	if cmd == "log-dump" {
		return logDump(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "uniform", "instance family: uniform|clustered|highway|expchain|gadget|figure1")
	n := fs.Int("n", 100, "node count (expchain <= 44; gadget rounds to a multiple of 3)")
	side := fs.Float64("side", 4, "square side / highway length")
	seed := fs.Int64("seed", 1, "instance seed")
	alg := fs.String("alg", "MST", "algorithm name for measure/profile/svg (see 'compare' output)")
	csv := fs.Bool("csv", false, "emit CSV")
	heat := fs.Bool("heat", false, "overlay the interference heatmap in 'svg' output")
	iters := fs.Int("iters", 0, "annealing iterations for 'phys' (0 = 400·n)")
	var ocli obs.CLI
	ocli.AddFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	ostop, oerr := ocli.Start("ifctl", args)
	if oerr != nil {
		fmt.Fprintln(stderr, "ifctl:", oerr)
		return 1
	}
	defer func() { ostop(stderr) }()
	ocli.SetSeed(*seed)

	pts, err := makeInstance(*family, *n, *side, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "ifctl:", err)
		return 2
	}
	switch cmd {
	case "compare":
		compare(stdout, pts, *csv)
	case "measure":
		return measure(stdout, stderr, pts, *alg)
	case "optimal":
		return optimal(stdout, stderr, pts)
	case "profile":
		return profile(stdout, stderr, pts, *alg)
	case "stats":
		instanceStats(stdout, pts)
	case "phys":
		physCompare(stdout, pts, *seed, *iters, *csv)
	case "svg":
		a, ok := findAlg(*alg)
		if !ok {
			fmt.Fprintf(stderr, "ifctl: unknown algorithm %q\n", *alg)
			return 2
		}
		if err := viz.WriteSVG(stdout, pts, a.Build(pts), viz.Options{Disks: true, Labels: len(pts) <= 60, Heatmap: *heat}); err != nil {
			fmt.Fprintln(stderr, "ifctl:", err)
			return 1
		}
	case "dump":
		if err := encode.WriteInstance(stdout, pts); err != nil {
			fmt.Fprintln(stderr, "ifctl:", err)
			return 1
		}
	default:
		usage(stderr)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: ifctl <compare|measure|optimal|profile|stats|dump|svg|phys|log-dump> [flags]
  compare  run the full topology-control zoo and tabulate interference
  measure  per-node interference report for one algorithm (-alg)
  optimal  exact minimum-interference topology (small instances)
  profile  full quality profile for one algorithm (-alg)
  stats    instance geometry: extent, hull, density, closest pair, Δ, γ
  dump     emit the generated instance as CSV
  svg      render the instance + topology (-alg) with interference disks
  phys     anneal under graph and physical (SINR) measures, score both ways
  log-dump print a rimd data directory's WAL and checkpoints (-data DIR)
run "ifctl compare -h" for flags`)
}

// logDump prints the mutation record of a rimd data directory
// (serve.DumpLog). The directory is opened read-only: one without a
// wal/ subdirectory is refused, and nothing in it is written or healed.
func logDump(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("log-dump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	data := fs.String("data", "", "rimd data directory (its -data-dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *data == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "ifctl: log-dump needs -data DIR and no arguments")
		return 2
	}
	st, err := store.OpenReadOnly(*data)
	if err != nil {
		fmt.Fprintln(stderr, "ifctl:", err)
		return 1
	}
	defer st.Close()
	if err := serve.DumpLog(stdout, st); err != nil {
		fmt.Fprintln(stderr, "ifctl:", err)
		return 1
	}
	return 0
}

func makeInstance(family string, n int, side float64, seed int64) ([]geom.Point, error) {
	rng := rand.New(rand.NewSource(seed))
	switch family {
	case "uniform":
		return gen.UniformSquare(rng, n, side), nil
	case "clustered":
		return gen.Clustered(rng, n, 1+n/40, side, side/16), nil
	case "highway":
		return gen.HighwayUniform(rng, n, side), nil
	case "expchain":
		return gen.ExpChain(n, 1), nil
	case "gadget":
		k := n / 3
		if k < 2 {
			k = 2
		}
		return gen.DoubleExpChain(k), nil
	case "figure1":
		return gen.Figure1(rng, n, 0.2), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func findAlg(name string) (topology.Algorithm, bool) {
	for _, a := range topology.All() {
		if a.Name == name {
			return a, true
		}
	}
	return topology.Algorithm{}, false
}

func compare(stdout io.Writer, pts []geom.Point, csv bool) {
	t := tablefmt.New(
		fmt.Sprintf("Topology-control comparison (%s, Δ=%d)", gen.Describe(pts), udg.MaxDegree(pts, udg.Radius)),
		"algorithm", "recv_I", "mean_recv_I", "send_I", "max_deg", "edges", "contains_NNF")
	for _, a := range topology.All() {
		g := a.Build(pts)
		iv := core.Interference(pts, g)
		_, send := core.SenderInterference(pts, g)
		t.AddRowf(a.Name, iv.Max(), iv.Mean(), send, g.MaxDegree(), g.M(), a.ContainsNNF)
	}
	if csv {
		t.RenderCSV(stdout)
		return
	}
	t.Render(stdout)
}

func measure(stdout, stderr io.Writer, pts []geom.Point, name string) int {
	found, ok := findAlg(name)
	if !ok {
		fmt.Fprintf(stderr, "ifctl: unknown algorithm %q\n", name)
		return 2
	}
	g := found.Build(pts)
	iv := core.Interference(pts, g)
	sum := stats.Summarize(stats.IntsToFloats(iv))
	fmt.Fprintf(stdout, "%s on %s\n", name, gen.Describe(pts))
	fmt.Fprintf(stdout, "I(G') = %d at node %d; distribution: %s\n", iv.Max(), iv.ArgMax(), sum)
	// Top offenders.
	type nodeI struct{ node, i int }
	top := make([]nodeI, len(iv))
	for v, x := range iv {
		top[v] = nodeI{v, x}
	}
	sort.Slice(top, func(a, b int) bool { return top[a].i > top[b].i })
	limit := 10
	if len(top) < limit {
		limit = len(top)
	}
	t := tablefmt.New("highest-interference nodes", "node", "I(v)", "degree", "witnesses")
	for _, x := range top[:limit] {
		t.AddRowf(x.node, x.i, g.Degree(x.node), fmt.Sprintf("%v", core.CoveredBy(pts, g, x.node)))
	}
	t.Render(stdout)
	return 0
}

func optimal(stdout, stderr io.Writer, pts []geom.Point) int {
	if len(pts) > opt.MaxExactN {
		fmt.Fprintf(stderr, "ifctl: exact optimum needs n <= %d (got %d); use smaller -n\n", opt.MaxExactN, len(pts))
		return 2
	}
	res := opt.Exact(pts)
	fmt.Fprintf(stdout, "instance: %s\n", gen.Describe(pts))
	fmt.Fprintf(stdout, "optimal interference: %d (proved: %v, %d search nodes)\n", res.Interference, res.Exact, res.Visited)
	t := tablefmt.New("optimal topology", "edge", "length")
	for _, e := range res.Topology.SortedEdges() {
		t.AddRowf(fmt.Sprintf("(%d,%d)", e.U, e.V), e.W)
	}
	t.Render(stdout)
	return 0
}

func profile(stdout, stderr io.Writer, pts []geom.Point, name string) int {
	algo, ok := findAlg(name)
	if !ok {
		fmt.Fprintf(stderr, "ifctl: unknown algorithm %q\n", name)
		return 2
	}
	p := report.Build(pts, algo.Build(pts))
	t := tablefmt.New(fmt.Sprintf("%s on %s", name, gen.Describe(pts)), "metric", "value")
	t.AddRowf("recv_I (Def 3.2)", p.RecvMax)
	t.AddRowf("recv_I mean", p.RecvMean)
	t.AddRowf("send_I ([2])", p.SendMax)
	t.AddRowf("edges", p.Edges)
	t.AddRowf("max degree", p.MaxDegree)
	t.AddRowf("stretch vs UDG", p.Stretch)
	t.AddRowf("radii energy (α=2)", p.RadiiEnergy)
	t.AddRowf("total edge length", p.TotalLength)
	t.AddRowf("bridges / cut vertices", fmt.Sprintf("%d / %d", p.Bridges, p.CutVertices))
	t.AddRowf("connectivity preserved", p.PreservesConnectivity)
	t.Render(stdout)
	return 0
}

// physCompare anneals the instance under both interference measures and
// scores each optimum under each measure — the CLI face of experiment
// X13. A large sinr_I in the graph row is the disk abstraction failing:
// the graph-optimal radii accumulate physical power the disk measure
// never counted.
func physCompare(stdout io.Writer, pts []geom.Point, seed int64, iters int, csv bool) {
	if iters <= 0 {
		iters = 400 * len(pts)
	}
	m := phys.Default()
	score := func(radii []float64) (graphI, sinrI int) {
		ev := phys.NewEvaluator(pts, m)
		ev.BatchSet(radii, 0)
		return core.InterferenceRadii(pts, radii).Max(), ev.Max()
	}
	graphRes := opt.Anneal(pts, rand.New(rand.NewSource(seed)), iters)
	physRes := opt.AnnealWith(phys.NewMeasure, pts, rand.New(rand.NewSource(seed)), iters)
	t := tablefmt.New(
		fmt.Sprintf("graph vs physical optima (%s, %d anneal iters)", gen.Describe(pts), iters),
		"annealed_under", "graph_I", "sinr_I")
	gg, gs := score(graphRes.Radii)
	pg, ps := score(physRes.Radii)
	t.AddRowf("graph", gg, gs)
	t.AddRowf("sinr", pg, ps)
	if csv {
		t.RenderCSV(stdout)
		return
	}
	t.Render(stdout)
	fmt.Fprintf(stdout, "sinr_I = max integer SINR level (α=%g β=%g far-field=%g·r); far-field truncation bound %.3g levels\n",
		m.PathLoss, m.Beta, m.FarField, m.TruncationBound(len(pts)))
}

// instanceStats prints the geometric profile of the generated instance.
func instanceStats(stdout io.Writer, pts []geom.Point) {
	t := tablefmt.New(fmt.Sprintf("Instance geometry (%s)", gen.Describe(pts)), "metric", "value")
	t.AddRowf("nodes", len(pts))
	if len(pts) == 0 {
		t.Render(stdout)
		return
	}
	b := geom.Bounds(pts)
	t.AddRowf("extent", fmt.Sprintf("%.4g x %.4g", b.Width(), b.Height()))
	hull := geom.ConvexHull(pts)
	area := geom.PolygonArea(hull)
	t.AddRowf("hull vertices", len(hull))
	t.AddRowf("hull area", area)
	if area > 0 {
		t.AddRowf("density (nodes/area)", float64(len(pts))/area)
	}
	if i, j, d := geom.ClosestPair(pts); i >= 0 {
		t.AddRowf("closest pair", fmt.Sprintf("(%d,%d) at %.4g", i, j, d))
	}
	t.AddRowf("UDG max degree Δ", udg.MaxDegree(pts, udg.Radius))
	if highway.Validate(pts) == nil && len(pts) >= 2 {
		gamma, at := highway.Gamma(pts)
		t.AddRowf("γ (highway, Def 5.2)", fmt.Sprintf("%d at node %d", gamma, at))
	}
	t.Render(stdout)
}
