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
//	    instance geometry: extent, hull, density, closest pair, Δ; on a
//	    highway also γ, its Lemma 5.5 bound and the |C_v| distribution
//	ifctl dump     -family gadget -n 120
//	    emit the instance as CSV (replayable via internal/encode)
//	ifctl svg      -family gadget -n 36 -alg NNF > gadget.svg
//	    render the instance + topology with interference disks
//	ifctl phys     -family gadget -n 12 -iters 6000
//	    anneal under the graph and the physical (SINR) measure, score
//	    both optima under both measures
//	ifctl dist     -family highway -n 300 -side 30
//	    run the distributed protocols on the synchronous runtime:
//	    rounds, messages, and a check against the centralized output
//	ifctl highway  -n 2048 -side 50 -iters 2000
//	    Linear, A_gen and A_apx on the random highway families
//	    (uniform, bursty, expfrag) against √Δ and the Ω(√γ) bound
//	ifctl spacing  -family highway -n 2000 -side 50
//	    sweep A_gen's hub spacing around the paper's ⌈√Δ⌉
//	ifctl log-dump -data /var/lib/rimd
//	    print a rimd data directory's write-ahead log (one line per
//	    record, each batch's ops beneath it) and checkpoints, read-only
//
// Families: uniform, clustered, highway, expchain, gadget (T4.1),
// figure1. The 1-D subcommands highway and spacing default to
// -family highway.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/exp"
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
	defFamily := "uniform"
	if cmd == "highway" || cmd == "spacing" {
		defFamily = "highway"
	}
	family := fs.String("family", defFamily, "instance family: uniform|clustered|highway|expchain|gadget|figure1")
	n := fs.Int("n", 100, "node count (expchain <= 44; gadget rounds to a multiple of 3)")
	side := fs.Float64("side", 4, "square side / highway length")
	seed := fs.Int64("seed", 1, "instance seed")
	alg := fs.String("alg", "MST", "algorithm name for measure/profile/svg (see 'compare' output)")
	csv := fs.Bool("csv", false, "emit CSV")
	heat := fs.Bool("heat", false, "overlay the interference heatmap in 'svg' output")
	iters := fs.Int("iters", 0, "annealing iterations for 'phys' (0 = 400·n) and 'highway' (0 = skip the bound)")
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
	case "dist":
		distCosts(stdout, *family, pts)
	case "highway":
		if *family != "highway" {
			fmt.Fprintf(stderr, "ifctl: highway draws the random highway families itself; -family must be highway (got %q)\n", *family)
			return 2
		}
		highwayCompare(stdout, *n, *side, *seed, *iters)
	case "spacing":
		if err := highway.Validate(pts); err != nil {
			fmt.Fprintln(stderr, "ifctl: spacing needs a 1-D instance (-family highway or expchain):", err)
			return 2
		}
		spacingSweep(stdout, pts)
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
	fmt.Fprintln(w, `usage: ifctl <compare|measure|optimal|profile|stats|dump|svg|phys|dist|highway|spacing|log-dump> [flags]
  compare  run the full topology-control zoo and tabulate interference
  measure  per-node interference report for one algorithm (-alg)
  optimal  exact minimum-interference topology (small instances)
  profile  full quality profile for one algorithm (-alg)
  stats    instance geometry: extent, hull, density, closest pair, Δ, γ
  dump     emit the generated instance as CSV
  svg      render the instance + topology (-alg) with interference disks
  phys     anneal under graph and physical (SINR) measures, score both ways
  dist     distributed protocols: rounds, messages, match with centralized
  highway  Linear/A_gen/A_apx on random highway families (-iters: anneal bound)
  spacing  A_gen hub-spacing sweep on a 1-D instance
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

// makeInstance draws the -family instance. Out-of-range parameters are
// errors, not generator panics: a negative -n, an expchain outside
// [1, gen.MaxExpChainN], a figure1 below 3 nodes, or a -side that is not
// a positive finite number.
func makeInstance(family string, n int, side float64, seed int64) ([]geom.Point, error) {
	switch {
	case n < 0:
		return nil, fmt.Errorf("-n must be >= 0 (got %d)", n)
	case family == "expchain" && (n < 1 || n > gen.MaxExpChainN):
		return nil, fmt.Errorf("expchain needs 1 <= -n <= %d (got %d)", gen.MaxExpChainN, n)
	case family == "figure1" && n < 3:
		return nil, fmt.Errorf("figure1 needs -n >= 3 (got %d)", n)
	case math.IsNaN(side) || math.IsInf(side, 0) || side <= 0:
		return nil, fmt.Errorf("-side must be a positive finite number (got %v)", side)
	}
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
	for _, e := range opt.RealizeForest(pts, res.Radii).SortedEdges() {
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
		cs := highway.CriticalSet(pts, at)
		// |C_v| is v's interference under the linear topology.
		iv := core.Interference(pts, highway.Linear(pts))
		t.AddRowf("γ (highway, Def 5.2)", fmt.Sprintf("%d at node %d (x=%.4g)", gamma, at, pts[at].X))
		t.AddRowf("Lemma 5.5 lower bound on OPT", highway.GammaLowerBound(gamma))
		t.AddRowf("critical set C_v at γ", fmt.Sprintf("%d nodes %v", len(cs), cs))
		t.AddRowf("|C_v| distribution", stats.Summarize(stats.IntsToFloats(iv)).String())
	}
	t.Render(stdout)
}

// distCosts runs every distributed protocol that applies to pts (A_gen
// only on highways) on the synchronous runtime, next to exp.DistCostX11
// which uses the same protocol list.
func distCosts(stdout io.Writer, family string, pts []geom.Point) {
	t := tablefmt.New(
		fmt.Sprintf("Distributed protocols on %s (%s)", family, gen.Describe(pts)),
		"protocol", "rounds", "messages", "edges", "recv_I", "matches_centralized")
	for _, p := range exp.DistProtocols(pts) {
		rt, got, match := exp.RunDist(pts, p)
		t.AddRowf(p.Name, rt.Rounds, rt.Messages, got.M(), core.Interference(pts, got).Max(), match)
	}
	t.Render(stdout)
}

// highwayCompare draws three random highway families of length side from
// one seeded stream and tabulates Linear, A_gen and A_apx against √Δ and
// the Lemma 5.5 bound. With iters > 0 each family also gets an annealed
// upper bound on the optimum, drawn from the same stream.
func highwayCompare(stdout io.Writer, n int, side float64, seed int64, iters int) {
	rng := rand.New(rand.NewSource(seed))
	families := []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform", gen.HighwayUniform(rng, n, side)},
		{"bursty", gen.HighwayBursty(rng, n, 1+n/64, side, 0.3)},
		{"expfrag", gen.HighwayExpFragments(rng, 1+n/50, 8, side)},
	}
	t := tablefmt.New(
		fmt.Sprintf("Random highway instances (n=%d, len=%.0f, seed=%d)", n, side, seed),
		"family", "delta", "gamma", "I_lin", "I_agen", "I_apx", "branch", "sqrt_delta", "lb_sqrt_gamma2", "anneal_ub")
	for _, f := range families {
		delta := udg.MaxDegree(f.pts, udg.Radius)
		gamma, _ := highway.Gamma(f.pts)
		lin := core.Interference(f.pts, highway.Linear(f.pts)).Max()
		agen := core.Interference(f.pts, highway.AGen(f.pts)).Max()
		gApx, branch := highway.AApxExplain(f.pts)
		apx := core.Interference(f.pts, gApx).Max()
		annCell := "-"
		if iters > 0 {
			annCell = fmt.Sprintf("%d", opt.Anneal(f.pts, rng, iters).Interference)
		}
		t.AddRowf(f.name, delta, gamma, lin, agen, apx, branch,
			math.Sqrt(float64(delta)), highway.GammaLowerBound(gamma), annCell)
	}
	t.Render(stdout)
}

// spacingSweep sweeps A_gen's hub spacing around the paper's ⌈√Δ⌉:
// spacing 1 degenerates to the linear chain, spacing Δ concentrates all
// regular nodes on one hub per segment.
func spacingSweep(stdout io.Writer, pts []geom.Point) {
	delta := udg.MaxDegree(pts, udg.Radius)
	sqrtD := int(math.Ceil(math.Sqrt(float64(delta))))
	t := tablefmt.New(
		fmt.Sprintf("A_gen hub-spacing ablation (n=%d, Δ=%d, paper's choice ⌈√Δ⌉=%d)", len(pts), delta, sqrtD),
		"spacing", "I_agen", "I/sqrt_delta")
	for _, sp := range []int{1, sqrtD / 2, sqrtD, 2 * sqrtD, delta} {
		sp = max(sp, 1)
		got := core.Interference(pts, highway.AGenSpacing(pts, sp)).Max()
		t.AddRowf(sp, got, float64(got)/math.Sqrt(float64(delta)))
	}
	t.Render(stdout)
}
