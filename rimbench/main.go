// Command rimbench is the repository benchmark. It runs one workload of
// the rim stack in a single process, built the way rimd's defaults build
// it (observability on with span sample 16, a subscription hub attached,
// queue cap 1024, batch cap 256, fsync=batch wherever a data directory
// is used), checks the workload's outputs against internal/oracle, and
// prints one JSON result line last.
//
//	rimbench -dir .bench_build --workload wire_mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, which
// times calls into each layer's public functions from outside through
// the probes in probes.go, plus trace.overhead_frac against an untraced
// run of the same length.
//
// The workloads and their metrics are described in WORKLOADS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, for every workload.
// Each workload gives rate_per_s and time_ms its own meaning;
// WORKLOADS.md maps them onto the workload's named figures.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"rate_per_s", "1/s"},
	{"time_ms", "ms"},
}

// perLayer are the metrics a --trace 1 run reports, for every workload.
// A layer a workload leaves idle reads 0 there.
var perLayer = []metricDef{
	{"wire.cpu_us_per_op", "us"},
	{"wire.ops_per_server_write", "count"},
	{"wire.ops_per_server_read", "count"},
	{"wire.bytes_per_op", "B"},
	{"wire.summary_p50_us", "us"},
	{"wire.mutate_p50_us", "us"},
	{"wire.mutate_p99_us", "us"},
	{"wire.failed_frac", "ratio"},
	{"serve.ops_per_batch", "count"},
	{"serve.batch_p50_us", "us"},
	{"serve.batch_p99_us", "us"},
	{"serve.batch_self_us", "us"},
	{"serve.ingress_wait_p50_us", "us"},
	{"core.move_p50_us", "us"},
	{"core.setradius_p50_us", "us"},
	{"core.addpoint_p50_us", "us"},
	{"core.removepoint_p50_us", "us"},
	{"core.calls_per_mutation", "count"},
	{"phys.setradius_p50_us", "us"},
	{"phys.growto_p50_us", "us"},
	{"phys.restore_p50_us", "us"},
	{"opt.engine_share_graph", "ratio"},
	{"opt.engine_share_sinr", "ratio"},
	{"dynamic.insert_p50_us", "us"},
	{"dynamic.remove_p50_us", "us"},
	{"dynamic.move_p50_us", "us"},
	{"dynamic.endbatch_p50_us", "us"},
	{"dynamic.rebuilds", "count"},
	{"dynamic.joinleave_share", "ratio"},
	{"serve.recover_outside_batch_share", "ratio"},
	{"store.bytes_per_mutation", "B"},
	{"store.writes_per_batch", "count"},
	{"store.sync_p50_us", "us"},
	{"store.read_s", "s"},
	{"store.read_mb", "MB"},
	{"repl.bytes_per_mutation", "B"},
	{"repl.mutations_per_write", "count"},
	{"repl.follower_apply_share", "ratio"},
	{"sub.match_p50_us", "us"},
	{"sub.match_p99_us", "us"},
	{"sub.checks_per_batch", "count"},
	{"sub.events_per_check", "ratio"},
	{"sub.push_p50_us", "us"},
	{"sub.gaps", "count"},
	{"sub.dropped", "count"},
	{"ledger.ingress_share", "ratio"},
	{"ledger.store_share", "ratio"},
	{"ledger.engine_share", "ratio"},
	{"ledger.serve_self_share", "ratio"},
	{"ledger.match_share", "ratio"},
	{"ledger.push_share", "ratio"},
	{"ledger.unattributed_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// env is what a workload gets from the command line.
type env struct {
	seed int64
	work string    // scratch directory of this run, removed at exit
	base time.Time // the tracer clock's zero
}

// phase is the outcome of one measured phase of a workload.
type phase struct {
	attempted, failed int64
	e2e               map[string]float64 // rate_per_s, time_ms
	layer             map[string]float64 // traced phases only
	notes             []string           // human-readable lines printed before the result
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// run measures for d and returns the phase's figures.
	run(d time.Duration) (*phase, error)
	// check verifies the outputs after run, outside the timed region,
	// and returns every problem found.
	check() []string
	close()
}

// workload builds an instance; tr is nil for untraced runs.
type workload struct {
	name    string
	primary string // the end-to-end metric trace.overhead_frac compares
	higher  bool   // whether a larger primary is better
	setup   func(e *env, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"wire_mixed", "rate_per_s", true, setupWireMixed},
	{"live_churn", "time_ms", false, setupLiveChurn},
	{"recover", "time_ms", false, setupRecover},
	{"anneal", "time_ms", false, setupAnneal},
}

// setups is how many times an untraced run sets its workload up; setup_s
// is their median.
const setups = 3

// procs caps GOMAXPROCS: load and server share one process on a host
// with this many vCPUs or more.
const procs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("dir", ".bench_build", "directory for scratch data and span files")
		name    = fs.String("workload", "", "workload: wire_mixed, live_churn, recover or anneal")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 10, "measured seconds")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "rimbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	// rimd's defaults: observability on, every 16th root span sampled.
	obs.SetEnabled(true)
	obs.DefaultRecorder().SetSample(16)

	work := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "rimbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, work: work, base: time.Now()}
	d := time.Duration(*seconds * float64(time.Second))

	var res *result
	var notes []string
	var err error
	if *trace == 0 {
		res, notes, err = measure(e, wl, d)
	} else {
		spans := filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		res, notes, err = measureTraced(e, wl, d, spans)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rimbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "# %s = %s %s\n", k, strconv.FormatFloat(res.Metrics[k].Value, 'g', -1, 64), res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "rimbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// measure is the untraced run: set up several times (setup_s is the
// median), measure the last instance, check it.
func measure(e *env, wl *workload, d time.Duration) (*result, []string, error) {
	var times, wall []float64 // set-up CPU and wall seconds
	var inst instance
	for i := 0; i < setups; i++ {
		// Set-up is timed in process CPU time, like the CPU-bound figures
		// (WORKLOADS.md): host CPU steal does not inflate it, and work
		// moved into set-up still shows.
		t0, c0 := time.Now(), cpuTime()
		in, err := wl.setup(e, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		if i < setups-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()
	steal0, stealOK := stealTicks()
	t0 := time.Now()
	ph, err := inst.run(d)
	if err != nil {
		return nil, nil, err
	}
	if steal1, ok := stealTicks(); ok && stealOK {
		// The host's CPU steal over the run: the reason wall-clock
		// figures are not gated (WORKLOADS.md).
		cpus := float64(runtime.NumCPU())
		ph.notes = append(ph.notes, fmt.Sprintf("host CPU steal during the run: %.1f%%",
			100*float64(steal1-steal0)/100/time.Since(t0).Seconds()/cpus))
	}
	problems := inst.check()
	res := &result{Correct: len(problems) == 0, Attempted: ph.attempted, Failed: ph.failed,
		Metrics: map[string]metricValue{}}
	vals := map[string]float64{"setup_s": median(times), "peak_rss_mb": peakRSSMB()}
	for k, v := range ph.e2e {
		vals[k] = v
	}
	for _, m := range endToEnd {
		v, ok := vals[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	notes := append(ph.notes, fmt.Sprintf("set-up CPU s %.3f, wall s %.3f", times, wall))
	return res, append(notes, problems...), nil
}

// measureTraced runs the workload twice for d/2 each, untraced and then
// traced, and reports the traced run's per-layer metrics plus the
// tracing overhead on the workload's primary metric.
func measureTraced(e *env, wl *workload, d time.Duration, spansPath string) (*result, []string, error) {
	var phases [2]*phase
	var problems []string
	var tr *tracer
	for i := range phases {
		if i == 1 {
			tr = newTracer(e.base)
		}
		inst, err := wl.setup(e, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		ph, err := inst.run(d / 2)
		if err != nil {
			inst.close()
			return nil, nil, err
		}
		problems = append(problems, inst.check()...)
		inst.close()
		phases[i] = ph
	}
	if err := tr.writeFile(spansPath); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	plain, traced := phases[0].e2e[wl.primary], phases[1].e2e[wl.primary]
	var overhead float64
	if plain > 0 && traced > 0 {
		if wl.higher {
			overhead = 1 - traced/plain
		} else {
			overhead = traced/plain - 1
		}
	}
	layer := phases[1].layer
	layer["trace.overhead_frac"] = overhead
	res := &result{Correct: len(problems) == 0,
		Attempted: phases[0].attempted + phases[1].attempted,
		Failed:    phases[0].failed + phases[1].failed,
		Metrics:   map[string]metricValue{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{layer[m.name], m.unit}
	}
	notes := append(phases[1].notes, fmt.Sprintf("untraced %s=%g, traced %s=%g", wl.primary, plain, wl.primary, traced))
	notes = append(notes, "spans written to "+spansPath)
	return res, append(notes, problems...), nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the host's cumulative CPU steal, in clock ticks
// (USER_HZ, 100 per second on Linux), from /proc/stat.
func stealTicks() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}
