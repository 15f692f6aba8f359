// Command rimload is an open-loop load generator for the rimwire binary
// front door. It schedules operations by Poisson arrivals at a fixed
// target rate and measures each operation's latency from its *intended*
// arrival time, not from when the socket write happened — so a slow
// server inflates the tail instead of silently slowing the generator
// down (no coordinated omission).
//
//	rimload -addr 127.0.0.1:8087                  # against a running rimd -wire-addr
//	rimload -self -profile smoke                  # boots an in-process server, 3s sanity run
//	rimload -self -profile full                   # 30s saturation run
//
// The mixed workload is read-frac summary reads against single-op
// SetRadius mutate frames; because each mutation rides its own pipelined
// frame, the server's batch accumulation and owner-side coalescing are
// both on the measured path.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// profile bundles the knobs of a named run shape; explicit flags
// override individual fields.
type profile struct {
	rate     float64
	duration time.Duration
	n        int
	conns    int
	readFrac float64
}

var profiles = map[string]profile{
	// smoke: fast enough for CI, slow enough that the generator is never
	// the bottleneck — checks the harness, not the server's limits.
	"smoke": {rate: 20000, duration: 3 * time.Second, n: 1024, conns: 2, readFrac: 0.9},
	// full: the saturation shape behind BENCH_4's open-loop numbers.
	"full": {rate: 200000, duration: 30 * time.Second, n: 4096, conns: 8, readFrac: 0.9},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// issue is one scheduled operation in flight: the response handle plus
// the arrival time the open-loop schedule intended for it.
type issue struct {
	p        *wire.Pending
	intended time.Time
	read     bool
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rimload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "rimwire server address (required unless -self)")
		self     = fs.Bool("self", false, "boot an in-process manager + wire server on loopback and load that")
		prof     = fs.String("profile", "smoke", "run shape: smoke or full")
		rate     = fs.Float64("rate", 0, "target arrival rate in ops/s (0 = profile default)")
		duration = fs.Duration("duration", 0, "run length (0 = profile default)")
		conns    = fs.Int("conns", 0, "client connections (0 = profile default)")
		readFrac = fs.Float64("read-frac", -1, "fraction of ops that are summary reads (-1 = profile default)")
		n        = fs.Int("n", 0, "session size created via CreateGen (0 = profile default)")
		seed     = fs.Int64("seed", 1, "RNG seed for arrivals and op mix")
		session  = fs.String("session", "rimload", "session id to create and load")
		crc      = fs.Bool("crc", false, "enable per-frame CRC32-C on the connection")
		trace    = fs.Bool("trace", false, "negotiate trace-context extensions and stamp every mutate frame with a fresh sampled trace")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, ok := profiles[*prof]
	if !ok {
		fmt.Fprintf(stderr, "rimload: unknown profile %q (want smoke or full)\n", *prof)
		return 2
	}
	if *rate > 0 {
		p.rate = *rate
	}
	if *duration > 0 {
		p.duration = *duration
	}
	if *conns > 0 {
		p.conns = *conns
	}
	if *readFrac >= 0 {
		p.readFrac = *readFrac
	}
	if *n > 0 {
		p.n = *n
	}
	if *addr == "" && !*self {
		fmt.Fprintln(stderr, "rimload: need -addr or -self")
		return 2
	}

	// -self: the whole serving stack in-process on a loopback socket, so
	// the rig is runnable (and testable) without a daemon. The loopback
	// hop is real — frames cross a TCP socket, not a net.Pipe.
	if *self {
		mgr := serve.NewManager(serve.Config{QueueCap: 8192, BatchCap: 512})
		srv := wire.NewServer(wire.ServerConfig{Manager: mgr, Registry: obs.NewRegistry()})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(stderr, "rimload: self listen: %v\n", err)
			return 1
		}
		go srv.Serve(ln)
		defer srv.Close()
		*addr = ln.Addr().String()
	}

	c, err := wire.Dial(wire.ClientConfig{Addr: *addr, Conns: p.conns, CRC: *crc, Trace: *trace})
	if err != nil {
		fmt.Fprintf(stderr, "rimload: dial: %v\n", err)
		return 1
	}
	defer c.Close()
	if _, err := c.CreateGen(*session, wire.GenSpec{N: uint32(p.n), Seed: *seed}); err != nil {
		if we, ok := err.(*wire.Error); !ok || we.Status != wire.StatusExists {
			fmt.Fprintf(stderr, "rimload: create: %v\n", err)
			return 1
		}
	}
	defer c.Drop(*session)

	fmt.Fprintf(stdout, "rimload: profile=%s addr=%s rate=%.0f/s duration=%s conns=%d read-frac=%.2f n=%d\n",
		*prof, *addr, p.rate, p.duration, p.conns, p.readFrac, p.n)

	res := drive(c, *session, p, *seed, *trace && c.Traced())

	fmt.Fprintf(stdout, "rimload: completed %d ops in %.2fs (%.0f ops/s achieved, target %.0f), %d backpressure, %d errors\n",
		res.completed, res.elapsed.Seconds(), res.achieved, p.rate, res.backpressure, res.errors)
	if res.completed > 0 {
		fmt.Fprintf(stdout, "rimload: latency ms (from intended arrival): p50=%.3f p90=%.3f p99=%.3f p999=%.3f max=%.3f\n",
			res.pct(0.50), res.pct(0.90), res.pct(0.99), res.pct(0.999), res.pct(1))
	}
	if res.errors > 0 {
		fmt.Fprintf(stderr, "rimload: first error: %v\n", res.firstErr)
		return 1
	}
	return 0
}

// result aggregates a finished run.
type result struct {
	completed    int
	elapsed      time.Duration
	achieved     float64 // completed ops per second of wall time
	backpressure int
	errors       int
	firstErr     error
	sortedNs     []int64 // ascending per-op latencies
}

// pct returns the q-quantile latency in milliseconds (q=1 → max).
func (r *result) pct(q float64) float64 {
	if len(r.sortedNs) == 0 {
		return 0
	}
	i := int(q * float64(len(r.sortedNs)-1))
	return float64(r.sortedNs[i]) / 1e6
}

// drive runs the open loop: one dispatcher schedules Poisson arrivals
// and submits pipelined requests; collectors await completions and
// record latency against the intended arrival time.
func drive(c *wire.Client, session string, p profile, seed int64, traced bool) result {
	inflight := make(chan issue, 1<<16)
	collectors := 8
	lats := make([][]int64, collectors)
	errs := make([]int, collectors)
	bps := make([]int, collectors)
	firstErrs := make([]error, collectors)
	var wg sync.WaitGroup
	for i := 0; i < collectors; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var ids []int64
			for is := range inflight {
				var err error
				if is.read {
					_, err = is.p.Summary()
				} else {
					ids, err = is.p.MutateIDs(ids[:0])
				}
				switch {
				case err == nil:
					lats[slot] = append(lats[slot], int64(time.Since(is.intended)))
				case wire.IsBackpressure(err):
					// Open loop: a shed op is counted, not retried — the
					// arrival schedule never slows down for the server.
					bps[slot]++
				default:
					errs[slot]++
					if firstErrs[slot] == nil {
						firstErrs[slot] = err
					}
				}
			}
		}(i)
	}

	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	deadline := start.Add(p.duration)
	next := start
	issued := 0
	for {
		// Exponential inter-arrival times → Poisson process at p.rate.
		next = next.Add(time.Duration(rng.ExpFloat64() / p.rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		// Plain sleep: at high rates the ~100µs timer granularity batches
		// a few arrivals together, which the pipelined client absorbs;
		// spinning to the exact tick instead was tried and measured far
		// worse (a busy dispatcher core inflates everyone's scheduling
		// latency, +14ms p50 on a 15µs-RTT loopback).
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		var is issue
		is.intended = next
		if rng.Float64() < p.readFrac {
			is.read = true
			is.p = c.GoSummary(session)
		} else {
			node := int64(rng.Intn(p.n))
			ops := []serve.Mutation{serve.SetRadius(node, 0.1+rng.Float64()*0.4)}
			if traced {
				// A fresh sampled root per mutation: the whole write path —
				// wire decode, queue, WAL, apply, publish — runs its traced
				// branches, which is what -trace is for (overhead and
				// end-to-end smoke, not span analysis of the rig itself).
				is.p = c.GoMutateTraced(session, ops, obs.TraceContext{TraceID: obs.NewTraceID(), Flags: obs.TraceFlagSampled})
			} else {
				is.p = c.GoMutate(session, ops)
			}
		}
		inflight <- is
		issued++
	}
	close(inflight)
	wg.Wait()
	elapsed := time.Since(start)

	var res result
	res.elapsed = elapsed
	for i := 0; i < collectors; i++ {
		res.sortedNs = append(res.sortedNs, lats[i]...)
		res.backpressure += bps[i]
		res.errors += errs[i]
		if res.firstErr == nil {
			res.firstErr = firstErrs[i]
		}
	}
	sort.Slice(res.sortedNs, func(a, b int) bool { return res.sortedNs[a] < res.sortedNs[b] })
	res.completed = len(res.sortedNs)
	if res.completed > 0 {
		res.achieved = float64(res.completed) / elapsed.Seconds()
	}
	// Keep percentile math honest if a clock hiccup produced a negative
	// sample (intended in the future is impossible by construction, but
	// monotonic-clock rounding can yield 0).
	if res.completed > 0 && res.sortedNs[0] < 0 {
		for i := range res.sortedNs {
			if res.sortedNs[i] < 0 {
				res.sortedNs[i] = 0
			}
		}
	}
	return res
}
