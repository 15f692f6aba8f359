// Command rimlive is the live-subscription workload rig: it drives a
// session with random-waypoint mobility churn (internal/mobility) while
// holding a pool of standing subscriptions (internal/sub) over the
// rimwire push frames, and measures update→notify latency — the time
// from issuing the move that produced an edge to the MsgEvent arriving
// back at the client.
//
//	rimlive -addr 127.0.0.1:8087                  # against a running rimd -wire-addr
//	rimlive -self -profile smoke                  # boots an in-process server, short sanity run
//	rimlive -self -profile bench -bench-line      # n=4096, 1200 subs, go-test-bench shaped line
//
// Latency attribution works off the session's mutation sequence: rimlive
// is the session's only writer and issues one Move per frame, so the
// k-th issued move commits as sequence k and every event's BatchSeq
// names the last move of the batch that produced it. The issue time of
// each move is kept in a ring indexed by sequence; an event's latency is
// the gap between its arrival and that timestamp. With -bench-line the
// final line is formatted like `go test -bench` output (`make sub-gate`
// runs it this way; cmd/benchjson parses it):
//
//	BenchmarkRimlive/profile=bench 18423 731842 ns/op 1842.3 events/s 0.41 p50_ms ...
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
	"sync/atomic"
	"time"

	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sub"
	"repro/internal/wire"
)

// profile bundles the knobs of a named run shape; explicit flags
// override individual fields.
type profile struct {
	n        int           // session size
	subs     int           // standing subscriptions
	duration time.Duration // run length
	tick     time.Duration // mobility step interval
	movers   int           // max moves issued per tick
	side     float64       // field side length (mobility area, sub regions)
	conns    int           // client connections
}

var profiles = map[string]profile{
	// smoke: small and fast — checks the rig end to end, not the limits.
	"smoke": {n: 256, subs: 64, duration: 1500 * time.Millisecond,
		tick: 20 * time.Millisecond, movers: 64, side: 16, conns: 2},
	// bench: the acceptance shape — n=4096 with >1000 standing
	// subscriptions under sustained mobility churn.
	// 128 movers at a 10ms tick is 12.8k moves/s — every node relocates
	// ~3×/s at n=4096, sustained. Double that saturates a single-core
	// host's scheduler (the load rig and the server share it) and the
	// update→notify tail measures preemption, not the pipeline.
	"bench": {n: 4096, subs: 1200, duration: 10 * time.Second,
		tick: 10 * time.Millisecond, movers: 128, side: 64, conns: 2},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// ring sizing: entries comfortably beyond any realistic in-flight window
// (queue cap × batch cap is the theoretical bound; bursts are far
// smaller), so a sequence's timestamp is never overwritten before its
// events arrive.
const (
	ringSize = 1 << 20
	ringMask = ringSize - 1
)

// collector receives pushed events on the client read loop and turns
// them into latency samples against the issue-time ring.
type collector struct {
	base   time.Time
	sendNs []int64 // issue times by sequence, atomic access

	mu     sync.Mutex
	lats   []int64
	byKind [4][]int64 // update→notify per predicate kind, indexed by sub.Kind
	events int64
	inits  int64
	gaps   int64
}

func (l *collector) onEvent(ev sub.Event) {
	if ev.Init() {
		atomic.AddInt64(&l.inits, 1)
		return
	}
	now := int64(time.Since(l.base))
	sent := atomic.LoadInt64(&l.sendNs[ev.BatchSeq&ringMask])
	l.mu.Lock()
	l.events++
	if ev.Gap() {
		l.gaps++
	}
	if sent > 0 && now >= sent {
		l.lats = append(l.lats, now-sent)
		if k := int(ev.Kind); k >= 1 && k < len(l.byKind) {
			l.byKind[k] = append(l.byKind[k], now-sent)
		}
	}
	l.mu.Unlock()
}

// quant picks the q-quantile of a sorted sample.
func quant(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// pctOf computes the q-quantile in milliseconds of a sorted
// nanosecond sample.
func pctOf(sorted []int64, q float64) float64 {
	return float64(quant(sorted, q)) / 1e6
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rimlive", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "", "rimwire server address (required unless -self)")
		self      = fs.Bool("self", false, "boot an in-process manager + hub + wire server on loopback")
		prof      = fs.String("profile", "smoke", "run shape: smoke or bench")
		duration  = fs.Duration("duration", 0, "run length (0 = profile default)")
		n         = fs.Int("n", 0, "session size (0 = profile default)")
		subs      = fs.Int("subs", 0, "standing subscriptions (0 = profile default)")
		movers    = fs.Int("movers", 0, "max moves per tick (0 = profile default)")
		seed      = fs.Int64("seed", 1, "RNG seed for mobility and subscription placement")
		session   = fs.String("session", "rimlive", "session id to create and drive")
		benchLine = fs.Bool("bench-line", false, "emit a go-test-bench formatted result line for benchjson")
		maxP99    = fs.Float64("max-p99-ms", 0, "fail (exit 1) if update→notify p99 exceeds this many ms (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, ok := profiles[*prof]
	if !ok {
		fmt.Fprintf(stderr, "rimlive: unknown profile %q (want smoke or bench)\n", *prof)
		return 2
	}
	if *duration > 0 {
		p.duration = *duration
	}
	if *n > 0 {
		p.n = *n
	}
	if *subs > 0 {
		p.subs = *subs
	}
	if *movers > 0 {
		p.movers = *movers
	}
	if *addr == "" && !*self {
		fmt.Fprintln(stderr, "rimlive: need -addr or -self")
		return 2
	}

	// -self: the whole stack in-process on a loopback socket — manager,
	// subscription hub wired into the batch seam, wire server with push
	// enabled. The loopback hop is real TCP.
	if *self {
		// Enable the observability layer so the in-process server's flight
		// recorder captures per-stage timings for the summary below; the
		// ring is reset so a previous in-process run cannot bleed in.
		if obs.Available {
			obs.SetEnabled(true)
			obs.ResetDefaultFlight(0, 0)
		}
		reg := obs.NewRegistry()
		hub := sub.NewHub(sub.Config{QueueCap: 1 << 15, Registry: reg})
		mgr := serve.NewManager(serve.Config{
			QueueCap: 8192, BatchCap: 512,
			AfterBatchDelta: hub.AfterBatchDelta,
		})
		srv := wire.NewServer(wire.ServerConfig{Manager: mgr, Registry: reg, Hub: hub})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(stderr, "rimlive: self listen: %v\n", err)
			return 1
		}
		go srv.Serve(ln)
		defer srv.Close()
		*addr = ln.Addr().String()
	}

	lab := &collector{base: time.Now(), sendNs: make([]int64, ringSize)}
	c, err := wire.Dial(wire.ClientConfig{Addr: *addr, Conns: p.conns, OnEvent: lab.onEvent})
	if err != nil {
		fmt.Fprintf(stderr, "rimlive: dial: %v\n", err)
		return 1
	}
	defer c.Close()

	// The mobility model is the instance: the session is created from its
	// initial positions, and every tick's displaced nodes become Move
	// mutations against their matching external ids (creation order is id
	// order).
	rng := rand.New(rand.NewSource(*seed))
	model := mobility.NewWaypoint(rng, p.n, p.side, p.side, 0.5, 3.0, 1.0)
	if _, err := c.Create(*session, model.Positions()); err != nil {
		fmt.Fprintf(stderr, "rimlive: create: %v\n", err)
		return 1
	}
	defer c.Drop(*session)

	// The subscription pool: mostly regions and thresholds spread over
	// the field, a sprinkle of global-max watches.
	for i := 0; i < p.subs; i++ {
		var pr sub.Predicate
		switch {
		case i%20 == 0:
			pr = sub.Predicate{Kind: sub.KindMax}
		case i%2 == 0:
			pr = sub.Predicate{Kind: sub.KindThreshold,
				K: int32(1 + rng.Intn(4)), Receiver: int64(rng.Intn(p.n))}
		default:
			pr = sub.Predicate{Kind: sub.KindRegion,
				X: rng.Float64() * p.side, Y: rng.Float64() * p.side, R: 0.5 + rng.Float64()*2}
		}
		if _, err := c.Subscribe(*session, pr); err != nil {
			fmt.Fprintf(stderr, "rimlive: subscribe: %v\n", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "rimlive: profile=%s addr=%s n=%d subs=%d duration=%s tick=%s movers=%d\n",
		*prof, *addr, p.n, p.subs, p.duration, p.tick, p.movers)

	issued, ticks, backpressure, errors, firstErr := drive(c, *session, p, model, lab)

	// Let the final batch's events cross the socket before reading the
	// tallies (Flush inside drive guarantees they were emitted hub-side).
	time.Sleep(200 * time.Millisecond)
	lab.mu.Lock()
	lats := append([]int64(nil), lab.lats...)
	var byKind [4][]int64
	for k := range lab.byKind {
		byKind[k] = append([]int64(nil), lab.byKind[k]...)
	}
	events, inits, gaps := lab.events, lab.inits, lab.gaps
	lab.mu.Unlock()
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	for k := range byKind {
		s := byKind[k]
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
	pct := func(q float64) float64 { return pctOf(lats, q) }
	elapsed := float64(ticks) * p.tick.Seconds()
	var meanNs, evPerSec float64
	if len(lats) > 0 {
		var sum int64
		for _, ns := range lats {
			sum += ns
		}
		meanNs = float64(sum) / float64(len(lats))
	}
	if elapsed > 0 {
		evPerSec = float64(events) / elapsed
	}

	fmt.Fprintf(stdout, "rimlive: stepped %d ticks, issued %d moves (%d backpressure, %d errors)\n",
		ticks, issued, backpressure, errors)
	fmt.Fprintf(stdout, "rimlive: received %d events (%d init, %d gap-marked), %.0f events/s\n",
		events, inits, gaps, evPerSec)
	if len(lats) > 0 {
		fmt.Fprintf(stdout, "rimlive: update→notify ms: p50=%.3f p90=%.3f p99=%.3f p999=%.3f max=%.3f\n",
			pct(0.50), pct(0.90), pct(0.99), pct(0.999), pct(1))
		for _, kn := range []struct {
			kind sub.Kind
			name string
		}{{sub.KindThreshold, "threshold"}, {sub.KindRegion, "region"}, {sub.KindMax, "max"}} {
			s := byKind[kn.kind]
			fmt.Fprintf(stdout, "rimlive: update→notify ms [%s]: p50=%.3f p99=%.3f (n=%d)\n",
				kn.name, pctOf(s, 0.50), pctOf(s, 0.99), len(s))
		}
	}

	// Server-side per-stage breakdown from the always-on flight recorder.
	// Only meaningful with -self: the records live in this process; a
	// remote rimd's are behind its own /debug/obs/flight.
	var stages [6][]int64 // queue, coalesce, wal, apply, settle, publish (µs)
	if *self && obs.Available {
		for _, fr := range obs.DefaultFlight().Records() {
			if fr.Session != *session {
				continue
			}
			stages[0] = append(stages[0], int64(fr.QueueUS))
			stages[1] = append(stages[1], int64(fr.CoalesceUS))
			stages[2] = append(stages[2], int64(fr.WALUS))
			stages[3] = append(stages[3], int64(fr.ApplyUS))
			stages[4] = append(stages[4], int64(fr.SettleUS))
			stages[5] = append(stages[5], int64(fr.PublishUS))
		}
		for i := range stages {
			s := stages[i]
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		}
		if n := len(stages[0]); n > 0 {
			stageUS := func(i int, q float64) float64 { return float64(quant(stages[i], q)) }
			fmt.Fprintf(stdout, "rimlive: server stages µs (p50/p99 over %d batches): queue=%.0f/%.0f coalesce=%.0f/%.0f wal=%.0f/%.0f apply=%.0f/%.0f settle=%.0f/%.0f publish=%.0f/%.0f\n",
				n, stageUS(0, .5), stageUS(0, .99), stageUS(1, .5), stageUS(1, .99),
				stageUS(2, .5), stageUS(2, .99), stageUS(3, .5), stageUS(3, .99),
				stageUS(4, .5), stageUS(4, .99), stageUS(5, .5), stageUS(5, .99))
		}
	}
	if errors > 0 {
		fmt.Fprintf(stderr, "rimlive: first error: %v\n", firstErr)
		return 1
	}
	if inits == 0 || events == 0 {
		fmt.Fprintf(stderr, "rimlive: no edge events flowed (events=%d inits=%d) — dead rig\n", events, inits)
		return 1
	}
	if *benchLine {
		// Shaped exactly like a `go test -bench` line so cmd/benchjson
		// parses it: name, run count, then value/unit pairs. Per-kind
		// update→notify and per-stage server percentiles ride along as
		// extra pairs (stage pairs are zero when not run with -self).
		fmt.Fprintf(stdout, "BenchmarkRimlive/profile=%s %d %.0f ns/op %.1f events/s %.4f p50_ms %.4f p99_ms %.4f p999_ms %.1f gaps",
			*prof, len(lats), meanNs, evPerSec, pct(0.50), pct(0.99), pct(0.999), float64(gaps))
		fmt.Fprintf(stdout, " %.4f thr_p50_ms %.4f thr_p99_ms %.4f reg_p50_ms %.4f reg_p99_ms %.4f max_p50_ms %.4f max_p99_ms",
			pctOf(byKind[sub.KindThreshold], 0.50), pctOf(byKind[sub.KindThreshold], 0.99),
			pctOf(byKind[sub.KindRegion], 0.50), pctOf(byKind[sub.KindRegion], 0.99),
			pctOf(byKind[sub.KindMax], 0.50), pctOf(byKind[sub.KindMax], 0.99))
		fmt.Fprintf(stdout, " %d queue_p50_us %d queue_p99_us %d coalesce_p50_us %d coalesce_p99_us %d wal_p50_us %d wal_p99_us %d apply_p50_us %d apply_p99_us %d settle_p50_us %d settle_p99_us %d publish_p50_us %d publish_p99_us\n",
			quant(stages[0], .5), quant(stages[0], .99), quant(stages[1], .5), quant(stages[1], .99),
			quant(stages[2], .5), quant(stages[2], .99), quant(stages[3], .5), quant(stages[3], .99),
			quant(stages[4], .5), quant(stages[4], .99), quant(stages[5], .5), quant(stages[5], .99))
	}
	if *maxP99 > 0 && pct(0.99) > *maxP99 {
		fmt.Fprintf(stderr, "rimlive: p99 %.3fms exceeds the %.1fms bound\n", pct(0.99), *maxP99)
		return 1
	}
	return 0
}

// drive runs the mobility loop: step the model every tick, issue up to
// p.movers displaced nodes as single-Move frames (stamping each one's
// sequence slot in the issue-time ring first), and collect completions
// off-thread so the tick cadence never blocks on the server.
func drive(c *wire.Client, session string, p profile, model *mobility.Model, lab *collector) (issued, ticks, backpressure, errors int64, firstErr error) {
	inflight := make(chan *wire.Pending, 1<<14)
	var wg sync.WaitGroup
	const collectors = 4
	bps := make([]int64, collectors)
	errs := make([]int64, collectors)
	firstErrs := make([]error, collectors)
	for i := 0; i < collectors; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var ids []int64
			for pd := range inflight {
				var err error
				ids, err = pd.MutateIDs(ids[:0])
				switch {
				case err == nil:
				case wire.IsBackpressure(err):
					// Shed under load; the schedule does not slow down. A shed
					// move consumed a ring slot without earning a server
					// sequence, shifting attribution to an *earlier* issue
					// time — latency can only be over-, never under-estimated.
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

	var moved []int
	start := time.Now()
	deadline := start.Add(p.duration)
	next := start
	rot := 0
	for {
		next = next.Add(p.tick)
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		moved = model.StepInto(p.tick.Seconds(), moved[:0])
		if len(moved) == 0 {
			ticks++
			continue
		}
		k := len(moved)
		if k > p.movers {
			k = p.movers
		}
		// Rotate which displaced nodes are issued so the cap does not
		// always favor low indices.
		for j := 0; j < k; j++ {
			i := moved[(rot+j)%len(moved)]
			pt := model.At(i)
			issued++
			atomic.StoreInt64(&lab.sendNs[uint64(issued)&ringMask], int64(time.Since(lab.base)))
			inflight <- c.GoMutate(session, []serve.Mutation{serve.Move(int64(i), pt.X, pt.Y)})
		}
		rot += k
		ticks++
	}
	close(inflight)
	wg.Wait()
	// Barrier: every issued move applied, every event emitted hub-side.
	if _, err := c.Flush(session); err != nil && firstErr == nil {
		firstErr = err
		errors++
	}
	for i := 0; i < collectors; i++ {
		backpressure += bps[i]
		errors += errs[i]
		if firstErr == nil {
			firstErr = firstErrs[i]
		}
	}
	return issued, ticks, backpressure, errors, firstErr
}
