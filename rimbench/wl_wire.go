package main

// wire_mixed: a closed loop over the wire door against an in-memory
// graph session, 90% Summary reads and 10% single-op SetRadius. It loads
// wire and serve with small batches; core work is light and store,
// repl, sub, phys and opt stay idle, so it is the control for any
// engine, log or SINR change.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/wire"
)

const (
	wireN     = 4096
	wireSide  = 12.8
	wireReads = 0.9
	// Two loaders, one per connection, each keeping wireDepth requests
	// in flight: a closed loop at a fixed depth of 32.
	wireLoaders = 2
	wireDepth   = 16
	warmup      = time.Second
	window      = 500 * time.Millisecond
)

type wireMixed struct {
	e   *env
	s   *stack
	pts []geom.Point
}

func setupWireMixed(e *env, tr *tracer) (instance, error) {
	s, err := newStack(tr, stackOpts{})
	if err != nil {
		return nil, err
	}
	w := &wireMixed{e: e, s: s, pts: gen.UniformSquare(rand.New(rand.NewSource(e.seed)), wireN, wireSide)}
	if _, err := s.c.Create(session, w.pts); err != nil {
		s.close()
		return nil, fmt.Errorf("create: %w", err)
	}
	return w, nil
}

// loaderOut is what one closed-loop loader measured.
type loaderOut struct {
	win               *windows
	reads, muts       hist // round trips in µs, inside the measured span
	attempted, failed int64
	firstErr          error
}

func (w *wireMixed) run(d time.Duration) (*phase, error) {
	start := time.Now().Add(warmup)
	end := start.Add(d)
	var conn0 connCounts
	if w.s.conns != nil {
		conn0 = w.s.conns.counts()
	}
	hub0 := w.s.hub.Stats()
	cpu0 := cpuTime()
	outs := make([]loaderOut, wireLoaders)
	var wg sync.WaitGroup
	for l := range outs {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			outs[l] = w.load(rand.New(rand.NewSource(w.e.seed*131+int64(l)+1)), start, end)
		}(l)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0

	win := newWindows(start, window)
	var reads, muts, all hist
	var attempted, failed int64
	var firstErr error
	for i := range outs {
		o := &outs[i]
		win.merge(o.win)
		reads.merge(&o.reads)
		muts.merge(&o.muts)
		attempted += o.attempted
		failed += o.failed
		if firstErr == nil {
			firstErr = o.firstErr
		}
	}
	all.merge(&reads)
	all.merge(&muts)
	rate, nwin := win.medianRate(end)
	p99, p, n, _ := all.tailAt(99)
	// Requests per second of process CPU, not of wall time: on a shared
	// 2-vCPU host the closed loop's wall-clock rate swung between runs of
	// the same seed by up to 2x (WORKLOADS.md), while CPU per request held.
	cpuRate := float64(attempted) / cpu.Seconds()
	ph := &phase{attempted: attempted, failed: failed, e2e: map[string]float64{
		"rate_per_s": cpuRate,
		"time_ms":    all.pct(50) / 1e3,
	}}
	ph.notes = append(ph.notes,
		fmt.Sprintf("wire_ops_per_cpu_s = %.1f 1/s; wire_ops_per_s = %.1f 1/s (median of %d wall-clock windows of %v; not gated)",
			cpuRate, rate, nwin, window),
		fmt.Sprintf("round trip p50 = %.4f ms; wire_p99_ms = %.4f ms (p%g of %d round trips; not gated, see WORKLOADS.md)",
			all.pct(50)/1e3, p99/1e3, p, n))
	if firstErr != nil {
		ph.notes = append(ph.notes, fmt.Sprintf("first failure: %v", firstErr))
	}
	if w.s.eng == nil {
		return ph, nil
	}
	m := map[string]float64{}
	ops := float64(attempted)
	m["wire.cpu_us_per_op"] = float64(cpu) / 1e3 / ops
	c := w.s.conns.counts()
	if dw := c.writes - conn0.writes; dw > 0 {
		m["wire.ops_per_server_write"] = ops / float64(dw)
	}
	if dr := c.reads - conn0.reads; dr > 0 {
		m["wire.ops_per_server_read"] = ops / float64(dr)
	}
	m["wire.bytes_per_op"] = float64(c.readBytes-conn0.readBytes+c.writeBytes-conn0.writeBytes) / ops
	m["wire.summary_p50_us"] = reads.pct(50)
	m["wire.mutate_p50_us"] = muts.pct(50)
	m["wire.mutate_p99_us"], _, _, _ = muts.tailAt(99)
	m["wire.failed_frac"] = float64(failed) / ops
	w.s.batches.layerMetrics(m)
	engineLayer(m, "core", w.s.eng)
	if muts.n > 0 {
		m["core.calls_per_mutation"] = float64(w.s.eng.calls.Load()) / float64(muts.n)
	}
	subLayer(m, w.s.batches, hub0, w.s.hub.Stats())
	ph.layer = m
	return ph, nil
}

// load runs one closed-loop loader: a sliding window of wireDepth
// requests, each completion immediately replaced until end.
func (w *wireMixed) load(rng *rand.Rand, start, end time.Time) loaderOut {
	o := loaderOut{win: newWindows(start, window)}
	type slot struct {
		p    *wire.Pending
		t    time.Time
		read bool
	}
	ring := make([]slot, wireDepth)
	issue := func(i int) {
		if rng.Float64() < wireReads {
			ring[i] = slot{w.s.c.GoSummary(session), time.Now(), true}
			return
		}
		mu := serve.SetRadius(int64(rng.Intn(wireN)), rng.Float64()*0.5)
		ring[i] = slot{w.s.c.GoMutate(session, []serve.Mutation{mu}), time.Now(), false}
	}
	for i := range ring {
		issue(i)
	}
	var ids []int64
	live := len(ring)
	for i := 0; live > 0; i = (i + 1) % len(ring) {
		sl := ring[i]
		if sl.p == nil {
			continue
		}
		var err error
		if sl.read {
			_, err = sl.p.Summary()
		} else {
			ids, err = sl.p.MutateIDs(ids[:0])
		}
		now := time.Now()
		o.attempted++
		if err != nil {
			// A refusal (backpressure) or error is a failed operation.
			o.failed++
			if o.firstErr == nil {
				o.firstErr = err
			}
		} else if !now.Before(start) && now.Before(end) {
			o.win.add(now, 1)
			rtt := float64(now.Sub(sl.t).Nanoseconds()) / 1e3
			if sl.read {
				o.reads.add(rtt)
			} else {
				o.muts.add(rtt)
			}
		}
		if now.Before(end) {
			issue(i)
		} else {
			ring[i].p = nil
			live--
		}
	}
	return o
}

func (w *wireMixed) check() []string { return w.s.checkSession(wireN) }

func (w *wireMixed) close() { w.s.close() }
