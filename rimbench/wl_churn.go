package main

// live_churn: rimlive's bench shape with durability on. Waypoint moves
// arrive on a fixed tick at a sub-saturation offered rate, plus node
// joins and leaves at a low fixed rate, against a WAL-backed graph
// session (fsync=batch) holding standing subscriptions over the wire. It
// loads dynamic, core, sub matching and push, and the store write path
// on the update→notify path.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mobility"
	"repro/internal/serve"
	"repro/internal/sub"
	"repro/internal/wire"
)

const (
	churnN      = 4096
	churnSide   = 64
	churnSubs   = 1200
	churnTick   = 10 * time.Millisecond
	churnMovers = 64 // moves per tick: 6.4k/s offered
	churnEvery  = 25 // ticks between one join and one leave: 4 of each per second
	seqRing     = 1 << 21
	drainWait   = 5 * time.Second
)

// recvEvent is one pushed event as the client saw it.
type recvEvent struct {
	ev   sub.Event
	recv int64 // ns on the env clock
}

type liveChurn struct {
	e     *env
	s     *stack
	model *mobility.Model
	rng   *rand.Rand
	dir   string

	victims []int64 // nodes never watched by a threshold subscription
	removed map[int64]bool

	sched []atomic.Int64 // scheduled ns of each mutation, by session seq

	mu     sync.Mutex
	events []recvEvent
}

var churnSetups atomic.Int64

func setupLiveChurn(e *env, tr *tracer) (instance, error) {
	w := &liveChurn{e: e, removed: map[int64]bool{}, sched: make([]atomic.Int64, seqRing)}
	w.dir = filepath.Join(e.work, fmt.Sprintf("churn-%d", churnSetups.Add(1)))
	s, err := newStack(tr, stackOpts{dataDir: w.dir, onEvent: w.onEvent})
	if err != nil {
		return nil, err
	}
	w.s = s
	w.rng = rand.New(rand.NewSource(e.seed))
	w.model = mobility.NewWaypoint(w.rng, churnN, churnSide, churnSide, 0.5, 3.0, 1.0)
	if _, err := s.c.Create(session, w.model.Positions()); err != nil {
		s.close()
		return nil, fmt.Errorf("create: %w", err)
	}
	// The subscription pool: mostly regions and thresholds spread over
	// the field, a sprinkle of global-max watches (rimlive's mix).
	watched := map[int64]bool{}
	for i := 0; i < churnSubs; i++ {
		var pr sub.Predicate
		switch {
		case i%20 == 0:
			pr = sub.Predicate{Kind: sub.KindMax}
		case i%2 == 0:
			pr = sub.Predicate{Kind: sub.KindThreshold, K: int32(1 + w.rng.Intn(4)), Receiver: int64(w.rng.Intn(churnN))}
			watched[pr.Receiver] = true
		default:
			pr = sub.Predicate{Kind: sub.KindRegion,
				X: w.rng.Float64() * churnSide, Y: w.rng.Float64() * churnSide, R: 0.5 + w.rng.Float64()*2}
		}
		if _, err := s.c.Subscribe(session, pr); err != nil {
			s.close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	for id := int64(0); id < churnN; id++ {
		if !watched[id] {
			w.victims = append(w.victims, id)
		}
	}
	return w, nil
}

func (w *liveChurn) onEvent(ev sub.Event) {
	now := int64(time.Since(w.e.base))
	w.mu.Lock()
	w.events = append(w.events, recvEvent{ev, now})
	w.mu.Unlock()
}

func (w *liveChurn) run(d time.Duration) (*phase, error) {
	hub0 := w.s.hub.Stats()
	var fs0 fsCounts
	if w.s.fs != nil {
		fs0 = w.s.fs.counts()
	}
	w.mu.Lock()
	ev0 := len(w.events)
	w.mu.Unlock()

	cpu0 := cpuTime()
	base := time.Now()
	start := base.Add(warmup)
	end := start.Add(d)
	acks := newWindows(start, window)
	var ackMu sync.Mutex
	var issued, refused, errs atomic.Int64
	var firstErr atomic.Value
	// Completions are collected off the tick loop so its cadence never
	// waits on the server.
	inflight := make(chan *wire.Pending, 1<<14)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ids []int64
			for p := range inflight {
				var err error
				ids, err = p.MutateIDs(ids[:0])
				switch {
				case err == nil:
					ackMu.Lock()
					acks.add(time.Now(), 1)
					ackMu.Unlock()
				case wire.IsBackpressure(err):
					refused.Add(1)
				default:
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}

	var seq uint64 // session seq of the last issued mutation
	if sn, ok := w.s.mgr.Session(session); ok {
		seq = sn.Snapshot().Seq
	}
	issue := func(at int64, mu serve.Mutation) {
		seq++
		w.sched[seq%seqRing].Store(at)
		issued.Add(1)
		inflight <- w.s.c.GoMutate(session, []serve.Mutation{mu})
	}
	var moved []int
	rot, tick := 0, 0
	for next := base; ; tick++ {
		next = next.Add(churnTick)
		if !next.Before(end) {
			break
		}
		if dl := time.Until(next); dl > 0 {
			time.Sleep(dl)
		}
		at := int64(next.Sub(w.e.base))
		moved = w.model.StepInto(churnTick.Seconds(), moved[:0])
		k := min(len(moved), churnMovers)
		for j := 0; j < k; j++ {
			i := moved[(rot+j)%len(moved)]
			if w.removed[int64(i)] {
				continue
			}
			pt := w.model.At(i)
			issue(at, serve.Move(int64(i), pt.X, pt.Y))
		}
		rot += k
		if tick%churnEvery == churnEvery-1 && len(w.victims) > 0 {
			v := w.rng.Intn(len(w.victims))
			id := w.victims[v]
			w.victims = append(w.victims[:v], w.victims[v+1:]...)
			w.removed[id] = true
			issue(at, serve.Remove(id))
			issue(at, serve.Add(w.rng.Float64()*churnSide, w.rng.Float64()*churnSide))
		}
	}
	close(inflight)
	wg.Wait()
	if _, err := w.s.c.Flush(session); err != nil {
		errs.Add(1)
		firstErr.CompareAndSwap(nil, err)
	}
	// Wait until every event the hub queued has crossed the socket.
	hub1 := w.s.hub.Stats()
	want := int(hub1.Events-hub0.Events) - int(hub1.Dropped-hub0.Dropped)
	for deadline := time.Now().Add(drainWait); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		w.mu.Lock()
		got := len(w.events) - ev0
		w.mu.Unlock()
		if got >= want {
			break
		}
	}
	w.mu.Lock()
	evs := append([]recvEvent(nil), w.events[ev0:]...)
	w.mu.Unlock()
	// Process CPU per tick covers everything one tick's updates cause:
	// wire, serve, dynamic, core, the WAL, matching, pushes and the
	// in-process client.
	cpuPerTick := (cpuTime() - cpu0).Seconds() * 1e3 / float64(tick)

	t0, t1 := int64(start.Sub(w.e.base)), int64(end.Sub(w.e.base))
	var lats []float64
	var gaps int64
	for _, r := range evs {
		if r.ev.Gap() {
			gaps++
		}
		if r.ev.Init() {
			continue
		}
		at := w.sched[r.ev.BatchSeq%seqRing].Load()
		if at < t0 || at >= t1 {
			continue
		}
		lats = append(lats, float64(r.recv-at)/1e6)
	}
	ls := sorted(lats)
	rate, nwin := acks.medianRate(end)
	p99, p, n, ok := tailAt(ls, 99)
	dropped := hub1.Dropped - hub0.Dropped
	ph := &phase{
		attempted: issued.Load() + int64(len(evs)),
		failed:    refused.Load() + errs.Load() + gaps + dropped,
		e2e: map[string]float64{
			"rate_per_s": rate,
			"time_ms":    cpuPerTick,
		},
	}
	ph.notes = append(ph.notes,
		fmt.Sprintf("process CPU per %v tick = %.4f ms (%d updates per tick offered)", churnTick, cpuPerTick, churnMovers),
		fmt.Sprintf("notify_p50_ms = %.4f ms; notify_p99_ms = %.4f ms (p%g of %d events, enough=%v; not gated, see WORKLOADS.md)",
			pct(ls, 50), p99, p, n, ok),
		fmt.Sprintf("applied updates/s = %.1f (median of %d windows); issued %d, refused %d, errors %d, gaps %d, dropped %d",
			rate, nwin, issued.Load(), refused.Load(), errs.Load(), gaps, dropped))
	if err, _ := firstErr.Load().(error); err != nil {
		ph.notes = append(ph.notes, fmt.Sprintf("first failure: %v", err))
	}
	if w.s.eng == nil {
		return ph, nil
	}
	m := map[string]float64{}
	w.s.batches.layerMetrics(m)
	engineLayer(m, "core", w.s.eng)
	muts := float64(issued.Load())
	m["core.calls_per_mutation"] = float64(w.s.eng.calls.Load()) / muts
	fs1 := w.s.fs.counts()
	m["store.bytes_per_mutation"] = float64(fs1.writeBytes-fs0.writeBytes) / muts
	if nb := m["serve.batches"]; nb > 0 {
		m["store.writes_per_batch"] = float64(fs1.writes-fs0.writes) / nb
	}
	m["store.sync_p50_us"] = pct(w.s.fs.syncs.sorted(), 50)
	subLayer(m, w.s.batches, hub0, hub1)
	m["sub.gaps"] = float64(gaps)
	w.ledger(m, evs, t0, t1)
	ph.layer = m
	return ph, nil
}

// ledger splits each event's update→notify interval into stages by
// joining it to its batch through the batch's last sequence number:
// ingress (scheduled time to the batch start), store, engine, serve self
// time, match and push (matcher return to client receipt). Each stage's
// share is its mean over the mean interval; what no stage covers is
// unattributed.
func (w *liveChurn) ledger(m map[string]float64, evs []recvEvent, t0, t1 int64) {
	var total, ingress, store, engine, self, match, push float64
	var pushes []float64
	for _, r := range evs {
		if r.ev.Init() {
			continue
		}
		at := w.sched[r.ev.BatchSeq%seqRing].Load()
		if at < t0 || at >= t1 {
			continue
		}
		total += float64(r.recv - at)
		b, ok := w.s.batches.bySeq(r.ev.BatchSeq)
		if !ok {
			continue
		}
		ingress += float64(b.Start - at)
		store += float64(b.StoreNs)
		engine += float64(b.EngineNs)
		self += float64(b.End-b.Start) - float64(b.StoreNs+b.EngineNs)
		match += float64(b.MatchEnd - b.MatchStart)
		push += float64(r.recv - b.MatchEnd)
		pushes = append(pushes, float64(r.recv-b.MatchEnd)/1e3)
	}
	if total <= 0 {
		return
	}
	m["ledger.ingress_share"] = ingress / total
	m["ledger.store_share"] = store / total
	m["ledger.engine_share"] = engine / total
	m["ledger.serve_self_share"] = self / total
	m["ledger.match_share"] = match / total
	m["ledger.push_share"] = push / total
	m["ledger.unattributed_share"] = 1 - (ingress+store+engine+self+match+push)/total
	m["sub.push_p50_us"] = pct(sorted(pushes), 50)

	var waits []float64
	for _, b := range w.s.batches.batches() {
		if b.Seq == 0 {
			continue
		}
		for q := b.First; q <= b.Seq; q++ {
			if at := w.sched[q%seqRing].Load(); at >= t0 && at < t1 {
				waits = append(waits, float64(b.Start-at)/1e3)
			}
		}
	}
	m["serve.ingress_wait_p50_us"] = median(waits)
}

// check compares the session with the oracle and verifies that every
// subscription's events arrived with contiguous Seq from its initial
// event on.
func (w *liveChurn) check() []string {
	bad := w.s.checkSession(churnN)
	w.mu.Lock()
	defer w.mu.Unlock()
	last := map[uint64]uint64{}
	broken := 0
	for _, r := range w.events {
		prev, seen := last[r.ev.SubID]
		switch {
		case !seen && r.ev.Seq != 1, seen && r.ev.Seq != prev+1, r.ev.Gap():
			broken++
		}
		last[r.ev.SubID] = r.ev.Seq
	}
	if len(last) != churnSubs {
		bad = append(bad, fmt.Sprintf("events from %d subscriptions, want %d", len(last), churnSubs))
	}
	if broken > 0 {
		bad = append(bad, fmt.Sprintf("%d events break their subscription's Seq order", broken))
	}
	return bad
}

func (w *liveChurn) close() { w.s.close() }
