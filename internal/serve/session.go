package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Session is one network instance behind the pipeline: a
// dynamic.Maintainer (owning the incremental evaluator) plus the stable
// external node-ID space, a bounded mutation queue, and the published
// snapshot. All engine state is touched only by the owning shard's
// goroutine; clients interact through Apply/Flush/Snapshot.
type Session struct {
	id      string
	mgr     *Manager
	sh      *shard
	measure string // interference measure (MeasureGraph/MeasureSinr), fixed at creation
	flShard uint64 // flight-recorder shard (FNV of id), fixed at creation

	mu        sync.Mutex
	cond      *sync.Cond // signaled when the queue fully drains
	queue     []Mutation
	bounds    []int            // pinned batch sizes (ApplyBatch); runBatch drains one per entry
	scheduled bool             // in the shard's runq or mid-batch
	closed    atomic.Bool      // set under mu; read lock-free by Closed
	dropped   bool             // DropSession (vs. manager drain): stop WAL logging
	nolog     bool             // recovery replay: batches are already in the WAL
	ckptW     []chan ckptReply // checkpoint waiters served between batches
	flushW    int              // Flush waiters: drain publishes full before releasing them
	nextID    int64
	replSeq   uint64 // follower: seq through the last enqueued replicated record

	// Owner-only state (shard goroutine).
	mt      *dynamic.Maintainer
	idOf    []int64       // engine index -> external ID
	idxOf   map[int64]int // external ID -> engine index
	seq     uint64
	scratch *core.State // reused export buffer; snapshots copy out of it
	delta   BatchDelta  // per-batch dirty summary (AfterBatchDelta mode)
	deltaOn bool

	walBuf []byte // owner-only scratch for WAL batch payload encoding

	snap      atomic.Pointer[Snapshot]
	head      atomic.Pointer[Head]
	sinceFull int // owner-only: batches since the last full publish
	applied   atomic.Int64
	rejected  atomic.Int64
	depth     atomic.Int64 // mirrors len(queue); read lock-free by QueueDepth
}

// flightShardOf spreads sessions across the flight recorder's shards
// (FNV-1a over the id), so concurrent shards' always-on writes never
// share a ring cursor.
func flightShardOf(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// fullSnapshotEvery bounds how many batches may pass before the full
// node/edge snapshot is rebuilt anyway. Flush always forces a rebuild,
// so this only bounds how far Snapshot-path readers (node and edge
// dumps) can trail while nobody flushes.
const fullSnapshotEvery = 64

func newSession(m *Manager, id string, pts []geom.Point, measure string) *Session {
	s := &Session{
		id:      id,
		mgr:     m,
		sh:      m.shardFor(id),
		measure: measure,
		flShard: flightShardOf(id),
		nextID:  int64(len(pts)),
		idOf:    make([]int64, len(pts)),
		idxOf:   make(map[int64]int, len(pts)),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range pts {
		s.idOf[i] = int64(i)
		s.idxOf[int64(i)] = i
	}
	s.mt = dynamic.NewWithEngine(pts, m.cfg.RebuildFactor, m.engineFor(measure))
	s.initHooks()
	s.publish()
	return s
}

// initHooks wires the maintainer's event and touch callbacks into the
// session: rebuild metrics, and — when the manager publishes per-batch
// deltas — dirty-disk accumulation and the rebuild full-dirty escalation.
// Shared by fresh construction and checkpoint restore.
func (s *Session) initHooks() {
	m := s.mgr
	s.mt.OnEvent = func(ev dynamic.Event) {
		if ev.Kind == dynamic.EventRebuild {
			m.metrics.Rebuilds.Add(1)
			// A drift rebuild replaces the whole radius assignment: the
			// batch's delta can no longer bound what changed.
			s.delta.Full = true
		}
	}
	if m.cfg.AfterBatchDelta != nil {
		s.deltaOn = true
		s.mt.OnTouch = func(at geom.Point, r float64) {
			s.delta.Disks = append(s.delta.Disks, Disk{X: at.X, Y: at.Y, R: r})
		}
	}
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Measure returns the interference measure the session was created
// under (MeasureGraph or MeasureSinr); immutable.
func (s *Session) Measure() string { return s.measure }

// Snapshot returns the latest published full state — one atomic load,
// never blocking the writer. The result is immutable and always
// non-nil. Under sustained mutation load it may trail Head by up to
// fullSnapshotEvery batches; after Flush it is exact.
func (s *Session) Snapshot() *Snapshot { return s.snap.Load() }

// Head returns the scalar head of the session's state — refreshed after
// every batch, one atomic load, never blocking the writer. Hot summary
// readers (the wire and HTTP front doors) use this instead of Snapshot
// so they never touch the full node dump.
func (s *Session) Head() *Head { return s.head.Load() }

// QueueDepth reports the pending-mutation count (metrics/backpressure
// introspection; racy by nature). It reads an atomic mirror of the
// queue length so high-rate summary scrapes — the wire front door reads
// it on every MsgSummary — never contend with the enqueue mutex.
func (s *Session) QueueDepth() int {
	return int(s.depth.Load())
}

// Counts reports processed mutations: applied and rejected.
func (s *Session) Counts() (applied, rejected int64) {
	return s.applied.Load(), s.rejected.Load()
}

// Apply validates and enqueues mutations, all or nothing, and returns the
// IDs assigned to OpAdd mutations (in order). ErrQueueFull means the
// bounded queue cannot take the whole batch — backpressure the caller
// must respond to (the HTTP layer answers 429 + Retry-After).
func (s *Session) Apply(muts ...Mutation) ([]int64, error) {
	if s.mgr.readOnly.Load() {
		return nil, ErrReadOnly
	}
	return s.applyOpts(muts, false)
}

// ApplyBatch enqueues muts to be applied as exactly one pipeline batch,
// exactly as given: the drain will not merge them with other queued
// mutations, split them at BatchCap, or coalesce them, so the batch
// advances the session's seq by len(muts) and is logged as one WAL
// record of the same ops. Batch boundaries are semantically significant
// — the maintainer defers its connectivity repair and rebuild-drift
// check to the batch boundary, so the same op sequence batched
// differently can settle on a different (equally valid) radius
// assignment. Replaying a recorded run byte-for-byte therefore requires
// replaying its exact boundaries, and this is the primitive that pins
// them. Pinned and unpinned applies must not be interleaved on one
// session: the sizes are matched against the queue head in FIFO order.
func (s *Session) ApplyBatch(muts []Mutation) ([]int64, error) {
	if s.mgr.readOnly.Load() {
		return nil, ErrReadOnly
	}
	return s.applyPinned(muts)
}

// applyPinned is ApplyBatch without the read-only gate: a follower's
// replication apply and recovery's WAL replay re-apply the leader's
// recorded batches and must land on its exact batch boundaries.
func (s *Session) applyPinned(muts []Mutation) ([]int64, error) {
	return s.applyOpts(muts, true)
}

func (s *Session) applyOpts(muts []Mutation, pinned bool) ([]int64, error) {
	if len(muts) == 0 {
		return nil, nil
	}
	for _, mu := range muts {
		if err := mu.validate(s.mgr.cfg.MaxCoord); err != nil {
			return nil, err
		}
	}
	if obs.On() {
		// Enqueue stamp for the flight recorder's queue-wait stage. One
		// clock read per Apply call, amortized over the batch.
		enq := time.Now().UnixNano()
		for i := range muts {
			muts[i].EnqNS = enq
		}
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if len(s.queue)+len(muts) > s.mgr.cfg.QueueCap {
		s.mu.Unlock()
		s.mgr.metrics.QueueFull.Add(1)
		return nil, ErrQueueFull
	}
	var ids []int64
	for i := range muts {
		if muts[i].Op == OpAdd {
			if muts[i].Node < 0 {
				muts[i].Node = s.nextID
				s.nextID++
			} else if muts[i].Node >= s.nextID { // replayed forced ID
				s.nextID = muts[i].Node + 1
			}
			ids = append(ids, muts[i].Node)
		}
	}
	s.queue = append(s.queue, muts...)
	if pinned {
		s.bounds = append(s.bounds, len(muts))
	}
	s.depth.Store(int64(len(s.queue)))
	sched := !s.scheduled
	s.scheduled = true
	s.mu.Unlock()
	if sched {
		s.sh.schedule(s)
	}
	s.mgr.metrics.Enqueued.Add(int64(len(muts)))
	return ids, nil
}

// Flush blocks until every queued mutation has been applied and the
// resulting full snapshot published. A nil ctx waits indefinitely.
//
// Because the full snapshot is only rebuilt on demand, Flush registers
// itself as a waiter (the owner publishes full before releasing waiters)
// and, if it finds the session quiescent with the snapshot trailing the
// head, schedules one empty owner pass to refresh it. The re-check runs
// in a loop so a waiter that registered after the owner's drain check
// can never return with a stale snapshot.
func (s *Session) Flush(ctx context.Context) error {
	if ctx != nil {
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushW++
	defer func() { s.flushW-- }()
	for {
		for len(s.queue) > 0 || s.scheduled {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			s.cond.Wait()
		}
		if s.snap.Load().Seq == s.head.Load().Seq {
			return nil
		}
		// Quiescent but the full snapshot trails the head. Holding the
		// scheduled flag with an empty queue makes this goroutine the
		// session's owner — no shard pass can start — so it can rebuild
		// the full snapshot in place instead of paying an empty batch.
		s.scheduled = true
		s.mu.Unlock()
		s.publishFull()
		s.mu.Lock()
		if len(s.queue) > 0 || len(s.ckptW) > 0 {
			// Work arrived while we published: Apply/checkpoint saw
			// scheduled=true and left dispatch to us. Hand the session
			// back to its shard and keep waiting.
			s.mu.Unlock()
			ok := s.sh.schedule(s)
			s.mu.Lock()
			if !ok {
				// Shard stopped mid-shutdown; the queue will be
				// rejected. Accept the snapshot we just built.
				s.scheduled = false
				s.cond.Broadcast()
				return nil
			}
			continue
		}
		s.scheduled = false
		s.cond.Broadcast()
		return nil
	}
}

// close rejects future Apply calls; queued mutations still drain.
func (s *Session) close() {
	s.mu.Lock()
	s.closed.Store(true)
	s.mu.Unlock()
}

// Closed reports whether the session has stopped accepting mutations
// (dropped, or the manager is draining). Lock-free: front doors that
// cache session handles across requests use it to invalidate without
// touching the enqueue mutex.
func (s *Session) Closed() bool { return s.closed.Load() }

// rejectQueued clears the pending queue, counting every discarded
// mutation as rejected. Shutdown-deadline path only: the owner may still
// be applying the batch it already drained, but nothing cleared here
// will ever run.
func (s *Session) rejectQueued() int {
	s.mu.Lock()
	n := len(s.queue)
	s.queue = s.queue[:0]
	s.bounds = s.bounds[:0]
	s.depth.Store(0)
	s.cond.Broadcast()
	s.mu.Unlock()
	if n > 0 {
		s.rejected.Add(int64(n))
	}
	return n
}

// runBatch is the owner-side pipeline step: drain up to BatchCap
// mutations (or exactly one pinned batch), coalesce unless pinned, log,
// apply, publish one snapshot, reschedule if more arrived meanwhile.
func (s *Session) runBatch() {
	cfg, mx := &s.mgr.cfg, s.mgr.metrics
	if cfg.BeforeBatch != nil {
		cfg.BeforeBatch(s.id)
	}
	s.mu.Lock()
	n := min(len(s.queue), cfg.BatchCap)
	pinned := len(s.bounds) > 0
	if pinned {
		// Boundary-pinned batch (ApplyBatch): drain exactly the enqueued
		// size, even past BatchCap — a recorded batch was already capped
		// by its producer, and splitting it would move the deferral point.
		n = min(s.bounds[0], len(s.queue))
		s.bounds = s.bounds[1:]
	}
	batch := append([]Mutation(nil), s.queue[:n]...)
	rest := copy(s.queue, s.queue[n:])
	s.queue = s.queue[:rest]
	s.depth.Store(int64(rest))
	s.mu.Unlock()

	// Always-on flight accounting plus tail-sampled trace spans: every
	// non-empty batch writes one compact flight record while observability
	// is on; full span trees are recorded only for traced batches that
	// pass the tail-retention bar (slow, errored, or no bar set). The
	// batch adopts the first traced mutation's context, and its span id is
	// pre-allocated so the WAL stamp (written before apply) and the span
	// records (written after) agree on it.
	var fl obs.FlightRecord
	var tc *obs.TraceContext
	var batchSpan uint64
	var tMark time.Time
	flOn := obs.On() && len(batch) > 0
	if flOn {
		tMark = time.Now()
		fl.Start = tMark.UnixNano()
		fl.Session = s.id
		if e := batch[0].EnqNS; e != 0 { // FIFO: index 0 is the oldest
			fl.QueueUS = obs.US(time.Duration(fl.Start - e))
		}
		for i := range batch {
			if batch[i].TC != nil {
				tc = batch[i].TC
				batchSpan = obs.DefaultRecorder().NextID()
				break
			}
		}
	}

	if !pinned && !cfg.NoCoalesce {
		batch = coalesce(batch)
	}
	if flOn {
		fl.Ops = uint32(len(batch))
		now := time.Now()
		fl.CoalesceUS = obs.US(now.Sub(tMark))
		tMark = now
	}
	if len(batch) > 0 && s.mgr.walOK() {
		s.mu.Lock()
		skip := s.dropped || s.nolog
		s.mu.Unlock()
		if !skip {
			// Write-ahead: the batch is durable (per the fsync policy)
			// before it is applied, so recovery can only ever land on a
			// batch boundary of the acknowledged mutation log.
			s.logBatch(batch, tc, batchSpan)
		}
	}
	if flOn {
		now := time.Now()
		fl.WALUS = obs.US(now.Sub(tMark))
		tMark = now
	}
	var sp *obs.Span
	if tc == nil {
		// Untraced batches keep the sampled local span; traced batches
		// record their tree explicitly below, under tail retention.
		sp = obs.Start("serve.batch")
	}
	t0 := time.Now()
	rej0 := s.rejected.Load()
	if s.deltaOn {
		s.delta.reset()
	}
	// One settle (connectivity repair and drift check) per batch instead
	// of one per mutation: a settle explores every topology component
	// the batch touched, so components several mutations touch are
	// explored once.
	s.mt.BeginBatch()
	for i := range batch {
		s.applyOne(batch[i])
	}
	if flOn {
		now := time.Now()
		fl.ApplyUS = obs.US(now.Sub(tMark))
		tMark = now
	}
	s.mt.EndBatch()
	if flOn {
		now := time.Now()
		fl.SettleUS = obs.US(now.Sub(tMark))
		tMark = now
	}
	pub := sp.Child("serve.publish")
	s.publishHead()
	pub.End()
	sp.End()
	mx.Batches.Add(1)
	mx.BatchSize.Observe(float64(len(batch)))
	mx.ApplyLatency.Observe(time.Since(t0).Seconds())
	if cfg.AfterBatch != nil {
		cfg.AfterBatch(s.id, s.mt.Engine())
	}
	if s.deltaOn {
		var trace uint64
		if tc != nil {
			trace = tc.TraceID
		}
		// Published even for an empty batch: the consumer may have
		// pending work (the subscription matcher integrates new
		// subscriptions at the top of its pass) and returns in O(1) when
		// it does not.
		cfg.AfterBatchDelta(BatchView{
			Session: s.id,
			Seq:     s.seq,
			Trace:   trace,
			Engine:  s.mt.Engine(),
			Delta:   &s.delta,
			IDOf:    s.externalID,
			IdxOf:   s.indexOf,
		})
	}
	if flOn {
		end := time.Now()
		fl.PublishUS = obs.US(end.Sub(tMark))
		fl.Seq = s.seq
		failed := s.rejected.Load() > rej0 || (s.mgr.cfg.Store != nil && !s.mgr.walOK())
		if failed {
			fl.Err = 1
		}
		if tc != nil {
			fl.Trace, fl.Span = tc.TraceID, batchSpan
		}
		obs.DefaultFlight().Add(s.flShard, fl)
		if tc != nil {
			s.recordBatchSpans(tc, batchSpan, fl, end, failed)
		}
	}
	s.serveCheckpoints()

	// The full node/edge snapshot is rebuilt only when a Flush waiter is
	// about to be released or at the staleness bound — rebuilding it per
	// batch was the serving layer's largest single cost under the wire
	// workload (small batches drain the queue constantly, so "publish
	// full on drain" degenerates to "publish full per batch").
	s.mu.Lock()
	more := len(s.queue) > 0 || len(s.ckptW) > 0
	// A read-only manager is a replication follower: its readers never
	// call Flush, so without the refresh-on-drain below the full snapshot
	// would freeze at creation state while the head kept advancing. A
	// drain there is frame-bounded (one per replicated records frame),
	// not per-client-batch, so the rebuild cost stays amortized.
	wantFull := s.flushW > 0 || s.mgr.readOnly.Load()
	s.mu.Unlock()
	s.sinceFull++
	if (!more && wantFull) || s.sinceFull >= fullSnapshotEvery {
		s.publishFull()
		s.sinceFull = 0
	}

	s.mu.Lock()
	// Pending checkpoint waiters that slipped in after serveCheckpoints
	// count as work: reschedule so the next pass serves them. The full
	// publish above happens before the Broadcast; a Flush waiter that
	// registered too late to be seen by the drain check re-checks
	// snapshot freshness on wake and schedules its own refresh pass.
	more = len(s.queue) > 0 || len(s.ckptW) > 0
	if !more {
		s.scheduled = false
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if more {
		s.sh.schedule(s)
	}
}

// recordBatchSpans publishes a traced batch's span tree: the root
// carries the pre-allocated batch span id (already stamped into the WAL
// record) and links to the remote parent span; the children replay the
// flight record's stage stamps. Tail sampling decides retention here, at
// completion time, when the latency and failure outcome are known.
func (s *Session) recordBatchSpans(tc *obs.TraceContext, batchSpan uint64, fl obs.FlightRecord, end time.Time, failed bool) {
	rootStart := fl.Start - int64(fl.QueueUS)*1e3
	durNS := end.UnixNano() - rootStart
	if !obs.TailKeep(durNS, failed) {
		return
	}
	r := obs.DefaultRecorder()
	lane := r.NextLane()
	r.Record(obs.SpanRecord{
		ID: batchSpan, Lane: lane, Name: "serve.batch",
		Start: rootStart, Dur: durNS,
		Trace: tc.TraceID, Link: tc.SpanID,
	})
	at := rootStart
	stage := func(name string, us uint32) {
		d := int64(us) * 1e3
		r.Record(obs.SpanRecord{
			Parent: batchSpan, Lane: lane, Name: name,
			Start: at, Dur: d, Trace: tc.TraceID,
		})
		at += d
	}
	stage("serve.queue", fl.QueueUS)
	stage("serve.coalesce", fl.CoalesceUS)
	stage("serve.wal", fl.WALUS)
	stage("serve.apply", fl.ApplyUS)
	stage("serve.settle", fl.SettleUS)
	stage("serve.publish", fl.PublishUS)
}

// applyOne executes a single mutation against the maintainer, translating
// external IDs to engine indices. Mutations addressing IDs that no longer
// exist are rejected (recorded, counted, otherwise a no-op); an
// unexpected engine panic is contained the same way so one poisoned
// mutation cannot take the daemon down.
func (s *Session) applyOne(mu Mutation) {
	ok := true
	defer func() {
		if p := recover(); p != nil {
			s.mgr.metrics.ApplyPanics.Add(1)
			ok = false
		}
		s.seq++
		if ok {
			s.applied.Add(1)
		} else {
			s.rejected.Add(1)
		}
	}()

	switch mu.Op {
	case OpAdd:
		if _, dup := s.idxOf[mu.Node]; dup { // forced-ID collision (bad replay input)
			ok = false
			return
		}
		s.insert(mu.Node, geom.Pt(mu.X, mu.Y))
		if s.deltaOn {
			s.delta.Added = append(s.delta.Added, NodeChange{ID: mu.Node, X: mu.X, Y: mu.Y})
		}
	case OpRemove:
		idx, found := s.idxOf[mu.Node]
		if !found {
			ok = false
			return
		}
		old := s.mt.Engine().Points()[idx]
		s.mt.Remove(idx)
		s.dropID(mu.Node, idx)
		if s.deltaOn {
			s.delta.Removed = append(s.delta.Removed, NodeChange{ID: mu.Node, OldX: old.X, OldY: old.Y})
		}
	case OpMove:
		idx, found := s.idxOf[mu.Node]
		if !found {
			ok = false
			return
		}
		old := s.mt.Engine().Points()[idx]
		// In-place relocation: the node keeps its engine index, so the
		// external-ID maps are untouched and the per-move cost is the
		// touched disks, not an O(n) index shift.
		s.mt.Move(idx, geom.Pt(mu.X, mu.Y))
		if s.deltaOn {
			s.delta.Moved = append(s.delta.Moved, NodeChange{ID: mu.Node, X: mu.X, Y: mu.Y, OldX: old.X, OldY: old.Y})
		}
	case OpSetRadius:
		idx, found := s.idxOf[mu.Node]
		if !found {
			ok = false
			return
		}
		var oldR float64
		if s.deltaOn {
			oldR = s.mt.Engine().Radius(idx)
		}
		s.mt.SetRadius(idx, mu.R)
		if s.deltaOn {
			s.delta.Radius = append(s.delta.Radius, RadiusChange{ID: mu.Node, Old: oldR, New: mu.R})
		}
	case OpAnneal:
		s.mt.Anneal(mu.Seed, mu.Iters)
		// A successful anneal adopts a whole new radius assignment.
		s.delta.Full = true
	}
}

func (s *Session) insert(id int64, p geom.Point) {
	idx := s.mt.Insert(p)
	s.idOf = append(s.idOf, id)
	s.idxOf[id] = idx
}

// externalID translates an engine index to the stable external node ID.
// Owner-goroutine only (BatchView.IDOf).
func (s *Session) externalID(idx int) int64 {
	if idx < 0 || idx >= len(s.idOf) {
		return -1
	}
	return s.idOf[idx]
}

// indexOf translates an external node ID to its current engine index.
// Owner-goroutine only (BatchView.IdxOf).
func (s *Session) indexOf(id int64) (int, bool) {
	idx, ok := s.idxOf[id]
	return idx, ok
}

// dropID removes id's mapping and shifts the indices above idx down by
// one, mirroring the engine's slice semantics.
func (s *Session) dropID(id int64, idx int) {
	delete(s.idxOf, id)
	s.idOf = append(s.idOf[:idx], s.idOf[idx+1:]...)
	for i := idx; i < len(s.idOf); i++ {
		s.idxOf[s.idOf[i]] = i
	}
}

// publish refreshes both published views; session construction and
// recovery use it so readers start with an exact full snapshot.
func (s *Session) publish() {
	s.publishHead()
	s.publishFull()
}

// publishHead swaps in a fresh scalar head: O(max I) for the mean (read
// off the engine's interference histogram), everything else O(1). This
// runs after every batch, so it must stay cheap.
func (s *Session) publishHead() {
	eng := s.mt.Engine()
	n := eng.N()
	avg := 0.0
	if n > 0 {
		avg = float64(eng.SumI()) / float64(n)
	}
	s.head.Store(&Head{
		Seq:      s.seq,
		N:        n,
		Max:      eng.Max(),
		Avg:      avg,
		Edges:    s.mt.Topology().M(),
		Events:   s.mt.Events(),
		Rebuilds: s.mt.Rebuilds(),
		BuiltAt:  time.Now(),
	})
}

// publishFull exports the engine state into a fresh immutable snapshot and
// swaps it in. The export itself reuses an owner-only scratch buffer; only
// the snapshot's own node/edge slices are freshly allocated (readers keep
// references to them indefinitely).
func (s *Session) publishFull() {
	st := s.mt.Engine().ExportState(s.scratch)
	s.scratch = st
	nodes := make([]NodeState, st.N())
	sum := 0
	for i := range nodes {
		nodes[i] = NodeState{ID: s.idOf[i], X: st.Points[i].X, Y: st.Points[i].Y, R: st.Radii[i], I: st.I[i]}
		sum += st.I[i]
	}
	avg := 0.0
	if st.N() > 0 {
		avg = float64(sum) / float64(st.N())
	}
	topo := s.mt.Topology()
	edges := make([][2]int64, 0, topo.M())
	for _, e := range topo.Edges() {
		edges = append(edges, [2]int64{s.idOf[e.U], s.idOf[e.V]})
	}
	s.snap.Store(&Snapshot{
		Session:  s.id,
		Seq:      s.seq,
		N:        st.N(),
		Max:      st.Max,
		Avg:      avg,
		Nodes:    nodes,
		Edges:    edges,
		Events:   s.mt.Events(),
		Rebuilds: s.mt.Rebuilds(),
		BuiltAt:  time.Now(),
	})
}
