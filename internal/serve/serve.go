// Package serve is the concurrent topology-control service layered on the
// incremental interference engine: the long-lived, many-client front door
// the one-shot CLIs lack.
//
// # Architecture
//
// A Session is one network instance — a dynamic.Maintainer owning a
// core.Evaluator — identified by a client-chosen string ID and holding a
// stable external node-ID space (engine indices shift on removal; session
// IDs never do). Sessions are sharded across a fixed pool of worker
// goroutines by session ID, and each session's mutations flow through a
// single-writer pipeline:
//
//   - clients enqueue mutations (add/remove/move node, set radius, run an
//     anneal step budget) into the session's bounded queue; a full queue
//     reports ErrQueueFull, which the HTTP layer maps to 429 with
//     Retry-After — explicit backpressure instead of unbounded buffering;
//   - the session's shard drains the queue in batches (coalescing
//     redundant same-node radius writes) and applies them on its own
//     goroutine — the session's only writer, so the engine needs no
//     locks;
//   - after every batch the owner exports the engine state into an
//     immutable Snapshot and publishes it with one atomic pointer swap.
//
// Readers never block the writer and never see a torn state: every query
// is answered from the latest published snapshot, which reflects a prefix
// of the session's mutation log (all mutations up to Snapshot.Seq,
// nothing after).
//
// # Determinism
//
// With Config.Store set, the write-ahead log is the session's one
// mutation record: a create record carries the initial instance and
// measure, and each batch record carries one applied batch, its ops in
// apply order. Replaying the records through a fresh manager (Recover,
// or a replication follower's ApplyRecord) re-applies every batch as
// one pinned batch and reproduces the session exactly — seq, radii and
// interference — byte-identically run after run, checkable with
// oracle.ReplayText, or through a pipeline whose engine is the oracle's
// naive-shadowed DiffEvaluator, inheriting the differential-testing
// guarantees of the correctness layer. DumpLog renders the log as text.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/store"
)

// Service errors. The HTTP layer maps them onto status codes.
var (
	ErrClosed        = errors.New("serve: manager closed")
	ErrSessionClosed = errors.New("serve: session closed")
	ErrSessionExists = errors.New("serve: session already exists")
	ErrNoSession     = errors.New("serve: no such session")
	ErrQueueFull     = errors.New("serve: mutation queue full")
	// ErrReadOnly rejects client-originated writes on a manager serving
	// as a replication follower: every mutation must arrive through
	// ApplyRecord so the follower's state stays a prefix of the leader's
	// log. The HTTP layer maps it to 403, the wire layer to
	// StatusReadOnly.
	ErrReadOnly = errors.New("serve: manager is read-only (replication follower)")
)

// Config parameterizes a Manager. The zero value selects sane defaults.
type Config struct {
	// Shards is the number of worker goroutines; sessions are assigned by
	// ID hash. <= 0 selects min(GOMAXPROCS, 8).
	Shards int
	// QueueCap bounds each session's pending-mutation queue; <= 0 means
	// 1024. A full queue is backpressure, not an error to retry blindly.
	QueueCap int
	// BatchCap bounds how many mutations one batch applies before
	// publishing a snapshot; <= 0 means 256.
	BatchCap int
	// RebuildFactor is passed to dynamic.Maintainer; 0 means its default.
	RebuildFactor float64
	// MaxCoord bounds |x| and |y| of every node coordinate; <= 0 means
	// 1024. The engine's spatial index allocates cells over the instance's
	// bounding box, so one far-flung coordinate would balloon memory — the
	// service rejects such instances and mutations up front.
	MaxCoord float64
	// Engine overrides the evaluator engine factory for graph-measure
	// sessions (nil selects the production core.Evaluator). Tests inject
	// oracle.NewDiffEvaluator here to shadow-check a whole serving
	// pipeline.
	Engine dynamic.EngineFactory
	// DefaultMeasure is the measure CreateSession assigns when the
	// caller does not pick one: MeasureGraph or MeasureSinr ("" means
	// graph). rimd's -measure flag lands here.
	DefaultMeasure string
	// BeforeBatch and AfterBatch are debug/verification hooks called on
	// the owner goroutine around every batch (nil to disable). AfterBatch
	// receives the session's engine — a replay harness casts it to the
	// oracle's DiffEvaluator and verifies.
	BeforeBatch func(sessionID string)
	AfterBatch  func(sessionID string, eng dynamic.Engine)
	// AfterBatchDelta, when non-nil, makes every session accumulate a
	// per-batch dirty summary (see BatchDelta) and publish it — with the
	// post-batch engine and the external-ID translation — after each
	// applied batch, on the owner goroutine. A dropped session publishes
	// one terminal view (nil Engine) from the dropping goroutine. The
	// subscription matcher (internal/sub) attaches here. Nil costs
	// nothing: no delta is accumulated. Runs after AfterBatch.
	AfterBatchDelta func(BatchView)
	// Store, when non-nil, write-ahead-logs every applied batch and backs
	// session checkpoints and boot-time recovery (see internal/store and
	// durable.go). Nil costs nothing: the logging branch is one flag
	// check per batch.
	Store *store.Store
	// NoCoalesce disables batch coalescing of client batches, so every
	// enqueued mutation is applied, logged and counted. Pinned batches
	// (ApplyBatch, replication, recovery) are never coalesced, so
	// followers and recovery need not set it.
	NoCoalesce bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.BatchCap <= 0 {
		c.BatchCap = 256
	}
	if c.MaxCoord <= 0 {
		c.MaxCoord = 1024
	}
	return c
}

// Manager owns the shard pool and the session table.
type Manager struct {
	cfg     Config
	metrics *Metrics
	shards  []*shard
	wg      sync.WaitGroup

	mu       sync.RWMutex
	sessions map[string]*Session
	closed   bool

	// ckptMu serializes the durability-ordering critical sections:
	// create-record+registration, checkpoint writes, and
	// checkpoint-deletion+drop-record (see durable.go and recover.go for
	// why each pairing matters).
	ckptMu    sync.Mutex
	walBroken atomic.Bool
	walErr    atomic.Pointer[error]

	// readOnly marks the manager as a replication follower: front-door
	// writes (CreateSession, DropSession, Session.Apply) are rejected
	// with ErrReadOnly; only ApplyRecord (and recovery replay) mutate.
	readOnly atomic.Bool
}

// SetReadOnly switches the follower write gate. Promotion flips it off
// after the WAL tail is replayed; reads are unaffected either way.
func (m *Manager) SetReadOnly(v bool) { m.readOnly.Store(v) }

// ReadOnly reports whether the manager rejects front-door writes.
func (m *Manager) ReadOnly() bool { return m.readOnly.Load() }

// NewManager starts the shard pool and returns an empty manager.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		metrics:  NewMetrics(),
		sessions: make(map[string]*Session),
	}
	m.shards = make([]*shard, m.cfg.Shards)
	for i := range m.shards {
		m.shards[i] = newShard()
		m.wg.Add(1)
		go m.shards[i].loop(&m.wg)
	}
	return m
}

// Config returns the manager's effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// Metrics returns the manager's metric set.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// shardFor deterministically assigns a session ID to a shard.
func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

// CreateSession builds a session over the initial instance and registers
// it. Construction (greedy topology + engine build) runs on the caller;
// the session is readable immediately (its initial snapshot is published
// before return) and writable through Apply.
func (m *Manager) CreateSession(id string, pts []geom.Point) (*Session, error) {
	return m.CreateSessionMeasure(id, pts, m.cfg.DefaultMeasure)
}

// CreateSessionMeasure is CreateSession with an explicit interference
// measure (MeasureGraph, MeasureSinr, or "" for the configured
// default). The measure is fixed for the session's lifetime and
// recorded durably with it.
func (m *Manager) CreateSessionMeasure(id string, pts []geom.Point, measure string) (*Session, error) {
	if m.readOnly.Load() {
		return nil, ErrReadOnly
	}
	if measure == "" {
		measure = m.cfg.DefaultMeasure
	}
	return m.createSession(id, pts, measure)
}

// createSession is CreateSessionMeasure without the read-only gate —
// the path replicated create records take on a follower.
func (m *Manager) createSession(id string, pts []geom.Point, measure string) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("serve: empty session id")
	}
	measure, err := normalizeMeasure(measure)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if err := checkCoord(p.X, p.Y, m.cfg.MaxCoord); err != nil {
			return nil, fmt.Errorf("serve: point %d: %w", i, err)
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := m.sessions[id]; dup {
		m.mu.Unlock()
		return nil, ErrSessionExists
	}
	// Reserve the ID while the (potentially slow) construction runs
	// outside the lock.
	m.sessions[id] = nil
	m.mu.Unlock()

	s := newSession(m, id, pts, measure)

	// The create record and the registration are one critical section
	// with the checkpoint barrier's rotate-and-list step: either this
	// session's record lands before a rotation and the session is listed
	// (so it gets a checkpoint before the record is pruned), or the
	// record lands in the post-rotation segment and survives the prune.
	m.ckptMu.Lock()
	if m.walOK() {
		rec := store.Record{Kind: store.RecordCreate, Session: id, Payload: appendCreatePayload(nil, pts, measure)}
		if err := m.cfg.Store.Append(rec); err != nil {
			m.walFail(err)
		}
	}
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	m.ckptMu.Unlock()
	m.metrics.SessionsCreated.Add(1)
	return s, nil
}

// Session looks up a registered session.
func (m *Manager) Session(id string) (*Session, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sessions[id]
	return s, ok && s != nil
}

// SessionIDs returns the registered session IDs, sorted.
func (m *Manager) SessionIDs() []string {
	m.mu.RLock()
	ids := make([]string, 0, len(m.sessions))
	for id, s := range m.sessions {
		if s != nil {
			ids = append(ids, id)
		}
	}
	m.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// liveSessions returns the registered sessions, sorted by ID (for
// deterministic metrics output and drain order).
func (m *Manager) liveSessions() []*Session {
	m.mu.RLock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// DropSession closes a session (further Apply calls fail) and removes it
// from the table. Mutations already queued are still applied by the
// owner; they just become unobservable once every snapshot holder lets
// go. The AfterBatchDelta consumer receives the session's terminal
// BatchView.
func (m *Manager) DropSession(id string) error {
	if m.readOnly.Load() {
		return ErrReadOnly
	}
	return m.dropSession(id)
}

// dropSession is DropSession without the read-only gate — the path
// replicated drop records take on a follower.
func (m *Manager) dropSession(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok || s == nil {
		m.mu.Unlock()
		return ErrNoSession
	}
	delete(m.sessions, id)
	m.mu.Unlock()
	s.mu.Lock()
	s.dropped = true // stops WAL logging of the still-draining queue
	s.mu.Unlock()
	s.close()
	if m.cfg.AfterBatchDelta != nil {
		// Every drop — HTTP, wire, or a replicated drop record — tells
		// the consumer here, so no subscription outlives its session.
		m.cfg.AfterBatchDelta(BatchView{Session: id})
	}
	if m.cfg.Store != nil {
		// Checkpoints die BEFORE the drop record is logged: a crash
		// between the two resurrects the session (safe — the drop was
		// never acknowledged durable), while the reverse order could
		// leave a stale checkpoint to poison a future session reusing
		// this ID. ckptMu keeps an in-flight barrier checkpoint from
		// landing between the delete and the record.
		m.ckptMu.Lock()
		derr := m.cfg.Store.DeleteCheckpoints(id)
		if m.walOK() {
			if err := m.cfg.Store.Append(store.Record{Kind: store.RecordDrop, Session: id}); err != nil {
				m.walFail(err)
			}
		}
		m.ckptMu.Unlock()
		if derr != nil {
			return fmt.Errorf("serve: drop %q: stale checkpoints remain: %w", id, derr)
		}
	}
	return nil
}

// DrainStats reports what a shutdown drain did — and, crucially, what it
// did NOT apply. Every number here used to be silent.
type DrainStats struct {
	// DroppedMutations counts queued-but-unapplied mutations explicitly
	// rejected when the drain deadline expired (also counted into the
	// rejected totals and rimd_drain_dropped_total).
	DroppedMutations int
	// DroppedSessions is how many sessions those mutations came from.
	DroppedSessions int
	// FinalCheckpoints counts checkpoints written after the pool stopped
	// (Config.Store only); CheckpointErrors counts the ones that failed.
	FinalCheckpoints int
	CheckpointErrors int
}

// Close drains and stops the manager; see CloseStats for the accounting.
func (m *Manager) Close(ctx context.Context) error {
	_, err := m.CloseStats(ctx)
	return err
}

// CloseStats drains and stops the manager: no new sessions or mutations
// are accepted, every queued mutation is applied, then the shard pool
// exits. On ctx expiry whatever is still queued is explicitly rejected —
// counted per mutation in the returned stats and the drain-dropped
// metric, never silently discarded — and the context error is returned.
// With Config.Store set, a final checkpoint of every surviving session is
// written after the pool stops, so a clean shutdown recovers from
// checkpoints alone with no WAL replay.
func (m *Manager) CloseStats(ctx context.Context) (DrainStats, error) {
	var ds DrainStats
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	sessions := m.liveSessions()
	for _, s := range sessions {
		s.close()
	}
	var err error
	for _, s := range sessions {
		// Keep flushing the rest even after the deadline expires — the
		// expired ctx returns immediately, and every remaining queue must
		// be measured, not abandoned mid-loop.
		if ferr := s.Flush(ctx); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		for _, s := range sessions {
			if n := s.rejectQueued(); n > 0 {
				ds.DroppedMutations += n
				ds.DroppedSessions++
			}
		}
		if ds.DroppedMutations > 0 {
			m.metrics.DrainDropped.Add(int64(ds.DroppedMutations))
		}
	}
	for _, sh := range m.shards {
		sh.stop()
	}
	m.wg.Wait()

	if m.cfg.Store != nil {
		for _, s := range sessions {
			s.failCheckpointWaiters(ErrSessionClosed)
			s.mu.Lock()
			dropped := s.dropped
			s.mu.Unlock()
			if dropped {
				continue
			}
			// The pool is stopped: owner-only state is quiescent, so the
			// capture is safe from this goroutine.
			seq, payload := s.encodeCheckpoint()
			m.ckptMu.Lock()
			cerr := m.cfg.Store.WriteCheckpoint(s.id, seq, payload)
			m.ckptMu.Unlock()
			if cerr != nil {
				ds.CheckpointErrors++
			} else {
				ds.FinalCheckpoints++
			}
		}
	}
	return ds, err
}
