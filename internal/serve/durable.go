package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// Durability glue: how the serving layer uses internal/store. The store
// frames, checksums, and fsyncs; serve owns the payloads —
//
//   - a create record carries the session's measure and initial point
//     block (appendCreatePayload, codec.go);
//   - a batch record carries a fixed trace stamp and the op block of
//     the batch in apply order (post-coalesce), the same op bytes a wire
//     mutate frame carries (appendBatchPayload, codec.go), with
//     Record.Seq = the session's mutation-log position after the batch;
//   - a checkpoint carries a full behavioral session snapshot in the
//     rimsess v1 text format below.
//
// Recovery and replication decode batch records with one function,
// Session.applyReplicated (replicate.go).
//
// Write-ahead ordering: runBatch appends the batch record before applying
// it, so an acknowledged batch is durable (under -fsync=always) even if
// the apply crashes halfway — recovery replays the whole batch and lands
// on the same state, one valid prefix of the mutation log.
//
// Failure policy: the service favors availability over durability. When a
// WAL append fails, the error is counted (rimd_wal_failures_total) and
// logging stops for the process; in-memory serving continues, and
// /healthz turns 503 naming the error. Operators watching the metric or
// the probe can drain and restart; operators who need
// stop-on-failure semantics run -fsync=always and treat the metric as a
// page.

// ErrNoStore is returned by durability operations on a manager that was
// built without Config.Store.
var ErrNoStore = errors.New("serve: no store configured")

// walFail records a WAL append failure once and disables further logging.
// The first failure dumps the flight recorder to stderr — the last ~32k
// batches of per-stage timings, captured at the moment durability died.
func (m *Manager) walFail(err error) {
	m.metrics.WALFailures.Add(1)
	first := m.walErr.CompareAndSwap(nil, &err)
	m.walBroken.Store(true)
	if first && obs.On() {
		obs.DefaultFlight().WriteText(os.Stderr, "wal failure: "+err.Error())
	}
}

// WALError returns the first WAL failure, which switched batch logging
// off, or nil while the WAL is healthy or absent. It is set before
// logging stops, so a nil result means every acknowledged batch so far
// was logged.
func (m *Manager) WALError() error {
	if p := m.walErr.Load(); p != nil {
		return *p
	}
	return nil
}

// walOK reports whether batch logging is still active.
func (m *Manager) walOK() bool {
	return m.cfg.Store != nil && !m.walBroken.Load()
}

// logBatch write-ahead-logs one about-to-apply batch. Owner goroutine
// only. Errors trip the manager-wide fail-open switch. The append runs
// under ckptMu so a batch that raced past the dropped-flag check still
// lands before its session's drop record, never after. A traced batch's
// record carries the trace stamp: the span id was pre-allocated by
// runBatch so the record (written before apply) and the span (recorded
// after) name the same id.
func (s *Session) logBatch(batch []Mutation, tc *obs.TraceContext, batchSpan uint64) {
	// The payload buffer is owner-only scratch; Append consumes it
	// synchronously (the store copies it into its own encode buffer), so
	// reusing it across batches is safe and keeps the log path
	// allocation-free at steady state.
	var stamp obs.TraceContext
	if tc != nil {
		stamp = obs.TraceContext{TraceID: tc.TraceID, SpanID: batchSpan, Flags: tc.Flags}
	}
	s.walBuf = appendBatchPayload(s.walBuf[:0], batch, stamp)
	rec := store.Record{
		Kind:    store.RecordBatch,
		Session: s.id,
		Seq:     s.seq + uint64(len(batch)),
		Payload: s.walBuf,
	}
	s.mgr.ckptMu.Lock()
	err := s.mgr.cfg.Store.Append(rec)
	s.mgr.ckptMu.Unlock()
	if err != nil {
		s.mgr.walFail(err)
	}
}

// Session checkpoint payload ("rimsess v1"):
//
//	rimsess v1 seq=<s> next=<id> baseline=<b> events=<e> rebuilds=<r> n=<n> m=<m>
//	p id=<ext> x=<x> y=<y> r=<radius>     n lines, engine-index order
//	e u=<idx> v=<idx> w=<dist>            m lines
//
// Floats use strconv's shortest round-trip form, so restore rebuilds the
// engine over bit-identical coordinates and radii.

// sessState is the decoded form of a checkpoint payload.
type sessState struct {
	seq     uint64
	nextID  int64
	measure string
	idOf    []int64
	rs      dynamic.RestoreState
}

// encodeCheckpoint serializes the session's full behavioral state. Owner
// goroutine only (or owner-free, e.g. after the shard pool has stopped).
func (s *Session) encodeCheckpoint() (seq uint64, payload []byte) {
	st := s.mt.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "rimsess v1 seq=%d next=%d baseline=%d events=%d rebuilds=%d n=%d m=%d",
		s.seq, s.loadNextID(), st.Baseline, st.Events, st.Rebuilds, len(st.Points), len(st.Edges))
	if s.measure != "" && s.measure != MeasureGraph {
		// Non-default measure only: graph checkpoints stay byte-identical
		// to the pre-measure format.
		fmt.Fprintf(&sb, " measure=%s", s.measure)
	}
	sb.WriteByte('\n')
	for i, p := range st.Points {
		fmt.Fprintf(&sb, "p id=%d x=%s y=%s r=%s\n", s.idOf[i], ftoa(p.X), ftoa(p.Y), ftoa(st.Radii[i]))
	}
	for _, e := range st.Edges {
		fmt.Fprintf(&sb, "e u=%d v=%d w=%s\n", e.U, e.V, ftoa(e.W))
	}
	return s.seq, []byte(sb.String())
}

// loadNextID reads nextID under the session mutex (it is written at
// enqueue time, not by the owner).
func (s *Session) loadNextID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// decodeCheckpoint inverts encodeCheckpoint.
func decodeCheckpoint(payload []byte) (sessState, error) {
	var st sessState
	text := strings.TrimRight(string(payload), "\n")
	lines := strings.Split(text, "\n")
	if !strings.HasPrefix(lines[0], "rimsess v1 ") { // Split never returns an empty slice
		return st, fmt.Errorf("serve: not a rimsess v1 checkpoint: %q", lines[0])
	}
	var n, m int
	for _, tok := range strings.Fields(lines[0])[2:] {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return st, fmt.Errorf("serve: checkpoint header token %q", tok)
		}
		if k == "seq" {
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return st, fmt.Errorf("serve: checkpoint seq: %w", err)
			}
			st.seq = u
			continue
		}
		if k == "measure" {
			if _, err := normalizeMeasure(v); err != nil {
				return st, fmt.Errorf("serve: checkpoint header: %w", err)
			}
			st.measure = v
			continue
		}
		i, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return st, fmt.Errorf("serve: checkpoint header %s: %w", k, err)
		}
		switch k {
		case "next":
			st.nextID = i
		case "baseline":
			st.rs.Baseline = int(i)
		case "events":
			st.rs.Events = int(i)
		case "rebuilds":
			st.rs.Rebuilds = int(i)
		case "n":
			n = int(i)
		case "m":
			m = int(i)
		default:
			return st, fmt.Errorf("serve: checkpoint header unknown key %q", k)
		}
	}
	body := lines[1:]
	if len(body) != n+m {
		return st, fmt.Errorf("serve: checkpoint body has %d lines, header says %d", len(body), n+m)
	}
	st.idOf = make([]int64, 0, n)
	st.rs.Points = make([]geom.Point, 0, n)
	st.rs.Radii = make([]float64, 0, n)
	for _, line := range body[:n] {
		var id int64
		var x, y, r float64
		if err := scanKV(line, "p", map[string]any{"id": &id, "x": &x, "y": &y, "r": &r}); err != nil {
			return st, err
		}
		st.idOf = append(st.idOf, id)
		st.rs.Points = append(st.rs.Points, geom.Pt(x, y))
		st.rs.Radii = append(st.rs.Radii, r)
	}
	st.rs.Edges = make([]graph.Edge, 0, m)
	for _, line := range body[n:] {
		var u, v int64
		var w float64
		if err := scanKV(line, "e", map[string]any{"u": &u, "v": &v, "w": &w}); err != nil {
			return st, err
		}
		st.rs.Edges = append(st.rs.Edges, graph.Edge{U: int(u), V: int(v), W: w})
	}
	return st, nil
}

// scanKV parses a "tag k=v k=v ..." checkpoint body line into typed
// destinations (*int64 or *float64).
func scanKV(line, tag string, dst map[string]any) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != tag {
		return fmt.Errorf("serve: checkpoint line %q: want tag %q", line, tag)
	}
	for _, tok := range fields[1:] {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("serve: checkpoint token %q", tok)
		}
		switch p := dst[k].(type) {
		case *int64:
			i, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("serve: checkpoint %s: %w", tok, err)
			}
			*p = i
		case *float64:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("serve: checkpoint %s: %w", tok, err)
			}
			*p = f
		default:
			return fmt.Errorf("serve: checkpoint unknown key %q in %q", k, line)
		}
	}
	return nil
}

// ckptReply is what the owner hands a checkpoint waiter: the serialized
// state to persist, or the reason it cannot be.
type ckptReply struct {
	seq     uint64
	payload []byte
	err     error
}

// Checkpoint captures the session's state at a batch boundary and
// persists it crash-atomically. The capture runs on the session's owner
// goroutine (registered as a waiter, served between batches); the write
// — the slow part — runs on the caller. A nil ctx waits indefinitely.
func (s *Session) Checkpoint(ctx context.Context) error {
	st := s.mgr.cfg.Store
	if st == nil {
		return ErrNoStore
	}
	ch := make(chan ckptReply, 1)
	s.mu.Lock()
	if s.dropped {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	s.ckptW = append(s.ckptW, ch)
	sched := !s.scheduled
	s.scheduled = true
	s.mu.Unlock()
	if sched {
		s.sh.schedule(s)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case rep := <-ch:
		if rep.err != nil {
			return rep.err
		}
		return s.writeCheckpoint(rep.seq, rep.payload)
	case <-done:
		return ctx.Err()
	}
}

// writeCheckpoint persists a captured checkpoint under the manager's
// checkpoint mutex, which serializes it against session drops — so a
// checkpoint can never land after its session's drop record (the
// stale-checkpoint-resurrection hazard).
func (s *Session) writeCheckpoint(seq uint64, payload []byte) error {
	m := s.mgr
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	s.mu.Lock()
	dropped := s.dropped
	s.mu.Unlock()
	if dropped {
		return ErrSessionClosed
	}
	return m.cfg.Store.WriteCheckpoint(s.id, seq, payload)
}

// serveCheckpoints hands every registered checkpoint waiter the current
// state. Owner goroutine, between batches.
func (s *Session) serveCheckpoints() {
	s.mu.Lock()
	waiters := s.ckptW
	s.ckptW = nil
	dropped := s.dropped
	s.mu.Unlock()
	if len(waiters) == 0 {
		return
	}
	rep := ckptReply{err: ErrSessionClosed}
	if !dropped {
		seq, payload := s.encodeCheckpoint()
		rep = ckptReply{seq: seq, payload: payload}
	}
	for _, ch := range waiters {
		ch <- rep
	}
}

// failCheckpointWaiters rejects pending waiters (shutdown path, after the
// shard pool has stopped and no owner will serve them).
func (s *Session) failCheckpointWaiters(err error) {
	s.mu.Lock()
	waiters := s.ckptW
	s.ckptW = nil
	s.mu.Unlock()
	for _, ch := range waiters {
		ch <- ckptReply{err: err}
	}
}
