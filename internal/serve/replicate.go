package serve

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/store"
)

// Replication apply: how a follower manager consumes the leader's WAL
// stream. Every record flows through the normal pipeline — a create
// builds the session (and logs a create record to the follower's own
// WAL, so the follower is independently recoverable), a batch is
// enqueued through the shard pipeline (and write-ahead-logged locally
// before apply, like any other batch), a drop closes the session. Each
// batch record is enqueued as one pinned batch, which the drain applies
// exactly as recorded — never merged with its neighbours and never
// coalesced — so its mutation count stays its seq advance under any
// follower configuration.
//
// Redelivery is the normal case, not an error: the follower
// acknowledges lazily and resubscribes after faults from its last
// persisted cursor, so the stream's head may replay records it already
// applied. The guards below make every record idempotent — a create for
// an existing session and a drop for a missing one are skips, and a
// batch at or below the session's replicated-seq watermark is a skip —
// while a batch that does not extend the watermark contiguously is a
// gap: a protocol violation the caller must treat as fatal for the
// connection (drop it, resubscribe from the cursor).

// ErrReplGap reports a batch record that neither replays a prefix nor
// extends the session's seq contiguously — the replication stream, or
// the local WAL under recovery, skipped records.
var ErrReplGap = errors.New("serve: batch record leaves a seq gap")

// ApplyRecord applies one replicated WAL record through the normal
// pipeline. Idempotent under redelivery; safe only from a single
// replication goroutine (the follower's feed loop).
func (m *Manager) ApplyRecord(rec store.Record) error {
	switch rec.Kind {
	case store.RecordCreate:
		pts, measure, err := decodeCreatePayload(rec.Payload)
		if err != nil {
			return fmt.Errorf("serve: replicated create %q: %w", rec.Session, err)
		}
		if _, err := m.createSession(rec.Session, pts, measure); err != nil {
			if errors.Is(err, ErrSessionExists) {
				return nil // redelivery
			}
			return fmt.Errorf("serve: replicated create %q: %w", rec.Session, err)
		}
		return nil
	case store.RecordBatch:
		s, ok := m.Session(rec.Session)
		if !ok {
			return fmt.Errorf("%w: batch seq=%d for unknown session %q", ErrReplGap, rec.Seq, rec.Session)
		}
		_, err := s.applyReplicated(rec)
		return err
	case store.RecordDrop:
		if err := m.dropSession(rec.Session); err != nil {
			if errors.Is(err, ErrNoSession) {
				return nil // redelivery
			}
			return fmt.Errorf("serve: replicated drop %q: %w", rec.Session, err)
		}
		return nil
	}
	return fmt.Errorf("serve: replicated record has unknown kind %d", rec.Kind)
}

// BatchTooBigError reports a batch record holding more mutations than
// the session queue can ever take — written by a leader, or by this
// node before a restart, running a larger QueueCap. Draining cannot
// make it fit, so the apply fails with it instead of retrying forever;
// the follower's feed loop and Recover both return it.
type BatchTooBigError struct {
	Session  string
	Seq      uint64
	Ops      int // mutations in the record
	QueueCap int // the session queue's capacity
}

func (e *BatchTooBigError) Error() string {
	return fmt.Sprintf("serve: batch %q seq=%d holds %d mutations, more than the queue cap %d",
		e.Session, e.Seq, e.Ops, e.QueueCap)
}

// applyReplicated enqueues one batch record — streamed from a leader,
// or replayed from the local WAL by Recover — as exactly one pinned
// batch, guarding the replicated-seq watermark, and reports how many
// mutations it enqueued (0 for a redelivered prefix). Queue-full is
// absorbed here — neither caller has a client to push 429 back to — by
// flushing and retrying.
func (s *Session) applyReplicated(rec store.Record) (int, error) {
	s.mu.Lock()
	watermark := s.replSeq
	s.mu.Unlock()
	if rec.Seq <= watermark {
		return 0, nil // redelivered prefix
	}
	muts, stamp, err := decodeBatchPayload(rec.Payload)
	if err != nil {
		return 0, fmt.Errorf("serve: batch %q seq=%d: %w", s.id, rec.Seq, err)
	}
	if rec.Seq != watermark+uint64(len(muts)) {
		return 0, fmt.Errorf("%w: session %q batch seq=%d does not extend watermark %d by %d",
			ErrReplGap, s.id, rec.Seq, watermark, len(muts))
	}
	if qc := s.mgr.cfg.QueueCap; len(muts) > qc {
		return 0, &BatchTooBigError{Session: s.id, Seq: rec.Seq, Ops: len(muts), QueueCap: qc}
	}
	if obs.On() && stamp.TraceID != 0 {
		// A traced leader batch re-applies as a traced batch: the stamp's
		// span id is the leader's batch span, so the local serve.batch
		// span links straight back to the leader's commit.
		muts[0].TC = &stamp
	}
	for {
		// Pinned: one leader batch record must become exactly one local
		// batch — the maintainer's end-of-batch deferral means merged or
		// split boundaries settle on a different radius assignment than
		// the leader's.
		_, err := s.applyPinned(muts)
		if err == nil {
			break
		}
		if errors.Is(err, ErrQueueFull) {
			if ferr := s.Flush(nil); ferr != nil {
				return 0, fmt.Errorf("serve: batch %q seq=%d: drain: %w", s.id, rec.Seq, ferr)
			}
			continue
		}
		return 0, fmt.Errorf("serve: batch %q seq=%d: %w", s.id, rec.Seq, err)
	}
	s.mu.Lock()
	s.replSeq = rec.Seq
	s.mu.Unlock()
	return len(muts), nil
}
