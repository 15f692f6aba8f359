package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/phys"
	"repro/internal/store"
)

// RecoveryStats reports what a boot-time Recover reconstructed — the
// numbers rimd logs as its recovery manifest (they also land in the
// rim_store_* metrics, and from there in the run manifest).
type RecoveryStats struct {
	Sessions        int // sessions alive after recovery
	FromCheckpoint  int // restored from a checkpoint file
	FromLog         int // rebuilt from their create record alone
	DroppedSessions int // sessions whose log ends in a drop record
	// InterruptedDrops counts sessions recovered as dropped because their
	// batch records had neither a create record nor a checkpoint — the
	// signature of a DropSession interrupted by the crash (checkpoint
	// already deleted, create record long pruned, drop record not yet
	// durable). Finishing the drop is the only safe reading. Unsafe manual
	// segment deletion produces the same signature and also lands here —
	// visibly, in this counter — rather than failing the boot.
	InterruptedDrops   int
	ReplayedBatches    int      // WAL batch records replayed
	ReplayedMutations  int      // mutations inside those batches
	TornTail           bool     // the WAL ended mid-record (healed)
	TornBytes          int64    // bytes the torn tail dropped
	SkippedCheckpoints []string // invalid checkpoint files ignored
	Verified           int      // sessions cross-checked against a from-scratch recount
}

// incarnation is one create-to-drop lifetime of a session ID inside the
// WAL. A later create for the same ID starts a fresh incarnation.
type incarnation struct {
	created       bool
	createPayload []byte
	batches       []store.Record
}

// Recover rebuilds the manager's sessions from the store: newest valid
// checkpoint per session, plus a replay of the WAL tail through the
// follower's apply path (applyReplicated) into the normal batch
// pipeline. With verify set, every recovered session's
// interference vector is cross-checked against a from-scratch recount
// of the paper's definition (the oracle's sorted sweep, O(n log n +
// Σ strip)) — a recovery that cannot pass the paper's own definition
// fails loudly instead of serving silently wrong state.
//
// Call once, on boot, before exposing the manager to clients; replayed
// batches flow through the live shard pool but are not re-logged.
func (m *Manager) Recover(verify bool) (RecoveryStats, error) {
	var rs RecoveryStats
	st := m.cfg.Store
	if st == nil {
		return rs, ErrNoStore
	}
	sp := obs.Start("serve.recover")
	defer sp.End()

	ckpts, skipped, err := st.LatestCheckpoints()
	if err != nil {
		return rs, fmt.Errorf("serve: recover: checkpoints: %w", err)
	}
	rs.SkippedCheckpoints = skipped

	// One linear WAL pass: group records into per-session incarnations,
	// a drop discarding the current one. everDropped outlives re-creation:
	// it flags IDs whose on-disk checkpoint may belong to a pre-drop
	// incarnation (DropSession's checkpoint deletion is not crash-atomic
	// with its drop record).
	lives := make(map[string]*incarnation)
	droppedIDs := make(map[string]bool)
	everDropped := make(map[string]bool)
	tail, err := st.Scan(func(rec store.Record) error {
		switch rec.Kind {
		case store.RecordCreate:
			lives[rec.Session] = &incarnation{created: true, createPayload: rec.Payload}
			delete(droppedIDs, rec.Session)
		case store.RecordBatch:
			inc := lives[rec.Session]
			if inc == nil {
				inc = &incarnation{}
				lives[rec.Session] = inc
			}
			inc.batches = append(inc.batches, rec)
		case store.RecordDrop:
			delete(lives, rec.Session)
			droppedIDs[rec.Session] = true
			everDropped[rec.Session] = true
		}
		return nil
	})
	if err != nil {
		return rs, fmt.Errorf("serve: recover: wal scan: %w", err)
	}
	rs.TornTail, rs.TornBytes = tail.Truncated, tail.Dropped

	// A checkpoint can only outlive its session's drop record if the
	// machine died between the two during the drop itself — in which case
	// the drop record never landed and the session is live. A checkpoint
	// paired with a final drop record is therefore stale hygiene debt:
	// remove it rather than resurrect from it.
	for id := range droppedIDs {
		rs.DroppedSessions++
		if _, hasCkpt := ckpts[id]; hasCkpt {
			delete(ckpts, id)
			_ = st.DeleteCheckpoints(id)
		}
	}

	// A session that was checkpointed at a barrier and then idle has no
	// WAL records at all (the barrier pruned them) — it exists only as a
	// checkpoint and must still be recovered.
	for id := range ckpts {
		if _, ok := lives[id]; !ok {
			lives[id] = &incarnation{}
		}
	}

	ids := make([]string, 0, len(lives))
	for id := range lives {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for _, id := range ids {
		inc := lives[id]
		ckpt, hasCkpt := ckpts[id]
		// A live session with both a create record and an earlier drop is
		// a re-created ID; any checkpoint on disk may be the previous
		// incarnation's (its deletion raced the crash) and restoring from
		// it would silently serve the old state. The create record is the
		// ground truth — rebuild from it and let the next barrier replace
		// the suspect file.
		if hasCkpt && inc.created && everDropped[id] {
			hasCkpt = false
		}
		var s *Session
		switch {
		case hasCkpt:
			state, derr := decodeCheckpoint(ckpt.Payload)
			if derr != nil {
				return rs, fmt.Errorf("serve: recover %q: %w", id, derr)
			}
			s, err = m.restoreSession(id, state)
			if err != nil {
				return rs, fmt.Errorf("serve: recover %q: %w", id, err)
			}
			rs.FromCheckpoint++
		case inc.created:
			pts, measure, perr := decodeCreatePayload(inc.createPayload)
			if perr != nil {
				return rs, fmt.Errorf("serve: recover %q: create record: %w", id, perr)
			}
			s = newSession(m, id, pts, measure)
			m.register(id, s)
			rs.FromLog++
		default:
			// Batches with no create record (pruned at a barrier, so a
			// checkpoint existed) and no checkpoint (deleted): a drop whose
			// record was lost in the crash. Finish it.
			rs.DroppedSessions++
			rs.InterruptedDrops++
			continue
		}

		// Replay the batch records past the restored position through the
		// follower's apply path, with WAL logging suppressed (they are
		// already in the log). The watermark skips what the checkpoint
		// covers and each record stays one pinned batch; the session is
		// drained once, at the end.
		s.setNoLog(true)
		for _, rec := range inc.batches {
			n, aerr := s.applyReplicated(rec)
			if aerr != nil {
				return rs, fmt.Errorf("serve: recover %q: %w", id, aerr)
			}
			if n > 0 {
				rs.ReplayedBatches++
				rs.ReplayedMutations += n
			}
		}
		if err := s.Flush(nil); err != nil {
			return rs, fmt.Errorf("serve: recover %q: %w", id, err)
		}
		s.setNoLog(false)
		rs.Sessions++

		if verify {
			if err := verifySession(s); err != nil {
				return rs, fmt.Errorf("serve: recover %q: %w", id, err)
			}
			rs.Verified++
		}
	}

	st.CountRecovery(rs.ReplayedBatches, rs.TornBytes)
	return rs, nil
}

// verifySession recounts the recovered interference vector from scratch,
// from the recovered points and radii alone, with the oracle's sorted
// sweep for the session's measure, and compares it to the engine's
// maintained state. The recount shares no code with the engines or
// geom.Grid, so a replay that drifted the incremental vector fails here.
func verifySession(s *Session) error {
	st := s.mt.Snapshot()
	var iv core.Vector
	if s.measure == MeasureSinr {
		iv = oracle.SweepPhysLevels(st.Points, st.Radii, phys.Default())
	} else {
		iv = oracle.SweepInterference(st.Points, st.Radii)
	}
	snap := s.Snapshot()
	if max := iv.Max(); max != snap.Max {
		return fmt.Errorf("oracle cross-check: recovered max %d, oracle %d", snap.Max, max)
	}
	for i, want := range iv {
		if got := snap.Nodes[i].I; got != want {
			return fmt.Errorf("oracle cross-check: node %d interference %d, oracle %d", i, got, want)
		}
	}
	return nil
}

// restoreSession rebuilds a session from a decoded checkpoint and
// registers it, bypassing CreateSession (no create record is logged —
// recovery must not re-log history).
func (m *Manager) restoreSession(id string, st sessState) (*Session, error) {
	if len(st.idOf) != len(st.rs.Points) {
		return nil, fmt.Errorf("checkpoint carries %d ids for %d points", len(st.idOf), len(st.rs.Points))
	}
	measure, err := normalizeMeasure(st.measure)
	if err != nil {
		return nil, err
	}
	mt, err := dynamic.Restore(st.rs, m.cfg.RebuildFactor, m.engineFor(measure))
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:      id,
		mgr:     m,
		sh:      m.shardFor(id),
		measure: measure,
		flShard: flightShardOf(id),
		nextID:  st.nextID,
		idOf:    append([]int64(nil), st.idOf...),
		idxOf:   make(map[int64]int, len(st.idOf)),
		seq:     st.seq,
		replSeq: st.seq,
		mt:      mt,
	}
	s.cond = sync.NewCond(&s.mu)
	for i, ext := range st.idOf {
		s.idxOf[ext] = i
	}
	s.initHooks()
	s.publish()
	m.register(id, s)
	return s, nil
}

// setNoLog toggles WAL logging suppression for replay.
func (s *Session) setNoLog(v bool) {
	s.mu.Lock()
	s.nolog = v
	s.mu.Unlock()
}

// register inserts a recovered session into the table.
func (m *Manager) register(id string, s *Session) {
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	m.metrics.SessionsCreated.Add(1)
}

// CheckpointAll runs the checkpoint barrier: rotate the WAL, checkpoint
// every live session at a batch boundary, then prune the segments every
// checkpoint now covers. After it returns, recovery needs only the
// checkpoints plus the post-rotation WAL tail.
//
// The rotate-and-list step shares the checkpoint mutex with session
// creation, so a session whose create record landed before the rotation
// is always in the list (and gets a checkpoint before its record is
// pruned); sessions created afterwards have their create records in the
// surviving active segment.
func (m *Manager) CheckpointAll(ctx context.Context) (pruned int, err error) {
	st := m.cfg.Store
	if st == nil {
		return 0, ErrNoStore
	}
	sp := obs.Start("serve.checkpoint-all")
	defer sp.End()

	m.ckptMu.Lock()
	active, rerr := st.Rotate()
	sessions := m.liveSessions()
	m.ckptMu.Unlock()
	if rerr != nil {
		return 0, fmt.Errorf("serve: checkpoint barrier: rotate: %w", rerr)
	}
	for _, s := range sessions {
		if cerr := s.Checkpoint(ctx); cerr != nil {
			// A session dropped mid-barrier is fine — its records die with
			// it. Anything else aborts the barrier before the prune.
			if cerr == ErrSessionClosed {
				continue
			}
			return 0, fmt.Errorf("serve: checkpoint %q: %w", s.id, cerr)
		}
	}
	pruned, perr := st.Prune(active)
	if perr != nil {
		return pruned, fmt.Errorf("serve: checkpoint barrier: prune: %w", perr)
	}
	return pruned, nil
}
