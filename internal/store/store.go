// Package store is the durability subsystem under the rimd serving
// layer: a segmented, CRC-framed write-ahead log for applied mutation
// batches, crash-atomic checkpoint files for session state, and the
// recovery scan that reconciles the two.
//
// # Contract
//
// The store guarantees that after any crash — at any byte offset of any
// write — recovery observes a *prefix* of the appended record sequence:
// every record either survives completely (CRC-validated) or is
// discarded with everything after it. This is the durable mirror of the
// serving layer's live guarantee that reads see a prefix of the mutation
// log. The kill-at-every-offset property test in internal/serve holds
// the two against each other.
//
// Payloads are opaque here. internal/serve encodes mutation batches in
// its binary mutation codec and maintainer state in its checkpoint
// syntax; the store frames, checksums, fsyncs, rotates, scans, and
// heals.
//
// # Fsync discipline
//
//   - WAL appends follow the configured SyncPolicy (always / batch /
//     none); segment seals and Close always fsync.
//   - New segments are fsynced (header) and their directory entry made
//     durable before the first record lands.
//   - Checkpoints are written to a temp name, fsynced, renamed, and the
//     directory fsynced — visible means valid.
//   - The first write or fsync failure is sticky: the WAL fail-stops
//     rather than retrying an fsync whose dirty pages may already be
//     gone.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// Options configures Open. The zero value of every field selects a sane
// default except Dir, which is required.
type Options struct {
	// Dir is the data directory; wal/ and ckpt/ are created beneath it.
	Dir string
	// SegmentBytes rotates the WAL when the active segment would exceed
	// this size; <= 0 means 64 MiB.
	SegmentBytes int64
	// Sync selects the fsync discipline (default SyncBatch).
	Sync SyncPolicy
	// FS overrides the filesystem (tests inject FaultFS); nil means OSFS.
	FS FS
	// Registry receives the rim_store_* metrics; nil means obs.Default().
	Registry *obs.Registry
}

// Store is the durability handle: one WAL plus one checkpoint directory.
// Append and WriteCheckpoint are safe for concurrent use; Scan is the
// recovery-time read pass and must not run concurrently with appends.
type Store struct {
	fs      FS
	dir     string
	ckptDir string
	mx      *metrics
	wal     wal
}

// Open prepares the directory layout and returns a handle. No segment is
// read or written until the first Append or Scan.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	s := &Store{
		fs:      opts.FS,
		dir:     opts.Dir,
		ckptDir: filepath.Join(opts.Dir, "ckpt"),
		mx:      registerMetrics(opts.Registry),
	}
	s.wal = wal{
		fs:       opts.FS,
		dir:      filepath.Join(opts.Dir, "wal"),
		segBytes: opts.SegmentBytes,
		policy:   opts.Sync,
		mx:       s.mx,
	}
	for _, d := range []string{s.wal.dir, s.ckptDir, filepath.Join(s.ckptDir, "tmp")} {
		if err := s.fs.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if opts.Sync == SyncBatch {
		s.wal.kick = make(chan struct{}, 1)
		s.wal.done = make(chan struct{})
		s.wal.idle = make(chan struct{})
		go s.wal.syncLoop()
	}
	return s, nil
}

// OpenReadOnly opens an existing data directory for inspection. Scan and
// LatestCheckpoints work as usual; every write (an append, a torn-tail
// heal, a missing subdirectory) fails instead of touching the directory.
// A directory without a wal/ subdirectory is refused rather than
// initialised.
func OpenReadOnly(dir string) (*Store, error) {
	walDir := filepath.Join(dir, "wal")
	if fi, err := os.Stat(walDir); err != nil {
		return nil, fmt.Errorf("store: %s is not a data directory: %w", dir, err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("store: %s is not a data directory: %s is not a directory", dir, walDir)
	}
	return Open(Options{Dir: dir, Sync: SyncNone, FS: readOnlyFS{}, Registry: obs.NewRegistry()})
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Policy returns the configured fsync policy.
func (s *Store) Policy() SyncPolicy { return s.wal.policy }

// Append writes one record to the WAL under the configured fsync policy.
func (s *Store) Append(rec Record) error { return s.wal.append(rec) }

// AppendBatch writes a group of records as one contiguous WAL write:
// they are framed back to back in the encode buffer, hit the segment in
// a single syscall, and share one fsync under SyncAlways. The crash
// contract is unchanged — each record still carries its own CRC frame,
// so recovery keeps any valid prefix of the group.
func (s *Store) AppendBatch(recs []Record) error { return s.wal.append(recs...) }

// Sync forces the WAL durable up to everything appended so far.
func (s *Store) Sync() error {
	s.wal.mu.Lock()
	end := s.wal.written
	s.wal.mu.Unlock()
	return s.wal.syncTo(end)
}

// Scan walks every WAL segment in order, calling fn for each valid
// record, and reports the tail state (whether a torn tail was found and
// how many bytes it drops). Corruption anywhere but the tail fails with
// ErrCorrupt. Recovery-only: do not Scan a store that is appending.
func (s *Store) Scan(fn func(Record) error) (TailInfo, error) {
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.scan(fn)
}

// Rotate seals the active segment and opens the next one, returning the
// new active index. The checkpoint barrier calls this so every record
// older than the checkpoints it is about to write lands in prunable
// segments.
func (s *Store) Rotate() (uint64, error) {
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	if s.wal.closed {
		return 0, ErrStoreClosed
	}
	if s.wal.failed != nil {
		return 0, s.wal.failed
	}
	if !s.wal.started {
		if err := s.wal.start(); err != nil {
			return 0, s.wal.fail(err)
		}
		return s.wal.index, nil // fresh log: nothing to seal
	}
	if err := s.wal.rotateLocked(); err != nil {
		return 0, s.wal.fail(err)
	}
	return s.wal.index, nil
}

// Prune removes WAL segments with index < before. Safe only after every
// live session has a checkpoint at or past its last record in those
// segments — the barrier CheckpointAll in internal/serve enforces that.
func (s *Store) Prune(before uint64) (removed int, err error) {
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	segs, err := s.wal.segments()
	if err != nil {
		return 0, err
	}
	for _, idx := range segs {
		if idx >= before || idx == s.wal.index {
			continue
		}
		end, serr := s.segSize(idx)
		if rerr := s.fs.Remove(s.wal.segPath(idx)); rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		if serr == nil {
			if s.wal.prunedEnd == nil {
				s.wal.prunedEnd = make(map[uint64]int64)
			}
			s.wal.prunedEnd[idx] = end
		}
		removed++
	}
	return removed, err
}

// segSize reports a segment file's byte size. Caller holds wal.mu.
func (s *Store) segSize(idx uint64) (int64, error) {
	f, err := s.fs.OpenFile(s.wal.segPath(idx), os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Seek(0, io.SeekEnd)
}

// WriteCheckpoint persists a session checkpoint crash-atomically and
// garbage-collects older checkpoints of the same session.
func (s *Store) WriteCheckpoint(session string, seq uint64, payload []byte) error {
	return s.writeCheckpoint(session, seq, payload)
}

// LatestCheckpoints returns the newest valid checkpoint per session plus
// a list of skipped (invalid) checkpoint files for the recovery report.
func (s *Store) LatestCheckpoints() (map[string]Checkpoint, []string, error) {
	return s.latestCheckpoints()
}

// DeleteCheckpoints removes every checkpoint for a session (called
// before its drop record is logged).
func (s *Store) DeleteCheckpoints(session string) error {
	return s.deleteCheckpoints(session)
}

// Metrics accessors used by recovery reporting in internal/serve.
func (s *Store) CountRecovery(replayedBatches int, tornBytes int64) {
	s.mx.recoveries.Inc()
	s.mx.replayedBatches.Add(int64(replayedBatches))
	s.mx.tornBytes.Add(tornBytes)
}

// Close seals the WAL (final fsync) and stops the background syncer.
func (s *Store) Close() error { return s.wal.closeWAL() }
