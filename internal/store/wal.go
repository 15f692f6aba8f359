package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects the WAL's fsync discipline.
type SyncPolicy uint8

const (
	// SyncBatch (the default) appends without waiting: a background
	// syncer fsyncs soon after, coalescing bursts into one fsync. A crash
	// can lose the last few batches but never tears committed state —
	// recovery still sees a valid prefix.
	SyncBatch SyncPolicy = iota
	// SyncAlways makes Append return only after the record is durable.
	// Concurrent appenders share fsyncs (group commit): a leader syncs
	// the tail once for every waiter behind the same watermark.
	SyncAlways
	// SyncNone fsyncs only at segment seal and Close — benchmarks and
	// tests that simulate the disk elsewhere.
	SyncNone
)

// String names the policy as the rimd -fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// ParseSyncPolicy inverts SyncPolicy.String.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, batch, or none)", s)
}

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("store: closed")

const walSuffix = ".wal"

// wal is the segmented log writer. All writer state is guarded by mu;
// fsync runs under syncMu→mu so concurrent SyncAlways appenders group
// behind one leader.
type wal struct {
	fs       FS
	dir      string
	segBytes int64
	policy   SyncPolicy
	mx       *metrics

	mu      sync.Mutex
	f       File
	index   uint64 // active segment index
	size    int64  // bytes in the active segment
	written int64  // process-local logical append watermark
	started bool
	closed  bool
	failed  error  // sticky fail-stop error: first write/fsync failure
	encBuf  []byte // reusable frame-encode buffer (guarded by mu)

	synced atomic.Int64 // durable watermark (process-local)
	syncMu sync.Mutex   // serializes group-commit leaders

	// durable horizon as a log position (segment, offset): the bytes a
	// replication reader may stream. Guarded by mu; advances on fsync
	// (or on write under SyncNone).
	durSeg uint64
	durOff int64

	// prunedEnd remembers each pruned segment's final size. A follower
	// caught up to the end of a sealed segment holds a cursor the next
	// checkpoint barrier would otherwise strand (the segment is gone,
	// but no record past the cursor was lost) — ReadFrom uses this map
	// to roll such cursors forward across the pruned boundary.
	// In-memory only: after a restart those cursors resync instead.
	prunedEnd map[uint64]int64

	nmu      sync.Mutex    // guards notifyCh
	notifyCh chan struct{} // replication kick: durable horizon advanced

	kick chan struct{} // SyncBatch: wake the background syncer
	done chan struct{} // closed to stop the syncer
	idle chan struct{} // closed by the syncer when it exits

	// tail knowledge from the last Scan, reused by start so the append
	// path doesn't rescan segments recovery already walked.
	tailKnown bool
	tailIndex uint64
	tailSize  int64
}

func (w *wal) segPath(index uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%08d%s", index, walSuffix))
}

// segments lists the existing segment indices, ascending.
func (w *wal) segments() ([]uint64, error) {
	ents, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var idx []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, walSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, walSuffix), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		idx = append(idx, n)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	return idx, nil
}

// start prepares the append position: heal the torn tail of the last
// segment (or create segment 1) and open it for appending. Called lazily
// by the first Append under mu.
func (w *wal) start() error {
	if !w.tailKnown {
		// No prior Scan located the valid end — find it now.
		if _, err := w.scan(nil); err != nil {
			return err
		}
	}
	if w.tailIndex == 0 {
		return w.createSegment(1)
	}
	path := w.segPath(w.tailIndex)
	f, err := w.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if w.tailSize < int64(len(segmentHeader)) {
		// Crash during segment creation left a partial header; rewrite it.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		if _, err := io.WriteString(f, segmentHeader); err != nil {
			f.Close()
			return err
		}
		w.tailSize = int64(len(segmentHeader))
	} else if err := f.Truncate(w.tailSize); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(w.tailSize, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.f, w.index, w.size = f, w.tailIndex, w.tailSize
	w.started = true
	w.durSeg, w.durOff = w.index, w.size
	return nil
}

// createSegment opens a fresh segment (header written, file and directory
// fsynced) and makes it the active one.
func (w *wal) createSegment(index uint64) error {
	path := w.segPath(index)
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(f, segmentHeader); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.fs, w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.index, w.size = f, index, int64(len(segmentHeader))
	w.started, w.tailKnown = true, true
	w.tailIndex, w.tailSize = index, w.size
	w.durSeg, w.durOff = index, w.size
	return nil
}

// fail records the sticky fail-stop error. After the first write or fsync
// failure the WAL refuses further appends: retrying an fsync that already
// failed can silently drop the dirty pages it claimed to flush.
func (w *wal) fail(err error) error {
	if w.failed == nil {
		w.failed = err
		w.mx.errors.Inc()
	}
	return w.failed
}

// append frames recs, writes them to the active segment in one write
// (rotating first when the segment is full), and applies the sync
// policy once for the whole group. Encoding runs under mu into a
// reused buffer, so the steady-state append path performs zero
// allocations and a multi-record group costs one syscall and at most
// one fsync.
func (w *wal) append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrStoreClosed
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	if !w.started {
		if err := w.start(); err != nil {
			err = w.fail(err)
			w.mu.Unlock()
			return err
		}
	}
	frame := w.encBuf[:0]
	for i := range recs {
		frame = appendRecord(frame, recs[i])
	}
	w.encBuf = frame
	if w.size > int64(len(segmentHeader)) && w.size+int64(len(frame)) > w.segBytes {
		if err := w.rotateLocked(); err != nil {
			err = w.fail(err)
			w.mu.Unlock()
			return err
		}
	}
	t0 := time.Now()
	n, err := w.f.Write(frame)
	if err != nil {
		// A partial write leaves a torn tail; recovery heals it, but this
		// writer is done (the segment's byte position is now unknown).
		_ = n
		err = w.fail(fmt.Errorf("store: wal write: %w", err))
		w.mu.Unlock()
		return err
	}
	w.size += int64(len(frame))
	w.written += int64(len(frame))
	end := w.written
	if w.policy == SyncNone {
		// No fsync discipline: the written watermark is the horizon.
		w.durSeg, w.durOff = w.index, w.size
	}
	w.mu.Unlock()

	switch w.policy {
	case SyncAlways:
		if err := w.syncTo(end); err != nil {
			return err
		}
	case SyncBatch:
		select {
		case w.kick <- struct{}{}:
		default: // a wakeup is already pending; it will cover this append
		}
	case SyncNone:
		w.kickNotify()
	}
	w.mx.appendNs.Observe(float64(time.Since(t0).Nanoseconds()))
	w.mx.walRecords.Add(int64(len(recs)))
	w.mx.walBytes.Add(int64(len(frame)))
	return nil
}

// syncTo blocks until the durable watermark covers end. One leader fsyncs
// for every waiter queued behind the same watermark (group commit).
func (w *wal) syncTo(end int64) error {
	if w.synced.Load() >= end {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= end {
		return nil // a leader that ran while we waited covered us
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if w.closed || w.f == nil {
		return ErrStoreClosed
	}
	cover := w.written
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("store: wal fsync: %w", err))
	}
	w.mx.fsyncNs.Observe(float64(time.Since(t0).Nanoseconds()))
	storeMax(&w.synced, cover)
	w.durSeg, w.durOff = w.index, w.size
	w.kickNotify()
	return nil
}

// kickNotify pokes the replication notifier (if registered) without
// blocking. Safe to call with or without mu held.
func (w *wal) kickNotify() {
	w.nmu.Lock()
	ch := w.notifyCh
	w.nmu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// storeMax raises a monotonically to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// syncLoop is the SyncBatch background syncer.
func (w *wal) syncLoop() {
	defer close(w.idle)
	for {
		select {
		case <-w.kick:
			w.mu.Lock()
			end := w.written
			w.mu.Unlock()
			_ = w.syncTo(end) // sticky error surfaces on the next append
		case <-w.done:
			return
		}
	}
}

// rotateLocked seals the active segment (fsync, close) and starts the
// next one. Caller holds mu.
func (w *wal) rotateLocked() error {
	if w.f != nil {
		t0 := time.Now()
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: seal fsync: %w", err)
		}
		w.mx.fsyncNs.Observe(float64(time.Since(t0).Nanoseconds()))
		storeMax(&w.synced, w.written)
		w.durSeg, w.durOff = w.index, w.size
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	w.mx.rotations.Inc()
	return w.createSegment(w.index + 1)
}

// scan walks every segment in order, invoking fn (when non-nil) per valid
// record, and reports tail state. Caller must not be appending
// concurrently; scan is the recovery-time read pass. Caller holds mu or
// has exclusive use.
func (w *wal) scan(fn func(Record) error) (TailInfo, error) {
	segs, err := w.segments()
	if err != nil {
		return TailInfo{}, err
	}
	var tail TailInfo
	if len(segs) == 0 {
		w.tailKnown, w.tailIndex, w.tailSize = true, 0, 0
		return tail, nil
	}
	for si, index := range segs {
		last := si == len(segs)-1
		info, err := w.scanSegment(index, last, fn)
		if err != nil {
			return info, err
		}
		if last {
			tail = info
			w.tailKnown, w.tailIndex, w.tailSize = true, index, info.ValidSize
		}
	}
	return tail, nil
}

// scanSegment reads one segment. In the last segment a short or
// CRC-damaged final record is a torn tail (reported, healed by start);
// anywhere else it is ErrCorrupt.
func (w *wal) scanSegment(index uint64, last bool, fn func(Record) error) (TailInfo, error) {
	path := w.segPath(index)
	f, err := w.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return TailInfo{}, err
	}
	defer f.Close()
	fileSize, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return TailInfo{}, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return TailInfo{}, err
	}
	r := bufio.NewReaderSize(f, 1<<16)

	info := TailInfo{Segment: index}
	head := make([]byte, len(segmentHeader))
	n, _ := io.ReadFull(r, head)
	switch {
	case n == len(segmentHeader) && string(head) == segmentHeader:
	case n == len(segmentHeader) && strings.HasPrefix(string(head), segmentMagic):
		// A whole header of another format version: refuse it, and never
		// let start heal it — the file holds a real log.
		return info, fmt.Errorf("%w: %s has header %q, want %q", ErrVersion, path, head, segmentHeader)
	case last && n < len(segmentHeader) && string(head[:n]) == segmentHeader[:n]:
		// Crash during segment creation: nothing valid in this file.
		info.Truncated, info.ValidSize, info.Dropped = true, 0, fileSize
		return info, nil
	default:
		return info, fmt.Errorf("%w: segment %08d has bad header", ErrCorrupt, index)
	}
	valid := int64(len(segmentHeader))
	for {
		rec, n, err := readRecord(r)
		switch {
		case err == io.EOF:
			info.ValidSize = valid
			return info, nil
		case errors.Is(err, ErrTruncated):
			if !last {
				return info, fmt.Errorf("%w: segment %08d truncated but not last: %v", ErrCorrupt, index, err)
			}
			info.Truncated, info.ValidSize, info.Dropped = true, valid, fileSize-valid
			return info, nil
		case errors.Is(err, ErrCorrupt):
			if !last {
				return info, fmt.Errorf("segment %08d: %w", index, err)
			}
			// Damage at the very tail of the log: indistinguishable from a
			// torn write into reused space, so heal it — but flag it so the
			// operator sees more than a clean cut.
			info.Truncated, info.Corrupt = true, true
			info.ValidSize, info.Dropped = valid, fileSize-valid
			return info, nil
		case err != nil:
			return info, err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return info, err
			}
		}
		valid += n
	}
}

// closeWAL stops the syncer and seals the active segment.
func (w *wal) closeWAL() error {
	if w.done != nil {
		close(w.done)
		<-w.idle
		w.done = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	var err error
	if w.failed == nil {
		err = w.f.Sync()
		if err == nil {
			w.durSeg, w.durOff = w.index, w.size
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// TailInfo describes the state of the WAL's final segment after a scan.
type TailInfo struct {
	Truncated bool   // a torn tail was found (and will be healed)
	Corrupt   bool   // the tail was CRC-damaged rather than cleanly cut
	Segment   uint64 // segment index holding the tail
	ValidSize int64  // byte offset of the end of the last valid frame
	Dropped   int64  // bytes past ValidSize that recovery discards
}
