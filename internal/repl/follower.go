package repl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wire"
)

// Follower consumes a leader's feed and applies every record through
// its manager's normal shard pipeline (serve.Manager.ApplyRecord), so a
// follower is just a rimd whose writes arrive over the wire instead of
// HTTP. Reads stay lock-free snapshot reads; mutations are refused with
// ErrReadOnly until promotion.
//
// The loop is crash-shaped end to end: any connection death — clean,
// torn mid-frame, partitioned — falls back to dial + resubscribe from
// the last applied cursor, and the apply path's idempotence guards
// absorb whatever prefix the leader replays. The only non-local repair
// is a seq gap or a pruned cursor, both of which force a resync from
// the log start (cursor zero). A follower therefore needs no state to
// restart beyond its own WAL and the persisted cursor, and survives
// losing the cursor file entirely.

// FollowerConfig configures a feed consumer.
type FollowerConfig struct {
	Manager *serve.Manager
	NodeID  string
	// LeaderAddr is the leader's feed listener address.
	LeaderAddr string
	// Epoch, when non-zero, pins the leader term this follower will
	// accept; a mismatched leader refuses the subscribe.
	Epoch uint64
	// CursorPath, when set, persists the applied cursor across restarts
	// (tmp+rename). Losing the file is safe — the follower resumes from
	// zero and skips the replayed prefix.
	CursorPath string
	// Dial, when set, replaces net.Dial — the fault injection seam
	// (return a FaultConn to tear the read path).
	Dial func(addr string) (net.Conn, error)
	// Backoff is the reconnect backoff floor (default 25ms, doubling to
	// 1s).
	Backoff time.Duration
	// Registry receives rim_repl_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Logf, when set, receives operator-facing warnings (stuck-resync
	// transitions). Default discards.
	Logf func(format string, args ...any)
}

// FollowerStats is a snapshot of the feed counters.
type FollowerStats struct {
	Frames     uint64 // record frames applied
	Records    uint64 // records delivered (redeliveries included)
	Reconnects uint64 // connection deaths survived
	Gaps       uint64 // seq gaps detected (each forces a resync)
	Resyncs    uint64 // restarts from the log start
	Pruned     uint64 // StatusGone refusals (cursor inside pruned segments)
	// StuckResync reports a follower that can never catch up as-is: the
	// leader pruned the log start, so even a resync from cursor zero is
	// refused. The follower keeps serving its last applied state and
	// keeps retrying (a later prune cannot help, but a leader restart
	// with intact history can), but it is not a healthy promote
	// candidate and /repl/status must not present it as one.
	StuckResync bool
}

// Follower is a running feed consumer. Create with NewFollower, drive
// with Run (blocking; run it in a goroutine), stop with Stop or hand
// the node over with Promote.
type Follower struct {
	cfg FollowerConfig
	mx  *metrics

	// done is closed by Stop under mu; Run registers with wg under mu
	// only while done is open, so wg.Wait after Stop sees every Run.
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	cursor store.Cursor
	conn   net.Conn
	epoch  uint64 // last epoch observed on the stream

	frames     atomic.Uint64
	records    atomic.Uint64
	reconnects atomic.Uint64
	gaps       atomic.Uint64
	resyncs    atomic.Uint64
	pruned     atomic.Uint64
	stuck      atomic.Bool
}

// NewFollower builds a consumer, restoring the persisted cursor when
// CursorPath names one, and flips the manager read-only: from here
// until Promote the feed is the only writer.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Manager == nil {
		return nil, errors.New("repl: follower requires a manager")
	}
	f := &Follower{cfg: cfg, mx: registerMetrics(cfg.Registry), done: make(chan struct{})}
	if cfg.CursorPath != "" {
		b, err := os.ReadFile(cfg.CursorPath)
		switch {
		case err == nil:
			cur, perr := store.ParseCursor(string(b))
			if perr != nil {
				return nil, fmt.Errorf("repl: cursor file %s: %w", cfg.CursorPath, perr)
			}
			f.cursor = cur
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("repl: cursor file: %w", err)
		}
	}
	cfg.Manager.SetReadOnly(true)
	return f, nil
}

// Cursor reports the applied-through position.
func (f *Follower) Cursor() store.Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

// LeaderEpoch reports the epoch last seen on the stream (0 before the
// first frame).
func (f *Follower) LeaderEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Stats snapshots the feed counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Frames:      f.frames.Load(),
		Records:     f.records.Load(),
		Reconnects:  f.reconnects.Load(),
		Gaps:        f.gaps.Load(),
		Resyncs:     f.resyncs.Load(),
		Pruned:      f.pruned.Load(),
		StuckResync: f.stuck.Load(),
	}
}

// Stop ends the feed loop. Idempotent; safe from any goroutine. The
// close happens under f.mu, the lock Run registers under, so once Stop
// returns every Run has either registered with f.wg or will see the
// closed channel and never register: Promote's f.wg.Wait cannot race an
// Add.
func (f *Follower) Stop() {
	f.mu.Lock()
	if !f.stopped() {
		close(f.done)
	}
	c := f.conn
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (f *Follower) stopped() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Run consumes the feed until Stop (nil) or an unrecoverable apply
// error. Every connection death reconnects from the applied cursor with
// capped exponential backoff.
func (f *Follower) Run() error {
	f.mu.Lock()
	if f.stopped() {
		f.mu.Unlock()
		return nil
	}
	f.wg.Add(1)
	f.mu.Unlock()
	defer f.wg.Done()
	backoff := f.cfg.Backoff
	for {
		if f.stopped() {
			return nil
		}
		progressed, err := f.session()
		if f.stopped() {
			return nil
		}
		if err != nil && errors.Is(err, serve.ErrReplGap) {
			// The stream skipped records this node never saw (e.g. the
			// cursor file outran the follower's own recovered WAL). Heal by
			// replaying from the log start: idempotence skips the known
			// prefix, the replay fills the hole.
			f.gaps.Add(1)
			f.mx.gaps.Inc()
			f.resync()
		} else if err != nil && isFatalApply(err) {
			return err
		}
		f.reconnects.Add(1)
		f.mx.reconnects.Inc()
		if progressed {
			backoff = f.cfg.Backoff
		} else if backoff < time.Second {
			backoff *= 2
		}
		select {
		case <-time.After(backoff):
		case <-f.done:
			return nil
		}
	}
}

// isFatalApply reports errors no reconnect can fix: the local apply
// pipeline itself rejected a record for a reason other than a gap.
func isFatalApply(err error) bool {
	var applyErr *applyError
	return errors.As(err, &applyErr)
}

type applyError struct{ err error }

func (e *applyError) Error() string { return e.err.Error() }
func (e *applyError) Unwrap() error { return e.err }

// resync discards the cursor: the next session replays from the log
// start.
func (f *Follower) resync() {
	f.mu.Lock()
	f.cursor = store.Cursor{}
	f.mu.Unlock()
	f.resyncs.Add(1)
	f.mx.resyncs.Inc()
	f.persistCursor(store.Cursor{})
}

// session runs one connection: dial, handshake, subscribe, apply frames
// until the connection dies. It reports whether any frame was applied
// (resets backoff) and a non-nil error only for conditions reconnecting
// cannot fix as-is (gap, fatal apply).
func (f *Follower) session() (progressed bool, fatal error) {
	conn, err := f.cfg.Dial(f.cfg.LeaderAddr)
	if err != nil {
		return false, nil
	}
	f.mu.Lock()
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()
	if f.stopped() {
		// Stop may have snapshotted f.conn before the assignment above and
		// so closed nothing; without this re-check the frame loop would
		// outlive Stop and Promote's wg.Wait would never return.
		return false, nil
	}

	r := wire.NewReader(conn, 0)
	if _, err := conn.Write(wire.AppendFrame(nil, wire.MsgHello, 0, 1, wire.AppendHello(nil), false)); err != nil {
		return false, nil
	}
	h, p, err := r.Next()
	if err != nil || h.Type != wire.MsgHelloOK || wire.CheckHello(p) != nil {
		return false, nil
	}

	cur := f.Cursor()
	sub := wire.ReplSubscribe{NodeID: f.cfg.NodeID, Epoch: f.cfg.Epoch, Cursor: cur}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.MsgReplSubscribe, 0, 2, wire.AppendReplSubscribe(nil, sub), false)); err != nil {
		return false, nil
	}

	var (
		recs []store.Record
		ackb []byte
	)
	for {
		h, p, err := r.Next()
		if err != nil {
			return progressed, nil // torn/partitioned/closed: reconnect
		}
		recvNS := time.Now().UnixNano()
		switch h.Type {
		case wire.MsgErr:
			msg, _, _ := wire.ReadString(p)
			switch h.Status {
			case wire.StatusGone:
				// Cursor pruned on the leader. From a non-zero cursor a
				// restart from the log start may still work (prune keeps
				// whole segments); from zero the log start is gone for good
				// and no resync can help — the follower is stuck serving
				// stale reads until an operator intervenes (there is no
				// checkpoint bootstrap yet), so the transition is surfaced
				// in FollowerStats and logged loudly instead of silently
				// retrying forever.
				f.pruned.Add(1)
				f.mx.pruned.Inc()
				if !cur.IsZero() {
					f.resync()
				} else if f.stuck.CompareAndSwap(false, true) {
					f.cfg.Logf("repl: follower %s cannot catch up: leader pruned the log start (%s); serving stale reads, not a promote candidate", f.cfg.NodeID, msg)
				}
				return progressed, nil
			default:
				// Stale epoch or malformed subscribe: retry after backoff —
				// a restarted leader may come up at this address with the
				// epoch we expect.
				_ = msg
				return progressed, nil
			}
		case wire.MsgReplRecords:
			epoch, from, next, got, derr := wire.DecodeReplRecords(p, recs[:0])
			if derr != nil {
				return progressed, nil // corrupt frame: reconnect
			}
			recs = got
			if from != cur {
				// The stream is not continuing from where we subscribed —
				// a protocol violation. Drop the connection and resubscribe
				// from the applied cursor (the heal path).
				return progressed, nil
			}
			f.mu.Lock()
			f.epoch = epoch
			f.mu.Unlock()
			f.records.Add(uint64(len(recs)))
			f.mx.recordsIn.Add(int64(len(recs)))
			for i := range recs {
				if aerr := f.cfg.Manager.ApplyRecord(recs[i]); aerr != nil {
					if errors.Is(aerr, serve.ErrReplGap) {
						return progressed, aerr
					}
					return progressed, &applyError{err: aerr}
				}
			}
			cur = next
			f.mu.Lock()
			f.cursor = cur
			f.mu.Unlock()
			f.persistCursor(cur)
			f.frames.Add(1)
			f.mx.framesIn.Inc()
			progressed = true
			if f.stuck.CompareAndSwap(true, false) {
				f.cfg.Logf("repl: follower %s caught the stream again", f.cfg.NodeID)
			}
			// WallNS lets the leader estimate this node's clock offset from
			// the ack round trip (see PeerStats.OffsetNS). It is the
			// midpoint between frame receipt and ack, so the time spent
			// applying the frame and persisting the cursor splits evenly
			// across the round trip instead of reading as clock offset.
			sendNS := time.Now().UnixNano()
			ackb = wire.AppendFrame(ackb[:0], wire.MsgReplAck, 0, h.ID,
				wire.AppendReplAck(nil, wire.ReplAck{Epoch: epoch, Cursor: cur, WallNS: recvNS + (sendNS-recvNS)/2}), false)
			if _, werr := conn.Write(ackb); werr != nil {
				return progressed, nil
			}
		default:
			return progressed, nil // protocol violation: reconnect
		}
	}
}

// persistCursor writes the cursor file atomically (tmp + rename).
// Best-effort: a lost update only widens the replayed prefix, which the
// apply path absorbs.
func (f *Follower) persistCursor(cur store.Cursor) {
	if f.cfg.CursorPath == "" {
		return
	}
	tmp := f.cfg.CursorPath + ".tmp"
	if err := os.WriteFile(tmp, []byte(cur.String()+"\n"), 0o644); err != nil {
		return
	}
	// The rename is durable enough for a cache: a lost or stale cursor
	// only replays a longer prefix.
	os.Rename(tmp, f.cfg.CursorPath)
}

// Promote hands the node over as leader: stop the feed, drain every
// session queue so all replicated records are applied and locally
// logged, then lift read-only. The caller bumps the epoch it serves
// with. Safe to call whether or not Run is active.
func (f *Follower) Promote(ctx context.Context) error {
	f.Stop()
	f.wg.Wait()
	m := f.cfg.Manager
	for _, id := range m.SessionIDs() {
		s, ok := m.Session(id)
		if !ok {
			continue
		}
		if err := s.Flush(ctx); err != nil {
			return fmt.Errorf("repl: promote: drain %q: %w", id, err)
		}
	}
	m.SetReadOnly(false)
	f.mx.promotions.Inc()
	return nil
}
