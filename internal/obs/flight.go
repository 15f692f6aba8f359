package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Flight recorder: a per-shard lock-free ring of compact per-batch
// records, written for *every* applied batch while observability is on —
// cheap enough to leave running in production (one slot claim, one
// pointer store), so the moments before a WAL failure or a SIGQUIT are
// always reconstructable even when span sampling would have missed them.
//
// Span records answer "what did this traced request do"; flight records
// answer "what was the whole pipeline doing around t". Tail sampling
// bridges the two: every batch gets a flight record, but full span trees
// are only retained for traced requests that were slow or failed (see
// TailKeep).

// FlightRecord is one batch's always-on accounting. Stage durations are
// µs (u32 caps a stage at ~71 minutes — far beyond any real batch).
type FlightRecord struct {
	Trace      uint64 `json:"trace,omitempty"` // distributed trace id; 0 = untraced
	Span       uint64 `json:"span,omitempty"`  // the batch span's id when traced
	Seq        uint64 `json:"seq"`             // session batch sequence after this batch
	Session    string `json:"session,omitempty"`
	Start      int64  `json:"start_ns"` // ns since epoch, batch pipeline start
	QueueUS    uint32 `json:"queue_us"` // oldest mutation's enqueue→drain wait
	CoalesceUS uint32 `json:"coalesce_us"`
	WALUS      uint32 `json:"wal_us"`
	ApplyUS    uint32 `json:"apply_us"`  // the batch's mutations, one by one
	SettleUS   uint32 `json:"settle_us"` // the maintainer's settle at batch end
	PublishUS  uint32 `json:"publish_us"`
	Ops        uint32 `json:"ops"`
	Err        uint8  `json:"err,omitempty"` // 1 = the batch hit a WAL failure
}

// US converts a stage duration to the flight record's µs unit, clamping
// negatives (clock steps) to 0 and overflow to the u32 maximum.
func US(d time.Duration) uint32 {
	us := d.Microseconds()
	switch {
	case us < 0:
		return 0
	case us > math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(us)
}

// flightShard is one independent ring; padding keeps neighbouring
// cursors off each other's cache lines.
type flightShard struct {
	slots  []atomic.Pointer[FlightRecord]
	mask   uint64
	cursor atomic.Uint64
	_      [40]byte
}

// FlightLog is the sharded flight-record ring.
type FlightLog struct {
	shards []flightShard
	smask  uint64
}

// Default flight sizing: 8 shards × 4096 records ≈ the last ~32k batches.
const (
	DefaultFlightShards = 8
	DefaultFlightCap    = 1 << 12
)

// NewFlightLog builds a flight log with the given shard count and
// per-shard capacity (both rounded up to powers of two; <= 0 selects the
// defaults).
func NewFlightLog(shards, perShard int) *FlightLog {
	if shards <= 0 {
		shards = DefaultFlightShards
	}
	if perShard <= 0 {
		perShard = DefaultFlightCap
	}
	s := 1
	for s < shards {
		s <<= 1
	}
	c := 1
	for c < perShard {
		c <<= 1
	}
	f := &FlightLog{shards: make([]flightShard, s), smask: uint64(s - 1)}
	for i := range f.shards {
		f.shards[i].slots = make([]atomic.Pointer[FlightRecord], c)
		f.shards[i].mask = uint64(c - 1)
	}
	return f
}

var defaultFlight atomic.Pointer[FlightLog]

func init() { defaultFlight.Store(NewFlightLog(DefaultFlightShards, DefaultFlightCap)) }

// DefaultFlight returns the process-wide flight log.
func DefaultFlight() *FlightLog { return defaultFlight.Load() }

// ResetDefaultFlight replaces the process-wide flight log (CLI startup;
// tests use their own).
func ResetDefaultFlight(shards, perShard int) *FlightLog {
	f := NewFlightLog(shards, perShard)
	defaultFlight.Store(f)
	return f
}

// Add records one batch into the shard's ring (shard is reduced mod the
// shard count, so callers pass their worker index straight through).
// Lock-free: one atomic add claims the slot, one store publishes.
func (f *FlightLog) Add(shard uint64, rec FlightRecord) {
	sh := &f.shards[shard&f.smask]
	slot := sh.cursor.Add(1) - 1
	sh.slots[slot&sh.mask].Store(&rec)
}

// Len returns how many records are currently retained across all shards.
func (f *FlightLog) Len() int {
	n := 0
	for i := range f.shards {
		c := f.shards[i].cursor.Load()
		if c > uint64(len(f.shards[i].slots)) {
			c = uint64(len(f.shards[i].slots))
		}
		n += int(c)
	}
	return n
}

// Records snapshots every retained record, merged across shards and
// sorted by start time.
func (f *FlightLog) Records() []FlightRecord {
	out := make([]FlightRecord, 0, f.Len())
	for i := range f.shards {
		sh := &f.shards[i]
		n := sh.cursor.Load()
		start := uint64(0)
		if n > uint64(len(sh.slots)) {
			start = n - uint64(len(sh.slots))
		}
		for j := start; j < n; j++ {
			if p := sh.slots[j&sh.mask].Load(); p != nil {
				out = append(out, *p)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// Reset clears the log. Not safe to race with writers; between runs only.
func (f *FlightLog) Reset() {
	for i := range f.shards {
		sh := &f.shards[i]
		for j := range sh.slots {
			sh.slots[j].Store(nil)
		}
		sh.cursor.Store(0)
	}
}

// WriteJSON renders the retained records as a JSON document:
// {"flight": [...], "count": N}.
func (f *FlightLog) WriteJSON(w io.Writer) error {
	recs := f.Records()
	return json.NewEncoder(w).Encode(struct {
		Flight []FlightRecord `json:"flight"`
		Count  int            `json:"count"`
	}{Flight: recs, Count: len(recs)})
}

// WriteText renders the retained records as one line per batch — the
// shape of the SIGQUIT / WAL-failure crash dump.
func (f *FlightLog) WriteText(w io.Writer, reason string) {
	recs := f.Records()
	fmt.Fprintf(w, "# flight recorder dump (%s): %d batches\n", reason, len(recs))
	for _, r := range recs {
		fmt.Fprintf(w, "t=%d sess=%s seq=%d ops=%d queue=%dus coalesce=%dus wal=%dus apply=%dus settle=%dus publish=%dus",
			r.Start, r.Session, r.Seq, r.Ops, r.QueueUS, r.CoalesceUS, r.WALUS, r.ApplyUS, r.SettleUS, r.PublishUS)
		if r.Trace != 0 {
			fmt.Fprintf(w, " trace=%016x span=%d", r.Trace, r.Span)
		}
		if r.Err != 0 {
			fmt.Fprintf(w, " err=%d", r.Err)
		}
		fmt.Fprintln(w)
	}
}
