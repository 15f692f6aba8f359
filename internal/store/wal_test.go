package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func testOpts(t *testing.T, dir string, mut func(*Options)) Options {
	t.Helper()
	o := Options{Dir: dir, Sync: SyncNone, Registry: obs.NewRegistry()}
	if mut != nil {
		mut(&o)
	}
	return o
}

func mustOpen(t *testing.T, o Options) *Store {
	t.Helper()
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rec(kind RecordKind, sess string, seq uint64, payload string) Record {
	return Record{Kind: kind, Session: sess, Seq: seq, Payload: []byte(payload)}
}

func scanAll(t *testing.T, s *Store) ([]Record, TailInfo) {
	t.Helper()
	var got []Record
	tail, err := s.Scan(func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got, tail
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	s := mustOpen(t, testOpts(t, t.TempDir(), nil))
	defer s.Close()

	want := []Record{
		rec(RecordCreate, "alpha", 0, "rimd-trace v1 n=0\n"),
		rec(RecordBatch, "alpha", 3, "m add id=0 x=1 y=2\nm add id=1 x=3 y=4\nm set id=0 r=1\n"),
		rec(RecordBatch, "alpha", 4, "m remove id=1\n"),
		rec(RecordDrop, "alpha", 4, ""),
		rec(RecordCreate, "sess/with spaces%", 0, "rimd-trace v1 n=0\n"),
	}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, tail := scanAll(t, s)
	if tail.Truncated {
		t.Fatalf("unexpected torn tail: %+v", tail)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		if w.Payload == nil {
			w.Payload = []byte{}
		}
		g := got[i]
		if g.Payload == nil {
			g.Payload = []byte{}
		}
		if g.Kind != w.Kind || g.Session != w.Session || g.Seq != w.Seq || string(g.Payload) != string(w.Payload) {
			t.Errorf("record %d: got %+v want %+v", i, g, w)
		}
	}
}

func TestWALReopenAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testOpts(t, dir, nil))
	if err := s.Append(rec(RecordBatch, "a", 1, "one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, testOpts(t, dir, nil))
	defer s2.Close()
	if err := s2.Append(rec(RecordBatch, "a", 2, "two")); err != nil {
		t.Fatal(err)
	}
	got, _ := scanAll(t, s2)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("reopened log: %+v", got)
	}
}

func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every ~2 records forces a rotation.
	s := mustOpen(t, testOpts(t, dir, func(o *Options) { o.SegmentBytes = 128 }))
	defer s.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Append(rec(RecordBatch, "a", uint64(i+1), fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := s.wal.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments at 128B each, got %v", segs)
	}
	got, _ := scanAll(t, s)
	if len(got) != n {
		t.Fatalf("scan across segments: %d records, want %d", len(got), n)
	}

	// A rotate-then-prune barrier keeps only the new active segment.
	active, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	removed, err := s.Prune(active)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(segs) {
		t.Fatalf("pruned %d segments, want %d", removed, len(segs))
	}
	got, _ = scanAll(t, s)
	if len(got) != 0 {
		t.Fatalf("records survived prune: %+v", got)
	}
	if err := s.Append(rec(RecordBatch, "a", 99, "after-prune")); err != nil {
		t.Fatal(err)
	}
	if got, _ = scanAll(t, s); len(got) != 1 || got[0].Seq != 99 {
		t.Fatalf("post-prune append: %+v", got)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			s := mustOpen(t, testOpts(t, t.TempDir(), func(o *Options) { o.Sync = policy }))
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						if err := s.Append(rec(RecordBatch, fmt.Sprintf("s%d", c), uint64(i+1), "x")); err != nil {
							t.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := mustOpen(t, testOpts(t, s.Dir(), nil))
			defer s2.Close()
			got, tail := scanAll(t, s2)
			if len(got) != 100 || tail.Truncated {
				t.Fatalf("got %d records (tail %+v), want 100 clean", len(got), tail)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"batch", SyncBatch, false},
		{"", SyncBatch, false},
		{"none", SyncNone, false},
		{"yolo", 0, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestWALTornTailEveryOffset is the store-level half of the
// kill-at-every-offset property: build a WAL, then for every byte offset
// k of the segment file, truncate a copy to k bytes and require the scan
// to recover exactly the records whose frames fit entirely within k —
// a strict prefix, never a partial or corrupted record. Cuts inside the
// segment header (a crash during segment creation) heal to an empty
// segment.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testOpts(t, dir, nil))
	const n = 12
	ends := make([]int64, 0, n+1) // cumulative frame end offsets
	off := int64(len(segmentHeader))
	ends = append(ends, off)
	for i := 0; i < n; i++ {
		r := rec(RecordBatch, "sess", uint64(i+1), fmt.Sprintf("payload %d with some bulk", i))
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		off += int64(len(appendRecord(nil, r)))
		ends = append(ends, off)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "wal", "00000001.wal")
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != off {
		t.Fatalf("segment size %d, bookkeeping says %d", len(full), off)
	}

	for k := 0; k <= len(full); k++ {
		// Expected record count: the largest i with ends[i] <= k.
		wantRecs := 0
		for i, e := range ends {
			if e <= int64(k) {
				wantRecs = i
			}
		}
		cut := t.TempDir()
		if err := os.MkdirAll(filepath.Join(cut, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cut, "wal", "00000001.wal"), full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		sc := mustOpen(t, testOpts(t, cut, nil))
		var got []Record
		tail, err := sc.Scan(func(r Record) error { got = append(got, r); return nil })
		if err != nil {
			t.Fatalf("offset %d: scan failed: %v", k, err)
		}
		if len(got) != wantRecs {
			t.Fatalf("offset %d: recovered %d records, want %d", k, len(got), wantRecs)
		}
		for i, g := range got {
			if g.Seq != uint64(i+1) {
				t.Fatalf("offset %d: record %d has seq %d", k, i, g.Seq)
			}
		}
		atBoundary := int64(k) == ends[wantRecs]
		if !atBoundary && !tail.Truncated {
			t.Fatalf("offset %d: mid-record cut not reported as torn tail (%+v)", k, tail)
		}
		// Healing: appending after the scan must truncate the tail and
		// produce a valid log again.
		if err := sc.Append(rec(RecordBatch, "sess", 999, "healed")); err != nil {
			t.Fatalf("offset %d: append after heal: %v", k, err)
		}
		got2, tail2 := scanAll(t, sc)
		if len(got2) != wantRecs+1 || tail2.Truncated || got2[len(got2)-1].Seq != 999 {
			t.Fatalf("offset %d: after heal got %d records (tail %+v)", k, len(got2), tail2)
		}
		sc.Close()
	}
}

// TestWALCorruptMiddleFails flips a byte in a sealed (non-final) segment
// and requires the scan to fail loudly with ErrCorrupt instead of
// silently resuming at the next segment.
func TestWALCorruptMiddleFails(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testOpts(t, dir, func(o *Options) { o.SegmentBytes = 64 }))
	for i := 0; i < 10; i++ {
		if err := s.Append(rec(RecordBatch, "a", uint64(i+1), "some payload bytes here")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, "wal", "00000001.wal")
	raw, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(segmentHeader)+frameHead+2] ^= 0xFF
	if err := os.WriteFile(seg1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, testOpts(t, dir, nil))
	defer s2.Close()
	_, err = s2.Scan(nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt middle segment: err = %v, want ErrCorrupt", err)
	}
}

// TestWALCorruptTailHealsButFlags damages the final record of the last
// segment: the scan heals (prefix preserved) but flags the tail as
// corrupt rather than cleanly truncated.
func TestWALCorruptTailHealsButFlags(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testOpts(t, dir, nil))
	for i := 0; i < 3; i++ {
		if err := s.Append(rec(RecordBatch, "a", uint64(i+1), "abcdefgh")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal", "00000001.wal")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // damage the last record's payload
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, testOpts(t, dir, nil))
	defer s2.Close()
	got, tail := scanAll(t, s2)
	if len(got) != 2 || !tail.Truncated || !tail.Corrupt {
		t.Fatalf("corrupt tail: %d records, tail %+v", len(got), tail)
	}
}

// TestWALFaultFSCrashSweep drives the write path through FaultFS with a
// crash budget at every offset: the written prefix must always scan to a
// strict record prefix, mirroring the byte-truncation sweep but through
// the injected-fault write path (short final write, then a dead FS).
func TestWALFaultFSCrashSweep(t *testing.T) {
	// First, measure the fault-free byte stream.
	probeDir := t.TempDir()
	probe := mustOpen(t, testOpts(t, probeDir, nil))
	records := make([]Record, 8)
	for i := range records {
		records[i] = rec(RecordBatch, "s", uint64(i+1), fmt.Sprintf("crash sweep payload %d", i))
		if err := probe.Append(records[i]); err != nil {
			t.Fatal(err)
		}
	}
	probe.Close()
	raw, err := os.ReadFile(filepath.Join(probeDir, "wal", "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(raw))

	for budget := int64(0); budget <= total; budget += 7 { // stride keeps the sweep fast; offsets inside and at frame bounds
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{})
		s, err := Open(testOpts(t, dir, func(o *Options) { o.FS = ffs }))
		if err != nil {
			t.Fatal(err)
		}
		ffs.CrashAfterBytes(budget)
		for _, r := range records {
			if err := s.Append(r); err != nil {
				break // the power went out
			}
		}
		// Reboot: recover through a fresh, healthy FS.
		s2 := mustOpen(t, testOpts(t, dir, nil))
		var got []Record
		if _, err := s2.Scan(func(r Record) error { got = append(got, r); return nil }); err != nil {
			t.Fatalf("budget %d: scan: %v", budget, err)
		}
		for i, g := range got {
			if g.Seq != uint64(i+1) || string(g.Payload) != string(records[i].Payload) {
				t.Fatalf("budget %d: recovered record %d = %+v, not a prefix", budget, i, g)
			}
		}
		s2.Close()
	}
}

// TestWALFsyncErrorIsSticky: after an injected fsync failure the WAL
// fail-stops — every later append reports the original error instead of
// pretending the log is still durable.
func TestWALFsyncErrorIsSticky(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	s, err := Open(testOpts(t, t.TempDir(), func(o *Options) { o.FS = ffs; o.Sync = SyncAlways }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(rec(RecordBatch, "a", 1, "ok")); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncs(1, nil)
	if err := s.Append(rec(RecordBatch, "a", 2, "boom")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append with failing fsync: %v", err)
	}
	if err := s.Append(rec(RecordBatch, "a", 3, "after")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append after fsync failure not sticky: %v", err)
	}
}

// TestWALShortWriteFails: an injected short write is reported, not
// swallowed.
func TestWALShortWriteFails(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	s, err := Open(testOpts(t, t.TempDir(), func(o *Options) { o.FS = ffs }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(rec(RecordBatch, "a", 1, "full")); err != nil {
		t.Fatal(err)
	}
	ffs.ShortWrites(5)
	if err := s.Append(rec(RecordBatch, "a", 2, "this will land short")); err == nil {
		t.Fatal("short write not reported")
	}
}

func TestRecordEncodeDecode(t *testing.T) {
	want := rec(RecordBatch, "κ-session", 1<<40, "payload\x00with\xffbinary")
	frame := appendRecord(nil, want)
	got, n, err := readRecord(bytes.NewReader(frame))
	if err != nil || n != int64(len(frame)) {
		t.Fatalf("readRecord: n=%d err=%v", n, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

// v1Segment is a one-segment data directory written by the v1 (text
// payload) format: a create record, three batches, and one traced batch.
const v1Segment = "testdata/wal-v1/wal/00000001.wal"

// TestWALRefusesForeignHeader pins the version bump. A last segment
// whose header is a whole header of another version is refused with
// ErrVersion naming the segment; one cut short but not a prefix of the
// current header is ErrCorrupt. Scan and the first Append both refuse,
// and the file's bytes are never touched — before the bump, any bad
// header on the last segment read as a crash during segment creation
// and was truncated to nothing. (A strict prefix of the current header
// still heals: TestWALTornTailEveryOffset cuts inside the header too.)
func TestWALRefusesForeignHeader(t *testing.T) {
	v1, err := os.ReadFile(v1Segment)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"v1 segment", v1, ErrVersion},
		{"cut v1 header", v1[:len(segmentHeader)-1], ErrCorrupt},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal", "00000001.wal")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, testOpts(t, dir, nil))
		_, err = s.Scan(func(Record) error { return nil })
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "00000001") {
			t.Fatalf("%s: Scan got %v, want %v naming the segment", tc.name, err, tc.want)
		}
		if err := s.Append(rec(RecordDrop, "v1", 7, "")); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Append got %v, want %v", tc.name, err, tc.want)
		}
		s.Close()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.data) {
			t.Fatalf("%s: segment changed: %d bytes (was %d), %v", tc.name, len(got), len(tc.data), err)
		}
	}
}

// TestOpenReadOnly: a read-only handle scans an existing log, but every
// write fails and leaves the segment as it was; a directory without a
// wal/ is refused and stays empty.
func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testOpts(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Kind: RecordCreate, Session: "a", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal", "00000001.wal")
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("OpenReadOnly: %v", err)
	}
	var n int
	if _, err := ro.Scan(func(Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("Scan: %d records, %v; want 1", n, err)
	}
	if err := ro.Append(Record{Kind: RecordDrop, Session: "a"}); !errors.Is(err, errReadOnly) {
		t.Fatalf("Append on a read-only store: %v, want errReadOnly", err)
	}
	if err := ro.WriteCheckpoint("a", 1, []byte("state")); !errors.Is(err, errReadOnly) {
		t.Fatalf("WriteCheckpoint on a read-only store: %v, want errReadOnly", err)
	}
	ro.Close()
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("read-only handle changed the segment: %d bytes (was %d), %v", len(got), len(orig), err)
	}

	empty := t.TempDir()
	if _, err := OpenReadOnly(empty); err == nil {
		t.Fatal("OpenReadOnly accepted a directory without wal/")
	}
	if ents, _ := os.ReadDir(empty); len(ents) != 0 {
		t.Fatalf("refused directory gained %d entries", len(ents))
	}
}
