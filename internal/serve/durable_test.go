package serve_test

// Durability tests for the serve/store integration: write-ahead logging,
// checkpoint barriers, boot-time recovery, and the crash matrix that
// truncates the WAL at every byte offset and demands a valid mutation-log
// prefix back.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// openStore opens a store over dir with an isolated metric registry.
func openStore(t *testing.T, dir string, policy store.SyncPolicy) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Sync: policy, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("store.Open(%q): %v", dir, err)
	}
	return st
}

// snapKey flattens a snapshot into a comparable string: the full node set
// (IDs, coordinates, radii, interference) plus the aggregate values. Two
// sessions in the same behavioral state produce the same key.
func snapKey(s *serve.Snapshot) string {
	nodes := append([]serve.NodeState(nil), s.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d max=%d", s.N, s.Max)
	for _, nd := range nodes {
		fmt.Fprintf(&sb, " (%d %v %v %v %d)", nd.ID, nd.X, nd.Y, nd.R, nd.I)
	}
	return sb.String()
}

// TestDrainRejectsQueued locks in the shutdown-drain fix: mutations still
// queued when the drain deadline expires are explicitly rejected and
// counted, not silently dropped.
func TestDrainRejectsQueued(t *testing.T) {
	m := serve.NewManager(serve.Config{
		Shards:   1,
		BatchCap: 1,
		BeforeBatch: func(string) {
			time.Sleep(20 * time.Millisecond)
		},
	})
	s := mustCreate(t, m, "slow", line(3))
	const queued = 64
	for i := 0; i < queued; i++ {
		mustApply(t, s, serve.SetRadius(0, float64(i+1)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	ds, err := m.CloseStats(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseStats err=%v, want deadline exceeded", err)
	}
	if ds.DroppedMutations <= 0 || ds.DroppedSessions != 1 {
		t.Fatalf("DrainStats=%+v, want >0 dropped mutations from 1 session", ds)
	}
	if _, rejected := s.Counts(); rejected < int64(ds.DroppedMutations) {
		t.Fatalf("rejected count %d < dropped %d: drops not accounted", rejected, ds.DroppedMutations)
	}
	var sb strings.Builder
	m.WriteMetrics(&sb)
	want := fmt.Sprintf("rimd_drain_dropped_total %d", ds.DroppedMutations)
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("metrics exposition missing %q", want)
	}
	if err := s.Flush(nil); err != nil {
		t.Fatalf("Flush after drain: %v", err)
	}
}

// TestRecoverFromLogOnly crashes (no checkpoint, no clean shutdown) and
// rebuilds everything from create records plus batch replay.
func TestRecoverFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})

	a := mustCreate(t, m, "a", line(4))
	mustApply(t, a, serve.Add(0.7, 0.3), serve.SetRadius(1, 2))
	flush(t, a)
	b := mustCreate(t, m, "b", line(2))
	mustApply(t, b, serve.Move(0, 0.9, 0.1))
	flush(t, b)
	if err := m.DropSession("b"); err != nil {
		t.Fatalf("DropSession: %v", err)
	}
	wantA := snapKey(a.Snapshot())
	wantSeq := a.Snapshot().Seq
	// Simulate a crash: seal the WAL but never checkpoint or drain.
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st2 := openStore(t, dir, store.SyncNone)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	defer m2.Close(context.Background())
	rs, err := m2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Sessions != 1 || rs.FromLog != 1 || rs.FromCheckpoint != 0 {
		t.Fatalf("RecoveryStats=%+v, want 1 session from log", rs)
	}
	if rs.DroppedSessions != 1 {
		t.Fatalf("RecoveryStats=%+v, want the dropped session noticed", rs)
	}
	if rs.Verified != 1 {
		t.Fatalf("RecoveryStats=%+v, want oracle verification", rs)
	}
	if _, ok := m2.Session("b"); ok {
		t.Fatal("dropped session resurrected")
	}
	a2, ok := m2.Session("a")
	if !ok {
		t.Fatal("session a not recovered")
	}
	if got := snapKey(a2.Snapshot()); got != wantA {
		t.Fatalf("recovered state\n got %s\nwant %s", got, wantA)
	}
	if a2.Snapshot().Seq != wantSeq {
		t.Fatalf("recovered seq %d, want %d", a2.Snapshot().Seq, wantSeq)
	}
	// The recovered session keeps serving — and keeps logging.
	mustApply(t, a2, serve.Add(1.5, 1.5))
	flush(t, a2)
}

// TestRecoverFromCheckpoint runs the barrier mid-stream, keeps mutating,
// crashes, and recovers from checkpoint + WAL tail replay.
func TestRecoverFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncBatch)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})

	a := mustCreate(t, m, "a", line(5))
	mustApply(t, a, serve.Add(0.4, 0.6), serve.SetRadius(2, 1.5))
	flush(t, a)
	if _, err := m.CheckpointAll(context.Background()); err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	mustApply(t, a, serve.Move(1, 0.2, 0.8))
	flush(t, a)
	mustApply(t, a, serve.Remove(3))
	flush(t, a)
	want := snapKey(a.Snapshot())
	wantSeq := a.Snapshot().Seq
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st2 := openStore(t, dir, store.SyncBatch)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	defer m2.Close(context.Background())
	rs, err := m2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.FromCheckpoint != 1 || rs.FromLog != 0 {
		t.Fatalf("RecoveryStats=%+v, want recovery from checkpoint", rs)
	}
	if rs.ReplayedBatches != 2 || rs.ReplayedMutations != 2 {
		t.Fatalf("RecoveryStats=%+v, want exactly the 2 post-barrier batches replayed", rs)
	}
	a2, _ := m2.Session("a")
	if a2 == nil {
		t.Fatal("session a not recovered")
	}
	if got := snapKey(a2.Snapshot()); got != want || a2.Snapshot().Seq != wantSeq {
		t.Fatalf("recovered state\n got seq=%d %s\nwant seq=%d %s", a2.Snapshot().Seq, got, wantSeq, want)
	}
}

// TestCleanShutdownRecoversFromCheckpointsAlone verifies CloseStats's
// final checkpoints make WAL replay unnecessary.
func TestCleanShutdownRecoversFromCheckpointsAlone(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncBatch)
	m := serve.NewManager(serve.Config{Shards: 2, Store: st})
	for _, id := range []string{"x", "y"} {
		s := mustCreate(t, m, id, line(3))
		mustApply(t, s, serve.Add(0.5, 0.5), serve.SetRadius(0, 2))
		flush(t, s)
	}
	ds, err := m.CloseStats(context.Background())
	if err != nil {
		t.Fatalf("CloseStats: %v", err)
	}
	if ds.FinalCheckpoints != 2 || ds.CheckpointErrors != 0 || ds.DroppedMutations != 0 {
		t.Fatalf("DrainStats=%+v, want 2 clean final checkpoints", ds)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st2 := openStore(t, dir, store.SyncBatch)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 2, Store: st2})
	defer m2.Close(context.Background())
	rs, err := m2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Sessions != 2 || rs.FromCheckpoint != 2 || rs.ReplayedBatches != 0 {
		t.Fatalf("RecoveryStats=%+v, want 2 sessions from checkpoints with no replay", rs)
	}
}

// TestCheckpointBarrierPrunes forces several WAL rotations and verifies
// the barrier leaves only what recovery needs.
func TestCheckpointBarrierPrunes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{
		Dir: dir, Sync: store.SyncNone, SegmentBytes: 256, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	s := mustCreate(t, m, "p", line(4))
	for i := 0; i < 30; i++ {
		mustApply(t, s, serve.SetRadius(int64(i%4), float64(i+1)))
		flush(t, s)
	}
	pruned, err := m.CheckpointAll(context.Background())
	if err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	if pruned == 0 {
		t.Fatal("barrier pruned nothing despite 256-byte segments")
	}
	mustApply(t, s, serve.Add(2, 2))
	flush(t, s)
	want := snapKey(s.Snapshot())
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st2 := openStore(t, dir, store.SyncNone)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	defer m2.Close(context.Background())
	rs, err := m2.Recover(true)
	if err != nil {
		t.Fatalf("Recover after prune: %v", err)
	}
	if rs.FromCheckpoint != 1 {
		t.Fatalf("RecoveryStats=%+v, want checkpoint recovery", rs)
	}
	s2, _ := m2.Session("p")
	if got := snapKey(s2.Snapshot()); got != want {
		t.Fatalf("post-prune recovery\n got %s\nwant %s", got, want)
	}
}

// TestRecoverCheckpointOnlySession pins the idle-after-barrier case: the
// barrier prunes every WAL record of a quiet session, leaving it visible
// only as a checkpoint — which recovery must still restore.
func TestRecoverCheckpointOnlySession(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	s := mustCreate(t, m, "idle", line(4))
	mustApply(t, s, serve.Add(0.6, 0.6), serve.SetRadius(0, 2))
	flush(t, s)
	if _, err := m.CheckpointAll(context.Background()); err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	want := snapKey(s.Snapshot())
	if err := st.Close(); err != nil { // crash with zero post-barrier records
		t.Fatalf("store.Close: %v", err)
	}

	st2 := openStore(t, dir, store.SyncNone)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	defer m2.Close(context.Background())
	rs, err := m2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Sessions != 1 || rs.FromCheckpoint != 1 || rs.ReplayedBatches != 0 {
		t.Fatalf("RecoveryStats=%+v, want the checkpoint-only session back", rs)
	}
	s2, _ := m2.Session("idle")
	if s2 == nil {
		t.Fatal("checkpoint-only session not recovered")
	}
	if got := snapKey(s2.Snapshot()); got != want {
		t.Fatalf("recovered state\n got %s\nwant %s", got, want)
	}
}

// TestWALFailureKeepsServing locks in the availability-over-durability
// policy: a failing WAL disables logging, counts the failure, and the
// session keeps applying mutations — while /healthz, ok before the
// failure, turns 503 and names it.
func TestWALFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	ffs := store.NewFaultFS(store.OSFS{})
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncAlways, FS: ffs, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	defer m.Close(context.Background())
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()
	healthz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	s := mustCreate(t, m, "w", line(3))
	mustApply(t, s, serve.Add(0.5, 0.5))
	flush(t, s)
	if code, body := healthz(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthy /healthz: %d %q, want 200 ok", code, body)
	}

	ffs.FailSyncs(1, errors.New("disk on fire"))
	mustApply(t, s, serve.SetRadius(0, 3))
	flush(t, s)
	mustApply(t, s, serve.SetRadius(1, 3))
	flush(t, s)

	snap := s.Snapshot()
	if snap.Seq != 3 {
		t.Fatalf("seq=%d, want all 3 mutations applied despite WAL failure", snap.Seq)
	}
	var sb strings.Builder
	m.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "rimd_wal_failures_total 1") {
		t.Fatalf("exposition missing rimd_wal_failures_total 1:\n%s", sb.String())
	}
	if code, body := healthz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "disk on fire") {
		t.Fatalf("/healthz after WAL failure: %d %q, want 503 naming the error", code, body)
	}
}

// TestRecoverReplayThenWriteSurvivesRestart: a log written by a
// non-coalescing manager (a promoted follower, say) holds a batch record
// that sets one node's radius twice. Recovery must replay the record as
// written, reaching seq 3 rather than the 2 a re-coalesced batch would
// reach; otherwise the next acknowledged write is logged under a seq
// the log already holds, and the restart after it skips that write as a
// redelivered prefix.
func TestRecoverReplayThenWriteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st, NoCoalesce: true})
	s := mustCreate(t, m, "a", line(4))
	mustApply(t, s, serve.SetRadius(1, 1), serve.SetRadius(1, 2), serve.Move(0, 0.1, 0.2))
	flush(t, s)
	if seq := s.Snapshot().Seq; seq != 3 {
		t.Fatalf("live seq %d, want 3", seq)
	}
	// Crash: seal the WAL but never checkpoint or drain.
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st2 := openStore(t, dir, store.SyncNone)
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	if _, err := m2.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s2, ok := m2.Session("a")
	if !ok {
		t.Fatal("session not recovered")
	}
	if seq := s2.Snapshot().Seq; seq != 3 {
		t.Fatalf("recovered seq %d, want the recorded 3", seq)
	}
	mustApply(t, s2, serve.SetRadius(2, 1.5))
	flush(t, s2)
	want := snapKey(s2.Snapshot())
	if err := st2.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st3 := openStore(t, dir, store.SyncNone)
	defer st3.Close()
	m3 := serve.NewManager(serve.Config{Shards: 1, Store: st3})
	defer m3.Close(context.Background())
	if _, err := m3.Recover(true); err != nil {
		t.Fatalf("Recover 2: %v", err)
	}
	s3, ok := m3.Session("a")
	if !ok {
		t.Fatal("session not recovered after the second crash")
	}
	if seq := s3.Snapshot().Seq; seq != 4 {
		t.Fatalf("second recovery seq %d, want 4", seq)
	}
	if n, _ := s3.Snapshot().Node(2); n.R != 1.5 {
		t.Fatalf("node 2 radius %v after the second recovery, want the acknowledged 1.5", n.R)
	}
	if got := snapKey(s3.Snapshot()); got != want {
		t.Fatalf("second recovery state\n got %s\nwant %s", got, want)
	}
}

// crashScript is the workload the crash matrix runs: two sessions, one of
// them dropped mid-stream, every mutation flushed so each becomes its own
// WAL batch record (seq == batch boundary).
type crashScript struct {
	withBarrier bool
	policy      store.SyncPolicy
}

// expected maps session -> seq -> snapshot key, recorded live.
type expectedStates map[string]map[uint64]string

// runCrashScript executes the workload in dir and returns the per-seq
// expected states plus the seq at which session b was dropped.
func runCrashScript(t *testing.T, dir string, sc crashScript) expectedStates {
	t.Helper()
	st := openStore(t, dir, sc.policy)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	exp := expectedStates{"a": {}, "b": {}}
	record := func(s *serve.Session) {
		snap := s.Snapshot()
		exp[s.ID()][snap.Seq] = snapKey(snap)
	}
	step := func(s *serve.Session, mu serve.Mutation) {
		mustApply(t, s, mu)
		flush(t, s)
		record(s)
	}

	a := mustCreate(t, m, "a", line(3))
	record(a)
	step(a, serve.Add(0.8, 0.4))
	step(a, serve.SetRadius(1, 2))
	b := mustCreate(t, m, "b", line(2))
	record(b)
	step(b, serve.Move(0, 0.3, 0.3))
	if sc.withBarrier {
		if _, err := m.CheckpointAll(context.Background()); err != nil {
			t.Fatalf("CheckpointAll: %v", err)
		}
	}
	step(a, serve.Move(2, 0.1, 0.9))
	step(b, serve.Add(1.1, 0.2))
	if err := m.DropSession("b"); err != nil {
		t.Fatalf("DropSession: %v", err)
	}
	step(a, serve.Remove(0))
	step(a, serve.AnnealStep(40, 7))
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	return exp
}

// copyCrashDir clones the golden data dir into dst, truncating the last
// WAL segment to cut bytes — the moment of death.
func copyCrashDir(t *testing.T, src, dst string, cut int64) (lastSegSize int64) {
	t.Helper()
	for _, sub := range []string{"wal", "ckpt"} {
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range []string{"wal", "ckpt"} {
		ents, err := os.ReadDir(filepath.Join(src, sub))
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for i, name := range names {
			data, err := os.ReadFile(filepath.Join(src, sub, name))
			if err != nil {
				t.Fatal(err)
			}
			if sub == "wal" && i == len(names)-1 {
				lastSegSize = int64(len(data))
				if cut < int64(len(data)) {
					data = data[:cut]
				}
			}
			if err := os.WriteFile(filepath.Join(dst, sub, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return lastSegSize
}

// TestCrashRecoveryEveryOffset is the kill-at-every-offset property test:
// for each fsync policy and with/without a mid-stream checkpoint barrier,
// truncate the active WAL segment at every byte offset, recover with
// oracle verification on, and demand that every surviving session sits at
// an exact batch boundary of the acknowledged mutation log with exactly
// the state the live run had published at that seq.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow; skipped in -short")
	}
	for _, sc := range []crashScript{
		{withBarrier: false, policy: store.SyncNone},
		{withBarrier: false, policy: store.SyncAlways},
		{withBarrier: true, policy: store.SyncNone},
		{withBarrier: true, policy: store.SyncAlways},
	} {
		sc := sc
		name := fmt.Sprintf("barrier=%v/policy=%v", sc.withBarrier, sc.policy)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden := t.TempDir()
			exp := runCrashScript(t, golden, sc)

			// Probe once to learn the active segment's size.
			size := copyCrashDir(t, golden, t.TempDir(), 1<<40)
			if size == 0 {
				t.Fatal("empty active segment: workload logged nothing")
			}
			scratch := t.TempDir()
			for cut := int64(0); cut <= size; cut++ {
				dst := filepath.Join(scratch, fmt.Sprintf("c%06d", cut))
				copyCrashDir(t, golden, dst, cut)
				verifyCrashRecovery(t, dst, sc, exp, cut)
				if err := os.RemoveAll(dst); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func verifyCrashRecovery(t *testing.T, dir string, sc crashScript, exp expectedStates, cut int64) {
	t.Helper()
	st := openStore(t, dir, sc.policy)
	defer st.Close()
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	defer m.Close(context.Background())
	if _, err := m.Recover(true); err != nil {
		t.Fatalf("cut=%d: Recover: %v", cut, err)
	}
	for _, id := range m.SessionIDs() {
		s, _ := m.Session(id)
		snap := s.Snapshot()
		want, ok := exp[id][snap.Seq]
		if !ok {
			t.Fatalf("cut=%d: session %q recovered at seq=%d, not a batch boundary of the live run", cut, id, snap.Seq)
		}
		if got := snapKey(snap); got != want {
			t.Fatalf("cut=%d: session %q at seq=%d\n got %s\nwant %s", cut, id, snap.Seq, got, want)
		}
	}
}

// TestCrashRecoveryIntactLog pins the no-truncation endpoint of the
// matrix: the full log recovers session a at its final state and session
// b not at all.
func TestCrashRecoveryIntactLog(t *testing.T) {
	for _, sc := range []crashScript{
		{withBarrier: false, policy: store.SyncBatch},
		{withBarrier: true, policy: store.SyncBatch},
	} {
		golden := t.TempDir()
		exp := runCrashScript(t, golden, sc)
		dst := t.TempDir()
		copyCrashDir(t, golden, dst, 1<<40)
		st := openStore(t, dst, sc.policy)
		m := serve.NewManager(serve.Config{Shards: 1, Store: st})
		rs, err := m.Recover(true)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if _, ok := m.Session("b"); ok {
			t.Fatal("intact log resurrected dropped session b")
		}
		a, ok := m.Session("a")
		if !ok {
			t.Fatal("session a missing")
		}
		var maxSeq uint64
		for seq := range exp["a"] {
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if snap := a.Snapshot(); snap.Seq != maxSeq || snapKey(snap) != exp["a"][maxSeq] {
			t.Fatalf("intact recovery at seq=%d, want final seq=%d with matching state", snap.Seq, maxSeq)
		}
		if rs.DroppedSessions != 1 {
			t.Fatalf("RecoveryStats=%+v, want the drop noticed", rs)
		}
		m.Close(context.Background())
		st.Close()
	}
}

// walRecords reads every record of the WAL under dir.
func walRecords(t *testing.T, dir string) []store.Record {
	t.Helper()
	st := openStore(t, dir, store.SyncNone)
	defer st.Close()
	var recs []store.Record
	if _, err := st.Scan(func(r store.Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs
}

// TestWALKeepsAnnealSeedExact: an anneal seed above 2^53 must reach a
// WAL-recovered session and a follower unchanged, so both hold the
// leader's radii exactly. A float64 round trip of the seed (1<<62+1 →
// 1<<62) would anneal along a different random stream.
func TestWALKeepsAnnealSeedExact(t *testing.T) {
	const seed = int64(1<<62 + 1)
	// A double exponential chain: unlike a uniform instance, where the
	// MST start is already the best assignment the walk finds, its
	// anneal result depends on the random stream.
	pts := gen.DoubleExpChain(4)
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	s := mustCreate(t, m, "an", pts)
	mustApply(t, s, serve.AnnealStep(500, seed))
	flush(t, s)
	want := snapKey(s.Snapshot())
	// Simulate a crash: seal the WAL but never checkpoint or drain.
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	// The instance must tell the two seeds apart, or the test proves
	// nothing.
	ctl := serve.NewManager(serve.Config{Shards: 1})
	defer ctl.Close(context.Background())
	c := mustCreate(t, ctl, "an", pts)
	mustApply(t, c, serve.AnnealStep(500, 1<<62))
	flush(t, c)
	if snapKey(c.Snapshot()) == want {
		t.Fatal("seeds 1<<62 and 1<<62+1 anneal to the same radii; pick another instance")
	}

	recs := walRecords(t, dir)
	fol := serve.NewManager(serve.Config{Shards: 1, NoCoalesce: true})
	defer fol.Close(context.Background())
	for _, rec := range recs {
		if err := fol.ApplyRecord(rec); err != nil {
			t.Fatalf("follower ApplyRecord: %v", err)
		}
	}
	fs, ok := fol.Session("an")
	if !ok {
		t.Fatal("follower has no session")
	}
	flush(t, fs)
	if got := snapKey(fs.Snapshot()); got != want {
		t.Fatalf("follower state\n got %s\nwant %s", got, want)
	}

	st2 := openStore(t, dir, store.SyncNone)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	defer m2.Close(context.Background())
	if _, err := m2.Recover(true); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	rs, _ := m2.Session("an")
	if got := snapKey(rs.Snapshot()); got != want {
		t.Fatalf("recovered state\n got %s\nwant %s", got, want)
	}
}

// TestRecoverOversizedBatchFailsFast: a batch record holding more
// mutations than the session queue can ever take (written under a
// larger QueueCap) must fail Recover with BatchTooBigError naming both
// sizes, instead of spinning on flush-and-retry. (The follower feed
// loop's side is TestFollowerSurfacesOversizedBatch in internal/repl.)
func TestRecoverOversizedBatchFailsFast(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, QueueCap: 64, Store: st})
	s := mustCreate(t, m, "big", line(16))
	batch := make([]serve.Mutation, 16)
	for i := range batch {
		batch[i] = serve.SetRadius(int64(i), 0.75)
	}
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	flush(t, s)
	st.Close()

	st2 := openStore(t, dir, store.SyncNone)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 1, QueueCap: 8, Store: st2})
	defer m2.Close(context.Background())
	done := make(chan error, 1)
	go func() { _, err := m2.Recover(false); done <- err }()
	select {
	case err := <-done:
		var big *serve.BatchTooBigError
		if !errors.As(err, &big) || big.Ops != 16 || big.QueueCap != 8 {
			t.Fatalf("Recover: got %v, want BatchTooBigError{Ops: 16, QueueCap: 8}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recover still running after 10s on an oversized record")
	}
}

// TestRecoverRefusesV1Segment: a data directory written by the v1 (text
// payload) WAL format is refused with store.ErrVersion, and recovery
// leaves its bytes untouched.
func TestRecoverRefusesV1Segment(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("..", "store", "testdata", "wal-v1", "wal", "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, "wal", "00000001.wal")
	if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir, store.SyncBatch)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	if _, err := m.Recover(true); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("Recover: got %v, want store.ErrVersion", err)
	}
	if ids := m.SessionIDs(); len(ids) != 0 {
		t.Fatalf("recovered sessions %v from a refused log", ids)
	}
	m.Close(context.Background())
	st.Close()
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("v1 segment changed: %d bytes (was %d), %v", len(got), len(orig), err)
	}
}
