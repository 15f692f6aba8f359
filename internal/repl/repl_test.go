package repl_test

// The cluster-grade fault-injection harness: basic leader→follower
// replication with byte-identical checkpoints, the cut-at-every-byte
// matrix over the replication stream (both sides of the wire), and the
// 3-node kill-the-leader failover matrix that promotes the ring
// successor and compares it byte-for-byte against a from-scratch replay
// of the leader's WAL. Followers run with the oracle DiffEvaluator as
// their engine, so every replicated mutation is shadow-checked as it
// applies.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string, policy store.SyncPolicy) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Sync: policy, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("store.Open(%q): %v", dir, err)
	}
	return st
}

func pts(n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Pt(float64(i)*0.7, float64(i%3)*0.4)
	}
	return out
}

// snapKey flattens a snapshot into a comparable string (the durable_test
// idiom): full node set plus aggregates, so equal keys mean equal
// behavioral state.
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

// stateKey flattens a whole manager: every session's id, seq, and
// snapshot key, sorted.
func stateKey(m *serve.Manager) string {
	ids := m.SessionIDs()
	sort.Strings(ids)
	var sb strings.Builder
	for _, id := range ids {
		s, ok := m.Session(id)
		if !ok {
			continue
		}
		snap := s.Snapshot()
		fmt.Fprintf(&sb, "%s@%d{%s}\n", id, snap.Seq, snapKey(snap))
	}
	return sb.String()
}

// node bundles one rimd's store and manager. Followers run the default
// configuration and shadow-check every mutation through the oracle's
// differential evaluator.
type node struct {
	id  string
	dir string
	st  *store.Store
	m   *serve.Manager
}

func newNode(t *testing.T, id string, policy store.SyncPolicy, follower bool) *node {
	t.Helper()
	dir := t.TempDir()
	st := openStore(t, dir, policy)
	cfg := serve.Config{Shards: 1, Store: st}
	if follower {
		cfg.Engine = func(p []geom.Point) dynamic.Engine { return oracle.NewDiffEvaluator(p) }
	}
	return &node{id: id, dir: dir, st: st, m: serve.NewManager(cfg)}
}

func (n *node) close() {
	n.m.Close(context.Background())
	n.st.Close()
}

func mustCreate(t *testing.T, m *serve.Manager, id string, p []geom.Point) *serve.Session {
	t.Helper()
	s, err := m.CreateSession(id, p)
	if err != nil {
		t.Fatalf("CreateSession(%q): %v", id, err)
	}
	return s
}

func step(t *testing.T, s *serve.Session, mu serve.Mutation) {
	t.Helper()
	if _, err := s.Apply(mu); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// drain flushes every session so all enqueued (replicated) batches have
// applied before state comparison.
func drain(t *testing.T, m *serve.Manager) {
	t.Helper()
	for _, id := range m.SessionIDs() {
		if s, ok := m.Session(id); ok {
			if err := s.Flush(context.Background()); err != nil {
				t.Fatalf("drain %q: %v", id, err)
			}
		}
	}
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ckptMap checkpoints every session and returns session → "seq payload"
// for byte-identity comparison across nodes.
func ckptMap(t *testing.T, n *node) map[string]string {
	t.Helper()
	if _, err := n.m.CheckpointAll(context.Background()); err != nil {
		t.Fatalf("CheckpointAll(%s): %v", n.id, err)
	}
	cks, _, err := n.st.LatestCheckpoints()
	if err != nil {
		t.Fatalf("LatestCheckpoints(%s): %v", n.id, err)
	}
	out := make(map[string]string, len(cks))
	for id, ck := range cks {
		out[id] = fmt.Sprintf("seq=%d %s", ck.Seq, ck.Payload)
	}
	return out
}

// workloadPhase1 / workloadPhase2 are the crash-matrix script adapted to
// the wire: two sessions, every mutation its own flushed batch, one
// session dropped mid-stream in phase 2.
func workloadPhase1(t *testing.T, m *serve.Manager) {
	t.Helper()
	a := mustCreate(t, m, "alpha", pts(4))
	step(t, a, serve.Add(0.8, 0.4))
	step(t, a, serve.SetRadius(1, 2))
	b := mustCreate(t, m, "beta", pts(3))
	step(t, b, serve.Move(0, 0.3, 0.3))
}

func workloadPhase2(t *testing.T, m *serve.Manager) {
	t.Helper()
	a, _ := m.Session("alpha")
	b, _ := m.Session("beta")
	step(t, a, serve.Move(2, 0.1, 0.9))
	step(t, b, serve.Add(1.1, 0.2))
	if err := m.DropSession("beta"); err != nil {
		t.Fatalf("DropSession: %v", err)
	}
	step(t, a, serve.Remove(0))
	step(t, a, serve.AnnealStep(40, 7))
}

// startLeader wires a feed over the node's store on a loopback listener.
func startLeader(t *testing.T, n *node, epoch uint64, wrap func(net.Conn) net.Conn) (*repl.Leader, net.Listener) {
	t.Helper()
	ldr := repl.NewLeader(repl.LeaderConfig{
		Store: n.st, NodeID: n.id, Epoch: epoch,
		Poll: 5 * time.Millisecond, WrapConn: wrap, Registry: obs.NewRegistry(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go ldr.Serve(ln)
	return ldr, ln
}

func newFollower(t *testing.T, n *node, addr string, dial func(string) (net.Conn, error)) *repl.Follower {
	t.Helper()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Manager: n.m, NodeID: n.id, LeaderAddr: addr,
		CursorPath: filepath.Join(n.dir, "cursor"),
		Dial:       dial, Backoff: 2 * time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("NewFollower(%s): %v", n.id, err)
	}
	return fol
}

func caughtUp(fol *repl.Follower, st *store.Store, tail store.Cursor) func() bool {
	return func() bool { return fol.Cursor() == tail }
}

func TestReplicateBasic(t *testing.T) {
	for _, policy := range []store.SyncPolicy{store.SyncNone, store.SyncAlways} {
		policy := policy
		t.Run(fmt.Sprintf("policy=%v", policy), func(t *testing.T) {
			t.Parallel()
			ldrN := newNode(t, "n1", policy, false)
			defer ldrN.close()
			ldr, ln := startLeader(t, ldrN, 1, nil)
			defer ldr.Close()

			folN := newNode(t, "n2", policy, true)
			fol := newFollower(t, folN, ln.Addr().String(), nil)
			go fol.Run()
			defer folN.close()
			defer fol.Stop()

			// The follower is read-only from the moment it exists.
			if _, err := folN.m.CreateSession("x", pts(3)); !errors.Is(err, serve.ErrReadOnly) {
				t.Fatalf("follower CreateSession err=%v, want ErrReadOnly", err)
			}

			workloadPhase1(t, ldrN.m)
			workloadPhase2(t, ldrN.m)
			tail := ldrN.st.ReplTail()
			waitUntil(t, 10*time.Second, "follower catch-up", caughtUp(fol, ldrN.st, tail))
			drain(t, folN.m)

			if got, want := stateKey(folN.m), stateKey(ldrN.m); got != want {
				t.Fatalf("follower state diverged\n got:\n%s\nwant:\n%s", got, want)
			}
			if st := fol.Stats(); st.Gaps != 0 || st.Resyncs != 0 {
				t.Fatalf("clean run recorded gaps/resyncs: %+v", st)
			}
			waitUntil(t, 5*time.Second, "leader ack horizon", func() bool {
				return ldr.Acked("n2") == tail
			})

			// Checkpoints on both sides must be byte-identical.
			if l, f := ckptMap(t, ldrN), ckptMap(t, folN); !reflect.DeepEqual(l, f) {
				t.Fatalf("checkpoint payloads differ\nleader:   %v\nfollower: %v", l, f)
			}

			// Restart the follower process: a new consumer over the same
			// manager resumes from the persisted cursor file, and only the
			// new records flow.
			fol.Stop()
			a, _ := ldrN.m.Session("alpha")
			step(t, a, serve.Add(2.0, 0.1))
			step(t, a, serve.SetRadius(0, 3))
			tail2 := ldrN.st.ReplTail()

			fol2 := newFollower(t, folN, ln.Addr().String(), nil)
			if cur := fol2.Cursor(); cur.IsZero() {
				t.Fatal("restarted follower lost its persisted cursor")
			}
			go fol2.Run()
			defer fol2.Stop()
			waitUntil(t, 10*time.Second, "restarted follower catch-up", caughtUp(fol2, ldrN.st, tail2))
			drain(t, folN.m)
			if got, want := stateKey(folN.m), stateKey(ldrN.m); got != want {
				t.Fatalf("restarted follower diverged\n got:\n%s\nwant:\n%s", got, want)
			}
			if st := fol2.Stats(); st.Gaps != 0 {
				t.Fatalf("restart recorded gaps: %+v", st)
			}
		})
	}
}

// countingConn counts bytes read — the harness's ruler for "how long is
// the whole replication conversation".
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// cutDialer returns a Dial whose FIRST connection dies after `cut`
// bytes read; reconnects are clean. cut < 0 disables the fault.
func cutDialer(cut int64) func(string) (net.Conn, error) {
	var dials atomic.Int32
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if cut >= 0 && dials.Add(1) == 1 {
			fc := repl.NewFaultConn(c)
			fc.CutReadAfter(cut)
			return fc, nil
		}
		return c, nil
	}
}

// TestReplCutEveryOffset severs the replication stream at every byte
// offset of the conversation — follower side (read path torn) and
// leader side (write path torn) — and demands the follower heal by
// resubscribing from its cursor: final state exact, zero gaps.
func TestReplCutEveryOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("cut matrix is slow; skipped in -short")
	}
	ldrN := newNode(t, "n1", store.SyncNone, false)
	defer ldrN.close()
	// Small workload on purpose: one session, three batches — the whole
	// conversation stays a few hundred bytes so every offset is testable.
	a := mustCreate(t, ldrN.m, "alpha", pts(3))
	step(t, a, serve.Add(0.8, 0.4))
	step(t, a, serve.SetRadius(1, 2))
	step(t, a, serve.Move(0, 0.2, 0.6))
	tail := ldrN.st.ReplTail()
	want := stateKey(ldrN.m)

	// Measure the clean conversation's length in leader→follower bytes.
	ldr, ln := startLeader(t, ldrN, 1, nil)
	var total atomic.Int64
	{
		folN := newNode(t, "probe", store.SyncNone, true)
		fol := newFollower(t, folN, ln.Addr().String(), func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &total}, nil
		})
		go fol.Run()
		waitUntil(t, 10*time.Second, "probe catch-up", caughtUp(fol, ldrN.st, tail))
		fol.Stop()
		folN.close()
	}
	size := total.Load()
	if size < 100 {
		t.Fatalf("conversation only %d bytes: probe did not stream", size)
	}
	stride := int64(1)
	if size > 512 {
		stride = size/512 + 1
	}
	t.Logf("conversation is %d bytes; cutting every %d", size, stride)

	runCut := func(t *testing.T, cut int64, dial func(string) (net.Conn, error), addr string) {
		t.Helper()
		folN := newNode(t, fmt.Sprintf("f%06d", cut), store.SyncNone, true)
		defer folN.close()
		fol := newFollower(t, folN, addr, dial)
		go fol.Run()
		defer fol.Stop()
		waitUntil(t, 10*time.Second, fmt.Sprintf("catch-up after cut at %d", cut), caughtUp(fol, ldrN.st, tail))
		drain(t, folN.m)
		if got := stateKey(folN.m); got != want {
			t.Fatalf("cut at %d: state diverged\n got:\n%s\nwant:\n%s", cut, got, want)
		}
		if st := fol.Stats(); st.Gaps != 0 {
			t.Fatalf("cut at %d: gaps=%d, want 0 (stream skipped records)", cut, st.Gaps)
		}
	}

	t.Run("follower-side", func(t *testing.T) {
		for cut := int64(0); cut <= size; cut += stride {
			runCut(t, cut, cutDialer(cut), ln.Addr().String())
		}
	})

	ldr.Close()
	ln.Close()

	t.Run("leader-side", func(t *testing.T) {
		for cut := int64(0); cut <= size; cut += stride {
			var accepts atomic.Int32
			wrap := func(c net.Conn) net.Conn {
				if accepts.Add(1) == 1 {
					fc := repl.NewFaultConn(c)
					fc.CutWriteAfter(cut)
					return fc
				}
				return c
			}
			cldr, cln := startLeader(t, ldrN, 1, wrap)
			runCut(t, cut, nil, cln.Addr().String())
			cldr.Close()
			cln.Close()
		}
	})
}

// copyDir clones a node's data directory (wal + ckpt) byte-for-byte —
// the "disk the dead leader left behind".
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copyDir: %v", err)
	}
}

// TestFailoverMatrix is the 3-node kill -9 drill: leader n1 streams to
// followers n2/n3, the ring successor's feed is torn at a byte offset
// mid-stream and heals, a checkpoint barrier optionally prunes the
// leader's log under the live cursors, the leader dies abruptly, the
// ring successor is promoted — and its state must be byte-identical
// (snapshots and checkpoint payloads) to a from-scratch replay of the
// dead leader's WAL.
func TestFailoverMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("failover matrix is slow; skipped in -short")
	}
	ring := repl.NewRing("n1", "n2", "n3")
	succ := ring.Successor("n1")
	other := "n2"
	if succ == "n2" {
		other = "n3"
	}
	cuts := []int64{0, 1, 16, 17, 63, 128, 300, -1} // -1 = no fault
	for _, withBarrier := range []bool{false, true} {
		for _, policy := range []store.SyncPolicy{store.SyncNone, store.SyncAlways} {
			withBarrier, policy := withBarrier, policy
			t.Run(fmt.Sprintf("barrier=%v/policy=%v", withBarrier, policy), func(t *testing.T) {
				t.Parallel()
				for _, cut := range cuts {
					ldrN := newNode(t, "n1", policy, false)
					ldr, ln := startLeader(t, ldrN, 1, nil)

					succN := newNode(t, succ, policy, true)
					succF := newFollower(t, succN, ln.Addr().String(), cutDialer(cut))
					go succF.Run()
					otherN := newNode(t, other, policy, true)
					otherF := newFollower(t, otherN, ln.Addr().String(), nil)
					go otherF.Run()

					workloadPhase1(t, ldrN.m)
					tail1 := ldrN.st.ReplTail()
					waitUntil(t, 10*time.Second, "phase-1 catch-up", func() bool {
						return succF.Cursor() == tail1 && otherF.Cursor() == tail1
					})
					if withBarrier {
						if _, err := ldrN.m.CheckpointAll(context.Background()); err != nil {
							t.Fatalf("cut=%d: barrier: %v", cut, err)
						}
					}
					workloadPhase2(t, ldrN.m)
					tail := ldrN.st.ReplTail()
					waitUntil(t, 10*time.Second, "phase-2 catch-up", func() bool {
						return succF.Cursor() == tail && otherF.Cursor() == tail
					})

					// Kill the leader abruptly: feed gone, WAL left as-is on
					// "disk". No drain, no final checkpoint.
					ldr.Close()
					ln.Close()
					grave := t.TempDir()
					copyDir(t, ldrN.dir, grave)

					// Promote the ring successor; retire the other follower.
					otherF.Stop()
					if err := succF.Promote(context.Background()); err != nil {
						t.Fatalf("cut=%d: Promote: %v", cut, err)
					}
					if st := succF.Stats(); st.Gaps != 0 {
						t.Fatalf("cut=%d: successor saw %d gaps", cut, st.Gaps)
					}

					// From-scratch replay of the dead leader's WAL, oracle-
					// verified, is the ground truth the promoted node must
					// match exactly.
					replayN := &node{id: "replay", dir: grave, st: openStore(t, grave, policy)}
					replayN.m = serve.NewManager(serve.Config{Shards: 1, Store: replayN.st})
					if _, err := replayN.m.Recover(true); err != nil {
						t.Fatalf("cut=%d: replay Recover: %v", cut, err)
					}
					if got, wantS := stateKey(succN.m), stateKey(replayN.m); got != wantS {
						t.Fatalf("cut=%d: promoted state != WAL replay\n got:\n%s\nwant:\n%s", cut, got, wantS)
					}
					if live := stateKey(ldrN.m); stateKey(succN.m) != live {
						t.Fatalf("cut=%d: promoted state != leader's live state\n%s\nvs\n%s", cut, stateKey(succN.m), live)
					}
					if p, r := ckptMap(t, succN), ckptMap(t, replayN); !reflect.DeepEqual(p, r) {
						t.Fatalf("cut=%d: checkpoint payloads differ\npromoted: %v\nreplay:   %v", cut, p, r)
					}

					// The promoted node serves writes again.
					if s, ok := succN.m.Session("alpha"); !ok {
						t.Fatalf("cut=%d: promoted node lost session alpha", cut)
					} else {
						step(t, s, serve.Add(3.0, 0.3))
					}
					if _, err := succN.m.CreateSession("post-failover", pts(2)); err != nil {
						t.Fatalf("cut=%d: promoted node refused create: %v", cut, err)
					}

					replayN.close()
					otherN.close()
					succN.close()
					ldrN.close()
				}
			})
		}
	}
}

// TestFollowerHealsAcrossBarrierPrune pins the cursor-normalization
// path end to end: a follower cut mid-stream reconnects with a cursor
// pointing into a segment a checkpoint barrier has since pruned — at
// its exact end — and must resume without a resync.
func TestFollowerHealsAcrossBarrierPrune(t *testing.T) {
	ldrN := newNode(t, "n1", store.SyncNone, false)
	defer ldrN.close()
	ldr, ln := startLeader(t, ldrN, 1, nil)
	defer ldr.Close()

	folN := newNode(t, "n2", store.SyncNone, true)
	defer folN.close()
	fol := newFollower(t, folN, ln.Addr().String(), nil)
	go fol.Run()
	defer fol.Stop()

	workloadPhase1(t, ldrN.m)
	tail1 := ldrN.st.ReplTail()
	waitUntil(t, 10*time.Second, "phase-1 catch-up", caughtUp(fol, ldrN.st, tail1))

	// Barrier: rotates and prunes the segment the follower's cursor ends.
	if _, err := ldrN.m.CheckpointAll(context.Background()); err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	workloadPhase2(t, ldrN.m)
	tail := ldrN.st.ReplTail()
	waitUntil(t, 10*time.Second, "post-barrier catch-up", caughtUp(fol, ldrN.st, tail))
	drain(t, folN.m)
	if got, want := stateKey(folN.m), stateKey(ldrN.m); got != want {
		t.Fatalf("state diverged across barrier\n got:\n%s\nwant:\n%s", got, want)
	}
	if st := fol.Stats(); st.Gaps != 0 || st.Resyncs != 0 {
		t.Fatalf("barrier forced gaps/resyncs: %+v — cursor normalization failed", st)
	}
}

// TestFaultConn exercises the injector itself: delay, duplicate-write
// tolerance on the ack path, and partition healing.
func TestFaultConn(t *testing.T) {
	ldrN := newNode(t, "n1", store.SyncNone, false)
	defer ldrN.close()
	a := mustCreate(t, ldrN.m, "alpha", pts(3))
	step(t, a, serve.Add(0.8, 0.4))
	step(t, a, serve.SetRadius(1, 2))
	tail := ldrN.st.ReplTail()
	want := stateKey(ldrN.m)
	ldr, ln := startLeader(t, ldrN, 1, nil)
	defer ldr.Close()

	// Delayed reads: cheap latency on every frame must not disturb the
	// stream.
	folN := newNode(t, "n2", store.SyncNone, true)
	defer folN.close()
	var fc *repl.FaultConn
	fol := newFollower(t, folN, ln.Addr().String(), func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc = repl.NewFaultConn(c)
		fc.DelayReads(time.Millisecond)
		return fc, nil
	})
	go fol.Run()
	defer fol.Stop()
	waitUntil(t, 10*time.Second, "delayed catch-up", caughtUp(fol, ldrN.st, tail))
	drain(t, folN.m)
	if got := stateKey(folN.m); got != want {
		t.Fatalf("delayed run diverged\n got:\n%s\nwant:\n%s", got, want)
	}
	waitUntil(t, 5*time.Second, "ack horizon", func() bool {
		return ldr.Acked("n2") == tail
	})

	// Duplicated writes on the established stream: every ack now arrives
	// twice, and the leader must tolerate it. (Armed after the handshake
	// — duplicating hello/subscribe is a protocol violation the leader
	// correctly refuses.)
	fc.DuplicateWrites(true)
	step(t, a, serve.Move(1, 0.6, 0.1))
	tailDup := ldrN.st.ReplTail()
	waitUntil(t, 10*time.Second, "catch-up through duplicated acks", caughtUp(fol, ldrN.st, tailDup))
	waitUntil(t, 5*time.Second, "acks through duplication", func() bool {
		return ldr.Acked("n2") == tailDup
	})

	// Partition: blackhole the live connection; the follower must drop
	// it, reconnect, and keep following new traffic.
	fc.Partition(50 * time.Millisecond)
	step(t, a, serve.Move(0, 0.5, 0.5))
	tail2 := ldrN.st.ReplTail()
	waitUntil(t, 10*time.Second, "post-partition catch-up", caughtUp(fol, ldrN.st, tail2))
	drain(t, folN.m)
	if got, wantS := stateKey(folN.m), stateKey(ldrN.m); got != wantS {
		t.Fatalf("post-partition diverged\n got:\n%s\nwant:\n%s", got, wantS)
	}
	if st := fol.Stats(); st.Gaps != 0 {
		t.Fatalf("partition produced gaps: %+v", st)
	}
}

// TestStaleEpochRefused pins the epoch fence: a follower pinned to a
// past epoch is refused and makes no progress, one pinned to the
// current epoch streams normally.
func TestStaleEpochRefused(t *testing.T) {
	ldrN := newNode(t, "n1", store.SyncNone, false)
	defer ldrN.close()
	a := mustCreate(t, ldrN.m, "alpha", pts(3))
	step(t, a, serve.Add(0.8, 0.4))
	tail := ldrN.st.ReplTail()
	ldr, ln := startLeader(t, ldrN, 7, nil)
	defer ldr.Close()

	staleN := newNode(t, "stale", store.SyncNone, true)
	defer staleN.close()
	stale, err := repl.NewFollower(repl.FollowerConfig{
		Manager: staleN.m, NodeID: "stale", LeaderAddr: ln.Addr().String(),
		Epoch: 6, Backoff: time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	go stale.Run()
	time.Sleep(100 * time.Millisecond)
	stale.Stop()
	if st := stale.Stats(); st.Frames != 0 {
		t.Fatalf("stale-epoch follower received %d frames, want 0", st.Frames)
	}
	if !stale.Cursor().IsZero() {
		t.Fatalf("stale-epoch follower advanced to %v", stale.Cursor())
	}

	okN := newNode(t, "ok", store.SyncNone, true)
	defer okN.close()
	okF, err := repl.NewFollower(repl.FollowerConfig{
		Manager: okN.m, NodeID: "ok", LeaderAddr: ln.Addr().String(),
		Epoch: 7, Backoff: time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	go okF.Run()
	defer okF.Stop()
	waitUntil(t, 10*time.Second, "pinned-epoch catch-up", caughtUp(okF, ldrN.st, tail))
	if got := okF.LeaderEpoch(); got != 7 {
		t.Fatalf("LeaderEpoch = %d, want 7", got)
	}
}

// TestFollowerReplaysUncoalescedRecord: a follower in the default
// configuration, which coalesces client batches, holds the leader's seq
// after a batch record that sets one node's radius twice. A replicated
// record is applied as one pinned batch, exactly as recorded, so its op
// count stays its seq advance and the next record extends the
// follower's watermark without a gap.
func TestFollowerReplaysUncoalescedRecord(t *testing.T) {
	ldrN := newNode(t, "n1", store.SyncNone, false)
	defer ldrN.close()
	ldr, ln := startLeader(t, ldrN, 1, nil)
	defer ldr.Close()
	folN := newNode(t, "n2", store.SyncNone, true)
	fol := newFollower(t, folN, ln.Addr().String(), nil)
	go fol.Run()
	defer folN.close()
	defer fol.Stop()

	a := mustCreate(t, ldrN.m, "alpha", pts(4))
	if _, err := a.ApplyBatch([]serve.Mutation{
		serve.SetRadius(1, 1), serve.SetRadius(1, 2), serve.Move(0, 0.1, 0.2),
	}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if err := a.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if seq := a.Snapshot().Seq; seq != 3 {
		t.Fatalf("leader seq %d, want 3 (a pinned batch is not coalesced)", seq)
	}
	step(t, a, serve.SetRadius(2, 1.5))
	tail := ldrN.st.ReplTail()
	waitUntil(t, 10*time.Second, "follower catch-up", caughtUp(fol, ldrN.st, tail))
	drain(t, folN.m)
	if got, want := stateKey(folN.m), stateKey(ldrN.m); got != want {
		t.Fatalf("follower state diverged\n got:\n%s\nwant:\n%s", got, want)
	}
	if st := fol.Stats(); st.Gaps != 0 {
		t.Fatalf("follower recorded gaps: %+v", st)
	}
}

// TestFollowerStopDuringDial pins the Stop/session race: a Stop landing
// after Dial returns but before the connection is recorded must still
// terminate Run and close the fresh connection, or Promote's wg.Wait
// would block forever behind a frame loop nobody can reach.
func TestFollowerStopDuringDial(t *testing.T) {
	folN := newNode(t, "n2", store.SyncNone, true)
	defer folN.close()
	entered := make(chan struct{})
	release := make(chan struct{})
	peer := make(chan net.Conn, 1)
	dial := func(string) (net.Conn, error) {
		close(entered)
		<-release
		c1, c2 := net.Pipe()
		peer <- c2
		return c1, nil
	}
	fol := newFollower(t, folN, "unused", dial)
	done := make(chan error, 1)
	go func() { done <- fol.Run() }()
	<-entered
	fol.Stop() // f.conn is still nil: Stop has nothing to close yet
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after Stop raced the dial")
	}
	c2 := <-peer
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("peer read err = %v, want io.EOF (connection closed by the stopped follower)", err)
	}
}

// TestFollowerStuckWhenLogStartPruned pins the no-bootstrap limitation
// as a *surfaced* state: once the leader prunes segment 1, a follower
// forced to subscribe from cursor zero can never catch up — it must say
// so (StuckResync, the pruned counter, a loud log line) instead of
// silently serving stale reads while retrying forever.
func TestFollowerStuckWhenLogStartPruned(t *testing.T) {
	st, err := store.Open(store.Options{
		Dir: t.TempDir(), Sync: store.SyncNone, SegmentBytes: 128, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 40; i++ {
		if err := st.Append(store.Record{
			Kind: store.RecordBatch, Session: "s", Seq: uint64(i + 1), Payload: []byte("padding-payload"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tail := st.ReplTail()
	if tail.Seg < 3 {
		t.Fatalf("want >=3 segments for the prune, tail at %v", tail)
	}
	if _, err := st.Prune(tail.Seg); err != nil {
		t.Fatal(err)
	}

	ldr := repl.NewLeader(repl.LeaderConfig{
		Store: st, NodeID: "n1", Epoch: 1, Poll: 5 * time.Millisecond, Registry: obs.NewRegistry(),
	})
	defer ldr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ldr.Serve(ln)

	folN := newNode(t, "n2", store.SyncNone, true)
	defer folN.close()
	var logged atomic.Int32
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Manager: folN.m, NodeID: "n2", LeaderAddr: ln.Addr().String(),
		Backoff: time.Millisecond, Registry: obs.NewRegistry(),
		Logf: func(string, ...any) { logged.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	go fol.Run()
	defer fol.Stop()

	waitUntil(t, 10*time.Second, "stuck-resync surfaced", func() bool {
		s := fol.Stats()
		return s.StuckResync && s.Pruned > 0
	})
	if logged.Load() == 0 {
		t.Fatal("stuck-resync transition was never logged")
	}
	if s := fol.Stats(); s.Resyncs != 0 {
		t.Fatalf("zero-cursor follower counted a resync that cannot help: %+v", s)
	}
}

// TestFollowerSurfacesOversizedBatch: a leader running a larger queue
// than its follower (-batch-cap 2048 -queue-cap 4096 against the
// default 1024, here 16 ops against 8) ships a batch record the
// follower's queue can never hold. The feed loop must stop with
// serve.BatchTooBigError naming both sizes instead of spinning.
func TestFollowerSurfacesOversizedBatch(t *testing.T) {
	ldrN := newNode(t, "n1", store.SyncNone, false)
	defer ldrN.close()
	ldr, ln := startLeader(t, ldrN, 1, nil)
	defer ldr.Close()
	s := mustCreate(t, ldrN.m, "big", pts(16))
	batch := make([]serve.Mutation, 16)
	for i := range batch {
		batch[i] = serve.SetRadius(int64(i), 1.5)
	}
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	drain(t, ldrN.m)

	st := openStore(t, t.TempDir(), store.SyncNone)
	defer st.Close()
	m := serve.NewManager(serve.Config{Shards: 1, NoCoalesce: true, QueueCap: 8, Store: st})
	defer m.Close(context.Background())
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Manager: m, NodeID: "n2", LeaderAddr: ln.Addr().String(),
		Backoff: 2 * time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	defer fol.Stop()
	ran := make(chan error, 1)
	go func() { ran <- fol.Run() }()
	select {
	case err := <-ran:
		var big *serve.BatchTooBigError
		if !errors.As(err, &big) || big.Ops != 16 || big.QueueCap != 8 {
			t.Fatalf("Run: got %v, want BatchTooBigError{Ops: 16, QueueCap: 8}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower still running after 10s on an oversized record")
	}
}
