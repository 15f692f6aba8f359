package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestStressConcurrentMixed hammers one WAL-backed session with
// concurrent clients issuing a 90/10 read/mutation mix (run under -race
// by `make check` and CI), checking snapshot invariants on every read and
// recording the session's (seq, n, max) after every batch. Afterwards
// the write-ahead log is recovered into fresh managers and cross-checked
// against the live run, batch by batch:
//
//  1. recovered twice and compared byte-for-byte (oracle.ReplayText),
//     and against the live run's rows and final state;
//  2. recovered through a pipeline whose engine is the oracle's
//     naive-shadowed DiffEvaluator, with a full shadow verification after
//     every batch.
func TestStressConcurrentMixed(t *testing.T) {
	const (
		clients = 8
		iters   = 300
	)
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	defer st.Close()
	rows := &batchRows{}
	mgr := serve.NewManager(serve.Config{Shards: 4, QueueCap: 4096, Store: st, AfterBatch: rows.after})
	rows.m = mgr
	defer mgr.Close(context.Background())

	rng := rand.New(rand.NewSource(42))
	pts := gen.UniformSquare(rng, 96, 2)
	s := mustCreate(t, mgr, "stress", pts)

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			lastSeq := uint64(0)
			for i := 0; i < iters; i++ {
				if rng.Float64() < 0.9 {
					snap := s.Snapshot()
					// Monotonic: published snapshots never go backwards.
					if snap.Seq < lastSeq {
						errc <- fmt.Errorf("client %d: seq went backwards %d -> %d", c, lastSeq, snap.Seq)
						return
					}
					lastSeq = snap.Seq
					// Internally consistent: Max is the max per-node I, and
					// the node list matches N.
					if len(snap.Nodes) != snap.N {
						errc <- fmt.Errorf("client %d: %d nodes in snapshot of N=%d", c, len(snap.Nodes), snap.N)
						return
					}
					maxI := 0
					for _, n := range snap.Nodes {
						maxI = max(maxI, n.I)
					}
					if maxI != snap.Max {
						errc <- fmt.Errorf("client %d: snapshot max %d != max over nodes %d", c, snap.Max, maxI)
						return
					}
					continue
				}
				mu := randomMutation(rng, s.Snapshot())
				for {
					_, err := s.Apply(mu)
					if !errors.Is(err, serve.ErrQueueFull) {
						if err != nil {
							errc <- err
						}
						break
					}
					time.Sleep(time.Millisecond) // backpressure: wait, resubmit
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	flush(t, s)

	applied, _ := s.Counts()
	if applied == 0 {
		t.Fatal("stress run applied nothing")
	}
	live := rows.text() + snapKey(s.Snapshot()) + "\n"
	// The manager's drain writes final checkpoints, so recovery runs on
	// copies of the directory taken now, while it holds only the WAL.
	recorded := t.TempDir()
	copyCrashDir(t, dir, recorded, math.MaxInt64)

	// (1) Byte-identical replay, and identical to the live run.
	replayed, err := oracle.ReplayText(func() string { return recoverStress(t, recorded, len(rows.rows), nil, nil) })
	if err != nil {
		t.Fatalf("replay nondeterministic: %v", err)
	}
	if err := oracle.DiffText(live, replayed); err != nil {
		t.Fatalf("replay diverged from the live run: %v", err)
	}

	// (2) Shadow-checked replay through the oracle's DiffEvaluator.
	var verifyErr error
	shadow := recoverStress(t, recorded, len(rows.rows),
		func(pts []geom.Point) dynamic.Engine { return oracle.NewDiffEvaluator(pts) },
		func(eng dynamic.Engine) {
			if verifyErr == nil {
				verifyErr = eng.(*oracle.DiffEvaluator).Verify()
			}
		})
	if verifyErr != nil {
		t.Fatalf("shadow verification failed during replay: %v", verifyErr)
	}
	if err := oracle.DiffText(live, shadow); err != nil {
		t.Fatalf("shadow replay diverged: %v", err)
	}
}

// batchRows records the session head after every applied batch, from
// the AfterBatch hook on the owner goroutine. Each manager it is
// attached to holds one session, so rows arrive in batch order.
type batchRows struct {
	m    *serve.Manager
	rows []string
	last uint64
}

func (r *batchRows) after(id string, _ dynamic.Engine) {
	s, _ := r.m.Session(id)
	h := s.Head()
	if h.Seq == r.last {
		return // an owner pass that applied no batch
	}
	r.last = h.Seq
	r.rows = append(r.rows, fmt.Sprintf("seq=%d n=%d max=%d", h.Seq, h.N, h.Max))
}

func (r *batchRows) text() string { return strings.Join(r.rows, "\n") + "\n" }

// randomMutation picks a mutation against currently-live IDs (reads the
// snapshot for targets, so most ops hit; misses exercise rejection).
func randomMutation(rng *rand.Rand, snap *serve.Snapshot) serve.Mutation {
	pick := func() int64 {
		if len(snap.Nodes) == 0 {
			return 0
		}
		return snap.Nodes[rng.Intn(len(snap.Nodes))].ID
	}
	switch rng.Intn(10) {
	case 0, 1, 2:
		return serve.Add(rng.Float64()*2, rng.Float64()*2)
	case 3, 4:
		return serve.Remove(pick())
	case 5, 6:
		return serve.Move(pick(), rng.Float64()*2, rng.Float64()*2)
	case 7, 8:
		return serve.SetRadius(pick(), rng.Float64()*1.5)
	default:
		return serve.AnnealStep(50+rng.Intn(50), rng.Int63n(1<<30))
	}
}

// recoverStress recovers a copy of the recorded data directory into a
// fresh single-shard manager and returns its per-batch rows and final
// state in the live run's format. The copy holds no checkpoint, so every
// live batch must come back as one replayed WAL batch record. verify,
// when non-nil, runs after every replayed batch.
func recoverStress(t *testing.T, recorded string, liveBatches int, engine dynamic.EngineFactory, verify func(dynamic.Engine)) string {
	t.Helper()
	dir := t.TempDir()
	copyCrashDir(t, recorded, dir, math.MaxInt64)
	st := openStore(t, dir, store.SyncNone)
	defer st.Close()
	rows := &batchRows{}
	after := rows.after
	if verify != nil {
		after = func(id string, eng dynamic.Engine) {
			rows.after(id, eng)
			verify(eng)
		}
	}
	m := serve.NewManager(serve.Config{Shards: 1, QueueCap: 4096, Store: st, Engine: engine, AfterBatch: after})
	rows.m = m
	defer m.Close(context.Background())
	rs, err := m.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.FromCheckpoint != 0 || rs.ReplayedBatches != liveBatches {
		t.Fatalf("RecoveryStats=%+v, want every one of %d live batches replayed from the WAL", rs, liveBatches)
	}
	s, ok := m.Session("stress")
	if !ok {
		t.Fatal("stress session not recovered")
	}
	return rows.text() + snapKey(s.Snapshot()) + "\n"
}
