package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/store"
)

func line(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*0.5, 0)
	}
	return pts
}

func mustCreate(t *testing.T, m *serve.Manager, id string, pts []geom.Point) *serve.Session {
	t.Helper()
	s, err := m.CreateSession(id, pts)
	if err != nil {
		t.Fatalf("CreateSession(%q): %v", id, err)
	}
	return s
}

func mustApply(t *testing.T, s *serve.Session, muts ...serve.Mutation) []int64 {
	t.Helper()
	ids, err := s.Apply(muts...)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return ids
}

func flush(t *testing.T, s *serve.Session) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	m := serve.NewManager(serve.Config{Shards: 2})
	defer m.Close(context.Background())

	s := mustCreate(t, m, "alpha", line(5))
	snap := s.Snapshot()
	if snap.N != 5 || snap.Seq != 0 {
		t.Fatalf("initial snapshot: n=%d seq=%d", snap.N, snap.Seq)
	}
	if snap.Max == 0 {
		t.Fatalf("connected line instance should have interference > 0")
	}

	// Mutate: add a node, move and remove by stable ID, then override a
	// radius (last, so no structural op can shrink it back before the
	// batch's snapshot publishes).
	ids := mustApply(t, s,
		serve.Add(2.5, 0.1),
		serve.Move(1, 0.6, 0.05),
		serve.Remove(3),
		serve.SetRadius(0, 1.25),
	)
	if len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("assigned ids = %v, want [5]", ids)
	}
	flush(t, s)

	snap = s.Snapshot()
	if snap.Seq != 4 || snap.N != 5 { // 5 initial +1 added -1 removed
		t.Fatalf("after batch: seq=%d n=%d", snap.Seq, snap.N)
	}
	if _, ok := snap.Node(3); ok {
		t.Fatalf("node 3 still present after remove")
	}
	if n, ok := snap.Node(1); !ok || n.X != 0.6 || n.Y != 0.05 {
		t.Fatalf("node 1 after move: %+v ok=%v", n, ok)
	}
	if n, ok := snap.Node(0); !ok || n.R != 1.25 {
		t.Fatalf("node 0 radius override: %+v ok=%v", n, ok)
	}
	applied, rejected := s.Counts()
	if applied != 4 || rejected != 0 {
		t.Fatalf("counts: applied=%d rejected=%d", applied, rejected)
	}

	// Mutations addressing dead IDs are rejected, not fatal.
	mustApply(t, s, serve.SetRadius(3, 1), serve.Remove(99))
	flush(t, s)
	if _, rejected = s.Counts(); rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rejected)
	}

	// Duplicate and lifecycle errors.
	if _, err := m.CreateSession("alpha", nil); !errors.Is(err, serve.ErrSessionExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := m.DropSession("alpha"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := s.Apply(serve.Add(0, 0)); !errors.Is(err, serve.ErrSessionClosed) {
		t.Fatalf("apply after drop: %v", err)
	}
	if err := m.DropSession("alpha"); !errors.Is(err, serve.ErrNoSession) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestManagerCloseRejectsNewWork(t *testing.T) {
	m := serve.NewManager(serve.Config{Shards: 1})
	s := mustCreate(t, m, "s", line(3))
	mustApply(t, s, serve.SetRadius(0, 2))
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Drain applied the queued mutation before shutdown.
	if n, ok := s.Snapshot().Node(0); !ok || n.R != 2 {
		t.Fatalf("queued mutation not drained: %+v", n)
	}
	if _, err := m.CreateSession("late", nil); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
}

func TestValidationRejectsGarbage(t *testing.T) {
	m := serve.NewManager(serve.Config{Shards: 1})
	defer m.Close(context.Background())
	s := mustCreate(t, m, "v", line(3))
	for _, mu := range []serve.Mutation{
		serve.Add(math.NaN(), 0),
		serve.Add(2e9, 0), // would balloon the dense spatial index
		serve.Move(0, 0, math.Inf(1)),
		serve.SetRadius(0, -1),
		serve.SetRadius(0, math.NaN()),
		serve.AnnealStep(0, 1),
		serve.AnnealStep(1<<30, 1),
		{Op: serve.Op(99)},
	} {
		if _, err := s.Apply(mu); err == nil {
			t.Errorf("mutation %+v accepted, want validation error", mu)
		}
	}
	if applied, rejectedN := s.Counts(); applied != 0 || rejectedN != 0 {
		t.Fatalf("invalid mutations reached the pipeline: %d/%d", applied, rejectedN)
	}
	// Instances with out-of-bound points are refused at creation too.
	if _, err := m.CreateSession("far", []geom.Point{geom.Pt(0, 2e9)}); err == nil {
		t.Fatalf("far-flung instance accepted")
	}
}

// TestCoalescing pins the batched-pipeline contract: redundant same-node
// radius writes inside one client batch collapse to the last one.
func TestCoalescing(t *testing.T) {
	gate := make(chan struct{})
	released := false
	m := serve.NewManager(serve.Config{
		Shards: 1, BatchCap: 64,
		BeforeBatch: func(string) {
			if !released {
				<-gate
				released = true
			}
		},
	})
	defer m.Close(context.Background())
	s := mustCreate(t, m, "c", line(4))

	var muts []serve.Mutation
	for i := 0; i < 10; i++ {
		muts = append(muts, serve.SetRadius(2, float64(i+1)))
	}
	mustApply(t, s, muts...)
	close(gate)
	flush(t, s)

	applied, _ := s.Counts()
	if applied != 1 {
		t.Fatalf("applied = %d, want 1 (coalesced)", applied)
	}
	if n, _ := s.Snapshot().Node(2); n.R != 10 {
		t.Fatalf("radius = %v, want last write 10", n.R)
	}
	// Seq still advances once per surviving mutation only.
	if seq := s.Snapshot().Seq; seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
}

func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	m := serve.NewManager(serve.Config{
		Shards: 1, QueueCap: 4,
		BeforeBatch: func(string) { <-gate },
	})
	s := mustCreate(t, m, "b", line(3))

	for i := 0; i < 4; i++ {
		mustApply(t, s, serve.SetRadius(0, float64(i)))
	}
	if _, err := s.Apply(serve.SetRadius(0, 9)); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("5th apply: %v, want ErrQueueFull", err)
	}
	if m.Metrics().QueueFull.Value() == 0 {
		t.Fatalf("backpressure not counted")
	}
	close(gate)
	flush(t, s)
	// Recovery: queue drained, applies succeed again.
	mustApply(t, s, serve.SetRadius(0, 9))
	flush(t, s)
	if n, _ := s.Snapshot().Node(0); n.R != 9 {
		t.Fatalf("post-recovery radius %v", n.R)
	}
	m.Close(context.Background())
}

func TestAnnealMutationDeterministic(t *testing.T) {
	// The same anneal budget with the same seed over the same instance must
	// land both sessions on identical state — the property WAL replay
	// leans on.
	m := serve.NewManager(serve.Config{Shards: 2})
	defer m.Close(context.Background())
	rng := rand.New(rand.NewSource(7))
	pts := gen.UniformSquare(rng, 40, 2)
	var maxes [2]int
	var radii [2][]float64
	for i, id := range []string{"a1", "a2"} {
		s := mustCreate(t, m, id, pts)
		mustApply(t, s, serve.AnnealStep(2000, 11))
		flush(t, s)
		snap := s.Snapshot()
		maxes[i] = snap.Max
		for _, n := range snap.Nodes {
			radii[i] = append(radii[i], n.R)
		}
		if snap.Events == 0 {
			t.Fatalf("anneal not counted as maintainer event")
		}
		// Snapshot internal consistency: Max is the max per-node I.
		want := 0
		for _, n := range snap.Nodes {
			want = max(want, n.I)
		}
		if snap.Max != want {
			t.Fatalf("snapshot max %d != max over nodes %d", snap.Max, want)
		}
	}
	if maxes[0] != maxes[1] {
		t.Fatalf("anneal nondeterministic: %d vs %d", maxes[0], maxes[1])
	}
	for i := range radii[0] {
		if radii[0][i] != radii[1][i] {
			t.Fatalf("anneal radii diverge at node %d: %v vs %v", i, radii[0][i], radii[1][i])
		}
	}
}

// TestDiffEngineInjection runs a whole session pipeline on the oracle's
// naive-shadowed evaluator, verifying after every batch — the
// serving-layer inheritance of the differential-testing guarantees.
func TestDiffEngineInjection(t *testing.T) {
	var verr error
	m := serve.NewManager(serve.Config{
		Shards: 1,
		Engine: func(pts []geom.Point) dynamic.Engine { return oracle.NewDiffEvaluator(pts) },
		AfterBatch: func(_ string, eng dynamic.Engine) {
			if verr == nil {
				verr = eng.(*oracle.DiffEvaluator).Verify()
			}
		},
	})
	defer m.Close(context.Background())
	rng := rand.New(rand.NewSource(3))
	s := mustCreate(t, m, "diff", gen.UniformSquare(rng, 24, 2))
	for i := 0; i < 30; i++ {
		switch i % 4 {
		case 0:
			mustApply(t, s, serve.Add(rng.Float64()*2, rng.Float64()*2))
		case 1:
			mustApply(t, s, serve.SetRadius(int64(rng.Intn(10)), rng.Float64()))
		case 2:
			mustApply(t, s, serve.Move(int64(rng.Intn(10)+10), rng.Float64()*2, rng.Float64()*2))
		case 3:
			mustApply(t, s, serve.Remove(int64(24+i)))
		}
	}
	flush(t, s)
	if verr != nil {
		t.Fatalf("shadow verification failed: %v", verr)
	}
	if applied, _ := s.Counts(); applied == 0 {
		t.Fatalf("nothing applied")
	}
}

// TestWALReplayRoundTrip logs eight ops of every kind as one WAL batch
// record and recovers them into a fresh manager: floats come back bit for
// bit, integers above 2^53 exactly (through a float64, seed 1<<62+1 would
// come back as 1<<62, another random stream, and id 1<<53+1 as 1<<53),
// and the second Remove(7) is re-derived as a rejection.
func TestWALReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	rng := rand.New(rand.NewSource(5))
	s := mustCreate(t, m, "rt", gen.UniformSquare(rng, 16, 2))
	mustApply(t, s,
		serve.Add(0.123456789, 1.9876543210987),
		serve.SetRadius(2, 0.333333333333333),
		serve.Remove(7),
		serve.Remove(7), // rejected second time
		serve.Move(1, 1e-9, 987.654321),
		serve.AnnealStep(100, 42),
		serve.AnnealStep(100, 1<<62+1),
		serve.Mutation{Op: serve.OpAdd, Node: 1<<53 + 1, X: 0.5, Y: 0.25},
	)
	flush(t, s)
	want := snapKey(s.Snapshot())
	if applied, rejected := s.Counts(); applied != 7 || rejected != 1 {
		t.Fatalf("live counts %d/%d, want 7 applied, 1 rejected", applied, rejected)
	}
	// Simulate a crash: seal the WAL but never checkpoint or drain.
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	// One Apply call enqueues atomically, so the eight ops drained as one
	// pipeline batch and were logged as one record.
	var batches []store.Record
	for _, rec := range walRecords(t, dir) {
		if rec.Kind == store.RecordBatch {
			batches = append(batches, rec)
		}
	}
	if len(batches) != 1 || batches[0].Seq != 8 {
		t.Fatalf("WAL holds %d batch records (%+v), want 1 ending at seq 8", len(batches), batches)
	}

	st2 := openStore(t, dir, store.SyncNone)
	defer st2.Close()
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	defer m2.Close(context.Background())
	rs, err := m2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.ReplayedBatches != 1 || rs.ReplayedMutations != 8 {
		t.Fatalf("RecoveryStats=%+v, want 1 batch of 8 replayed", rs)
	}
	s2, ok := m2.Session("rt")
	if !ok {
		t.Fatal("session not recovered")
	}
	if applied, rejected := s2.Counts(); applied != 7 || rejected != 1 {
		t.Fatalf("recovered counts %d/%d, want 7 applied, 1 rejected", applied, rejected)
	}
	if got := snapKey(s2.Snapshot()); got != want {
		t.Fatalf("recovered state\n got %s\nwant %s", got, want)
	}
}

// TestApplyBatchPinsBoundaries checks the batch-boundary fidelity
// primitive: pinned batches enqueued back-to-back (no flush between, so
// the drain could otherwise merge them) must each run as one pipeline
// batch, exactly as enqueued — the WAL batch records prove where the
// boundaries fell. The third batch writes one node's radius twice; a
// pinned batch is never coalesced, so its record keeps both writes.
// This is what replication and WAL recovery lean on to reproduce the
// leader's deferral points.
func TestApplyBatchPinsBoundaries(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	rng := rand.New(rand.NewSource(9))
	s := mustCreate(t, m, "pin", gen.UniformSquare(rng, 12, 2))
	sizes := []int{3, 1, 5, 2}
	for bi, k := range sizes {
		batch := make([]serve.Mutation, k)
		for i := range batch {
			batch[i] = serve.Move(int64(rng.Intn(12)), rng.Float64()*2, rng.Float64()*2)
		}
		if bi == 2 {
			batch[1], batch[3] = serve.SetRadius(4, 0.5), serve.SetRadius(4, 0.75)
		}
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
	}
	flush(t, s)
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	// A batch record's Seq is the session's seq after the batch, and
	// every applied op advances seq by one: consecutive differences are
	// the batch sizes.
	var got []int
	var prev uint64
	for _, rec := range walRecords(t, dir) {
		if rec.Kind == store.RecordBatch {
			got = append(got, int(rec.Seq-prev))
			prev = rec.Seq
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(sizes) {
		t.Fatalf("WAL batch records hold %v ops, want the pinned sizes %v", got, sizes)
	}
}
