package serve_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/serve"
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
// radius writes inside one batch collapse to the last one outside
// deterministic mode.
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
	// land both sessions on identical state — the property session-trace
	// replay leans on.
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
		Shards: 1, Deterministic: true,
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

func TestParseTraceRoundTrip(t *testing.T) {
	m := serve.NewManager(serve.Config{Shards: 1, Deterministic: true})
	defer m.Close(context.Background())
	rng := rand.New(rand.NewSource(5))
	pts := gen.UniformSquare(rng, 16, 2)
	s := mustCreate(t, m, "rt", pts)
	mustApply(t, s,
		serve.Add(0.123456789, 1.9876543210987),
		serve.SetRadius(2, 0.333333333333333),
		serve.Remove(7),
		serve.Remove(7), // rejected second time
		serve.Move(1, 1e-9, 987.654321),
		serve.AnnealStep(100, 42),
		// Integers parse as integers: through a float64, seed 1<<62+1
		// came back as 1<<62 (another random stream), id 1<<53+1 as 1<<53.
		serve.AnnealStep(100, 1<<62+1),
		serve.Mutation{Op: serve.OpAdd, Node: 1<<53 + 1, X: 0.5, Y: 0.25},
	)
	flush(t, s)
	text := s.TraceText()

	gotPts, ops, err := serve.ParseTrace(text)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(gotPts) != len(pts) {
		t.Fatalf("parsed %d points, want %d", len(gotPts), len(pts))
	}
	for i := range pts {
		if gotPts[i] != pts[i] {
			t.Fatalf("point %d: %v != %v (float round-trip broken)", i, gotPts[i], pts[i])
		}
	}
	if len(ops) != 8 {
		t.Fatalf("parsed %d ops, want 8:\n%s", len(ops), text)
	}
	if ops[0].Op != serve.OpAdd || ops[0].Node != 16 {
		t.Fatalf("add parsed as %+v", ops[0])
	}
	if ops[5].Op != serve.OpAnneal || ops[5].Iters != 100 || ops[5].Seed != 42 {
		t.Fatalf("anneal parsed as %+v", ops[5])
	}
	if ops[6].Seed != 1<<62+1 || ops[7].Node != 1<<53+1 {
		t.Fatalf("large integers parsed as seed %d, id %d", ops[6].Seed, ops[7].Node)
	}
	if !strings.Contains(text, "reject remove id=7") {
		t.Fatalf("rejected op not recorded:\n%s", text)
	}
	// One Apply call enqueues atomically, so the eight ops drained as one
	// pipeline batch — and the recorded boundary recovers it.
	_, batches, err := serve.ParseTraceBatches(text)
	if err != nil {
		t.Fatalf("ParseTraceBatches: %v", err)
	}
	if len(batches) != 1 || len(batches[0]) != 8 {
		t.Fatalf("recovered %d batches (first %d ops), want 1 batch of 8:\n%s", len(batches), len(batches[0]), text)
	}
}

// TestApplyBatchPinsBoundaries checks the batch-boundary fidelity
// primitive: pinned batches enqueued back-to-back (no flush between, so
// the drain could otherwise merge them) must each run as one pipeline
// batch — the trace markers prove where the boundaries fell. This is
// what replication and WAL recovery lean on to reproduce the leader's
// deferral points.
func TestApplyBatchPinsBoundaries(t *testing.T) {
	m := serve.NewManager(serve.Config{Shards: 1, Deterministic: true})
	defer m.Close(context.Background())
	rng := rand.New(rand.NewSource(9))
	s := mustCreate(t, m, "pin", gen.UniformSquare(rng, 12, 2))
	sizes := []int{3, 1, 5, 2}
	for _, k := range sizes {
		batch := make([]serve.Mutation, k)
		for i := range batch {
			batch[i] = serve.Move(int64(rng.Intn(12)), rng.Float64()*2, rng.Float64()*2)
		}
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
	}
	flush(t, s)
	_, batches, err := serve.ParseTraceBatches(s.TraceText())
	if err != nil {
		t.Fatalf("ParseTraceBatches: %v", err)
	}
	if len(batches) != len(sizes) {
		t.Fatalf("drained as %d batches, want %d pinned", len(batches), len(sizes))
	}
	for i, b := range batches {
		if len(b) != sizes[i] {
			t.Fatalf("batch %d drained %d ops, want pinned size %d", i, len(b), sizes[i])
		}
	}
}

func TestTraceRingCap(t *testing.T) {
	m := serve.NewManager(serve.Config{Shards: 1, Deterministic: true, TraceCap: 8})
	defer m.Close(context.Background())
	s := mustCreate(t, m, "ring", line(3))
	for i := 0; i < 20; i++ {
		mustApply(t, s, serve.SetRadius(0, float64(i)))
	}
	flush(t, s)
	text := s.TraceText()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	// Op lines share the ring with batch-boundary markers, whose count
	// depends on how the queue drained — so bound the retained window
	// instead of asserting an exact split.
	var mLines, bLines int
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "m "):
			mLines++
		case strings.HasPrefix(l, "b "):
			bLines++
		}
	}
	if got := mLines + bLines; got > 8 || mLines == 0 {
		t.Fatalf("retained %d op + %d marker lines, want at most ring cap 8:\n%s", mLines, bLines, text)
	}
	if !strings.Contains(text, "# ring cap evicted ") {
		t.Fatalf("eviction marker missing:\n%s", text)
	}
	// The retained suffix is the most recent ops.
	if !strings.Contains(text, "seq=20") || strings.Contains(text, "seq=12 ") {
		t.Fatalf("ring kept wrong window:\n%s", text)
	}
}
