package serve

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
)

// TestBatchStagesAddUp: a traced churn batch — teleporting moves in a
// connected n=1500 session, so the settle has pieces to rejoin —
// records a serve.batch span whose six stage children run back to back
// in pipeline order and add up to the root's duration, each losing
// under 1 µs to the flight record's µs truncation. The settle is its
// own stage, not folded into apply.
func TestBatchStagesAddUp(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	thr := obs.TailThresholdNS()
	obs.SetTailThreshold(0)
	defer obs.SetTailThreshold(time.Duration(thr))

	m := NewManager(Config{Shards: 1})
	defer m.Close(context.Background())
	rng := rand.New(rand.NewSource(3))
	const n, side = 1500, 15
	s, err := m.CreateSession("stages", gen.UniformSquare(rng, n, side))
	if err != nil {
		t.Fatal(err)
	}
	const trace = 0x5e771e
	muts := make([]Mutation, 48)
	for i := range muts {
		muts[i] = Move(int64(rng.Intn(n)), rng.Float64()*side, rng.Float64()*side)
	}
	muts[0].TC = &obs.TraceContext{TraceID: trace, SpanID: 1, Flags: obs.TraceFlagSampled}
	if _, err := s.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	var root obs.SpanRecord
	var stages []obs.SpanRecord
	for _, r := range obs.DefaultRecorder().Records() {
		if r.Trace == trace && r.Name == "serve.batch" {
			root = r
		}
	}
	for _, r := range obs.DefaultRecorder().Records() {
		if root.ID != 0 && r.Parent == root.ID {
			stages = append(stages, r)
		}
	}
	want := []string{"serve.queue", "serve.coalesce", "serve.wal", "serve.apply", "serve.settle", "serve.publish"}
	if len(stages) != len(want) {
		t.Fatalf("batch span %+v has stages %+v, want %v", root, stages, want)
	}
	at, sum := root.Start, int64(0)
	for i, st := range stages {
		if st.Name != want[i] || st.Start != at {
			t.Fatalf("stage %d is %s at %d, want %s at %d", i, st.Name, st.Start, want[i], at)
		}
		at += st.Dur
		sum += st.Dur
	}
	if gap := root.Dur - sum; gap < 0 || gap >= int64(len(want))*1000 {
		t.Fatalf("stages add up to %d ns of the batch's %d ns", sum, root.Dur)
	}
	if stages[4].Dur == 0 {
		t.Fatalf("settle of a %d-move batch took under 1 µs", len(muts))
	}
}
