package rim_test

// Durability-layer benchmarks (single-sample numbers frozen in
// BENCH_3.json):
//
//   - BenchmarkWALAppend: raw framed-record append throughput per fsync
//     policy — the cost every acknowledged mutation batch pays;
//   - BenchmarkRecovery: full boot-time recovery (checkpoint restore +
//     WAL tail replay + oracle cross-check) of a mutated session — the
//     crash-restart latency a deployment actually experiences.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// BenchmarkWALAppend measures one 256-byte batch record append per op.
// SyncAlways pays an fsync per record (group-committed under parallel
// load; this is the worst-case serial shape), SyncBatch rides the
// background syncer, SyncNone isolates the framing+write cost.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, policy := range []store.SyncPolicy{store.SyncNone, store.SyncBatch, store.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			st, err := store.Open(store.Options{
				Dir: b.TempDir(), Sync: policy, Registry: obs.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			// Warmup outside the timer: the first append lazily creates
			// segment 1 (two fsyncs + a directory fsync). Under
			// benchtime=1x that setup *was* the measurement, which is how
			// BENCH_3 recorded ~1.1ms/op for every policy including
			// SyncNone.
			if err := st.Append(store.Record{
				Kind: store.RecordBatch, Session: "bench", Seq: 0, Payload: payload,
			}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := store.Record{
					Kind: store.RecordBatch, Session: "bench", Seq: uint64(i + 1), Payload: payload,
				}
				if err := st.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppendBatch measures group appends: 64 records per
// AppendBatch call, framed into one contiguous write sharing one fsync.
// Compare per-record cost against BenchmarkWALAppend/always to see what
// the serving layer's batch pipeline buys the durability path.
func BenchmarkWALAppendBatch(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	const group = 64
	recs := make([]store.Record, group)
	for _, policy := range []store.SyncPolicy{store.SyncNone, store.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			st, err := store.Open(store.Options{
				Dir: b.TempDir(), Sync: policy, Registry: obs.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.Append(store.Record{
				Kind: store.RecordBatch, Session: "bench", Seq: 0, Payload: payload,
			}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(group * len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range recs {
					recs[j] = store.Record{
						Kind: store.RecordBatch, Session: "bench",
						Seq: uint64(i*group + j + 1), Payload: payload,
					}
				}
				if err := st.AppendBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures a full crash-recovery boot: n=1024 session,
// a checkpoint mid-history, 256 post-checkpoint single-mutation batches
// to replay, oracle verification on (as rimd runs it).
func BenchmarkRecovery(b *testing.B) {
	for _, replay := range []int{0, 256} {
		b.Run(fmt.Sprintf("replayBatches=%d", replay), func(b *testing.B) {
			dir := b.TempDir()
			st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNone, Registry: obs.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			mgr := serve.NewManager(serve.Config{Shards: 1, Store: st})
			pts := gen.UniformSquare(rand.New(rand.NewSource(42)), 1024, 6.4)
			s, err := mgr.CreateSession("bench", pts)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			mutate := func() {
				if _, err := s.Apply(serve.SetRadius(int64(rng.Intn(1024)), rng.Float64()*0.5)); err != nil {
					b.Fatal(err)
				}
				if err := s.Flush(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				mutate()
			}
			if _, err := mgr.CheckpointAll(context.Background()); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < replay; i++ {
				mutate()
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each boot recovers a pristine copy: shutdown writes final
				// checkpoints, which would otherwise shrink later
				// iterations' replay work.
				b.StopTimer()
				dir2 := b.TempDir()
				copyTree(b, dir, dir2)
				st2, err := store.Open(store.Options{Dir: dir2, Sync: store.SyncNone, Registry: obs.NewRegistry()})
				if err != nil {
					b.Fatal(err)
				}
				m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
				b.StartTimer()
				rs, err := m2.Recover(true)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if rs.Sessions != 1 || rs.ReplayedBatches != replay {
					b.Fatalf("RecoveryStats=%+v, want 1 session with %d replayed batches", rs, replay)
				}
				m2.Close(context.Background())
				st2.Close()
				b.StartTimer()
			}
		})
	}
}

// copyTree clones the store layout (wal/, ckpt/) from src into dst.
func copyTree(b *testing.B, src, dst string) {
	b.Helper()
	for _, sub := range []string{"wal", "ckpt"} {
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			b.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(src, sub))
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, sub, e.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, sub, e.Name()), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
}
