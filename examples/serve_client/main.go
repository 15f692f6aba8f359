// Serve_client: the topology-control service used as a library — the
// rimd pipeline (sharded sessions, batched single-writer mutations,
// lock-free snapshot reads) without the HTTP front door.
//
// A control plane embedded in a larger Go program gets the same
// guarantees the daemon offers over the wire: bounded queues with
// explicit backpressure, snapshots that always reflect a prefix of the
// mutation log, and exact applied/rejected accounting. Give the manager a
// store (serve.Config.Store) and the write-ahead log records every batch,
// replayable with Manager.Recover.
//
//	go run ./examples/serve_client
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/tablefmt"
)

func main() {
	mgr := serve.NewManager(serve.Config{
		Shards:   2,
		QueueCap: 512,
	})
	defer mgr.Close(context.Background())

	rng := rand.New(rand.NewSource(2026))
	s, err := mgr.CreateSession("field", gen.UniformSquare(rng, 80, 2))
	if err != nil {
		panic(err)
	}

	t := tablefmt.New(
		"one session under mixed control traffic (80 nodes, 2×2 field)",
		"phase", "n", "max_I", "seq", "applied", "rejected")
	row := func(phase string) {
		snap := s.Snapshot() // one atomic load; never blocks the writer
		applied, rejected := s.Counts()
		t.AddRowf(phase, snap.N, snap.Max, snap.Seq, applied, rejected)
	}
	row("initial")

	// Churn: joins, departures, moves. Apply enqueues; the owning shard
	// applies in batches. ErrQueueFull is backpressure — wait, resubmit.
	enqueue := func(muts ...serve.Mutation) {
		for {
			_, err := s.Apply(muts...)
			if !errors.Is(err, serve.ErrQueueFull) {
				if err != nil {
					panic(err)
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 30; i++ {
		enqueue(serve.Add(rng.Float64()*2, rng.Float64()*2))
	}
	for id := int64(0); id < 10; id++ {
		enqueue(serve.Remove(id))
	}
	enqueue(serve.Move(20, 1.0, 1.0))
	enqueue(serve.Remove(9999)) // unknown ID: rejected and counted
	s.Flush(context.Background())
	row("after churn")

	// A deterministic anneal budget, applied in-pipeline like any other
	// mutation.
	enqueue(serve.AnnealStep(5000, 7))
	s.Flush(context.Background())
	row("after anneal")

	t.Render(os.Stdout)

	applied, rejected := s.Counts()
	fmt.Printf("\nprocessed %d mutations: %d applied, %d rejected\n",
		applied+rejected, applied, rejected)
}
