package serve

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/obs"
)

// Op enumerates the mutation kinds a session pipeline applies.
type Op uint8

const (
	OpAdd Op = iota + 1
	OpRemove
	OpMove
	OpSetRadius
	OpAnneal
)

// String names the op as it appears in log dumps and the HTTP API.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpMove:
		return "move"
	case OpSetRadius:
		return "set"
	case OpAnneal:
		return "anneal"
	}
	return "unknown"
}

// opFromString inverts Op.String (also accepting the HTTP API's
// "set_radius" spelling).
func opFromString(s string) (Op, bool) {
	switch s {
	case "add":
		return OpAdd, true
	case "remove":
		return OpRemove, true
	case "move":
		return OpMove, true
	case "set", "set_radius":
		return OpSetRadius, true
	case "anneal":
		return OpAnneal, true
	}
	return 0, false
}

// Mutation is one pipeline operation. Node addresses the stable external
// node ID (not the engine index); for OpAdd a negative Node requests
// automatic assignment — use the constructors below, whose zero-valued
// fields are always safe.
type Mutation struct {
	Op    Op
	Node  int64   // target ID; for OpAdd: -1 = assign, >= 0 = forced (replay)
	X, Y  float64 // OpAdd, OpMove
	R     float64 // OpSetRadius
	Iters int     // OpAnneal
	Seed  int64   // OpAnneal

	// TC carries the distributed trace context of the request that
	// enqueued this mutation (nil = untraced); the batch that drains it
	// adopts the first traced mutation's context. EnqNS is the enqueue
	// wall clock, stamped by Apply while observability is on — the
	// flight recorder's queue-wait stage. Neither field is part of the
	// op encoding (codec.go): a WAL batch record carries the batch's
	// context once, in its fixed trace stamp (see logBatch).
	TC    *obs.TraceContext
	EnqNS int64
}

// Add enqueues a new node at (x, y) with an automatically assigned ID.
func Add(x, y float64) Mutation { return Mutation{Op: OpAdd, Node: -1, X: x, Y: y} }

// Remove deletes node id.
func Remove(id int64) Mutation { return Mutation{Op: OpRemove, Node: id} }

// Move relocates node id to (x, y), keeping its ID.
func Move(id int64, x, y float64) Mutation { return Mutation{Op: OpMove, Node: id, X: x, Y: y} }

// SetRadius overrides node id's transmission radius.
func SetRadius(id int64, r float64) Mutation { return Mutation{Op: OpSetRadius, Node: id, R: r} }

// AnnealStep runs a deterministic simulated-annealing budget over the
// whole instance, adopting the result.
func AnnealStep(iters int, seed int64) Mutation {
	return Mutation{Op: OpAnneal, Iters: iters, Seed: seed}
}

// checkCoord rejects non-finite or out-of-bound coordinates. The bound
// matters operationally: the spatial index allocates cells over the
// instance's bounding box, so a single coordinate at 1e9 would make one
// cheap mutation allocate gigabytes.
func checkCoord(x, y, maxCoord float64) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.Abs(f) > maxCoord }
	if bad(x) || bad(y) {
		return fmt.Errorf("coordinates (%v, %v) outside [-%g, %g]", x, y, maxCoord, maxCoord)
	}
	return nil
}

// maxAnnealIters caps the per-mutation anneal budget.
const maxAnnealIters = 100_000

// validate rejects malformed mutations at enqueue time, so the owner
// goroutine never has to crash on garbage (NaN or far-flung coordinates,
// negative radii, anneal budgets outside (0, maxAnnealIters]).
func (mu Mutation) validate(maxCoord float64) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	switch mu.Op {
	case OpAdd, OpMove:
		if err := checkCoord(mu.X, mu.Y, maxCoord); err != nil {
			return fmt.Errorf("serve: %s with %w", mu.Op, err)
		}
	case OpSetRadius:
		if bad(mu.R) || mu.R < 0 {
			return fmt.Errorf("serve: set radius %v out of range", mu.R)
		}
	case OpAnneal:
		if mu.Iters <= 0 || mu.Iters > maxAnnealIters {
			return fmt.Errorf("serve: anneal iters %d outside (0, %d]", mu.Iters, maxAnnealIters)
		}
	case OpRemove:
	default:
		return fmt.Errorf("serve: unknown op %d", mu.Op)
	}
	return nil
}

// coalesce collapses redundant mutations within one drained batch: only
// the last set-radius per node survives. Dropping the earlier writes is
// sound because intermediate states inside a batch are unobservable
// (snapshots publish at batch boundaries only), radius overrides trigger
// no rebuilds, and the anneal step derives from positions alone. The
// WAL records the batch after coalescing, so replay never needs the
// dropped writes. Pinned batches (ApplyBatch, replication, recovery)
// are never coalesced: they already are a recorded batch, and its
// mutation count is its seq advance.
func coalesce(batch []Mutation) []Mutation {
	lastSet := make(map[int64]int)
	sets := 0
	for i, mu := range batch {
		if mu.Op == OpSetRadius {
			lastSet[mu.Node] = i
			sets++
		}
	}
	if sets <= len(lastSet) {
		return batch
	}
	out := batch[:0]
	for i, mu := range batch {
		if mu.Op == OpSetRadius && lastSet[mu.Node] != i {
			continue
		}
		out = append(out, mu)
	}
	return out
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
