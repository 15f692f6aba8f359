package serve

import "repro/internal/dynamic"

// BatchDelta is the per-batch dirty-set summary the owner accumulates
// while applying mutations, published to Config.AfterBatchDelta so
// consumers (the subscription matcher, diff-based replication feeds)
// never have to diff consecutive snapshots. Its contract:
//
//   - Added/Removed/Moved are EXACT: a node is present in exactly one of
//     them iff its presence or position changed across the batch. Moved
//     carries both endpoints. A node added and removed within one batch
//     appears in both lists (net no-op at the boundary — consumers that
//     evaluate against the post-batch engine see it resolve to nothing).
//   - Radius is exact for client-initiated radius overrides
//     (OpSetRadius), old and new values included.
//   - Disks over-approximates everything else: every maintainer side
//     effect (a neighbor growing to answer an arrival, shrinks after a
//     departure, connectivity-repair growth) is reported as the disk
//     within which any node's received interference may have changed.
//     Every node whose radius or interference changed is covered by some
//     disk or listed above — the regression test in delta_test.go holds
//     this against a naive snapshot diff.
//   - Full marks a batch whose changes are unbounded (an anneal adopted
//     a whole new radius assignment, or drift control rebuilt the
//     topology): the lists and disks for that batch are not exhaustive
//     and consumers must re-evaluate everything.
//
// The delta (and its slices) is owned by the session and reused across
// batches: AfterBatchDelta consumers must copy anything they keep.
type BatchDelta struct {
	Added   []NodeChange
	Removed []NodeChange
	Moved   []NodeChange
	Radius  []RadiusChange
	Disks   []Disk
	Full    bool
}

// NodeChange is one presence or position change. Added entries carry the
// new position in X/Y; Removed entries the old position in OldX/OldY;
// Moved entries both.
type NodeChange struct {
	ID         int64
	X, Y       float64
	OldX, OldY float64
}

// RadiusChange is one client-initiated radius override.
type RadiusChange struct {
	ID       int64
	Old, New float64
}

// Disk is a region of potential interference change: any node within
// distance R of (X, Y) may have a different received interference after
// the batch.
type Disk struct {
	X, Y, R float64
}

// reset clears the delta for the next batch, keeping slice capacity.
func (d *BatchDelta) reset() {
	d.Added = d.Added[:0]
	d.Removed = d.Removed[:0]
	d.Moved = d.Moved[:0]
	d.Radius = d.Radius[:0]
	d.Disks = d.Disks[:0]
	d.Full = false
}

// Empty reports whether the batch recorded no changes at all.
func (d *BatchDelta) Empty() bool {
	return !d.Full && len(d.Added) == 0 && len(d.Removed) == 0 &&
		len(d.Moved) == 0 && len(d.Radius) == 0 && len(d.Disks) == 0
}

// BatchView is the argument to Config.AfterBatchDelta: the post-batch
// engine plus the batch's dirty summary and the session's external-ID
// translation. It is valid only for the duration of the hook call, on
// the session's owner goroutine — the engine and the translation
// closures must not be retained or called afterwards. A view whose
// Engine is nil is terminal: the session was dropped, and only Session
// is set.
type BatchView struct {
	// Session is the session's ID.
	Session string
	// Seq is the post-batch mutation-log position.
	Seq uint64
	// Trace is the distributed trace id of the batch (0 = untraced);
	// consumers stamp it onto whatever they emit so one trace covers
	// mutation ingress through event delivery.
	Trace uint64
	// Engine is the session's live engine, positioned after the batch.
	Engine dynamic.Engine
	// Delta is the batch's dirty summary (owned by the session; copy to
	// keep).
	Delta *BatchDelta
	// IDOf translates an engine index to the stable external node ID
	// (valid for 0 <= idx < Engine.N()).
	IDOf func(idx int) int64
	// IdxOf translates an external node ID to its current engine index.
	IdxOf func(id int64) (int, bool)
}
