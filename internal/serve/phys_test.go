package serve_test

// End-to-end coverage for the physical (SINR) measure through the serve
// layer: a session created with measure=sinr runs the maintainer over
// the phys evaluator, persists the measure through WAL create records
// and checkpoints, and recovers to the exact pre-crash state. The graph
// default must stay byte-identical — these tests pin both sides.

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/phys"
	"repro/internal/serve"
	"repro/internal/store"
)

// physCheck asserts the snapshot's interference column equals the naive
// O(n²) physical oracle over the same node set.
func physCheck(t *testing.T, snap *serve.Snapshot) {
	t.Helper()
	pts := make([]geom.Point, len(snap.Nodes))
	radii := make([]float64, len(snap.Nodes))
	for i, nd := range snap.Nodes {
		pts[i] = geom.Pt(nd.X, nd.Y)
		radii[i] = nd.R
	}
	lv := oracle.PhysLevels(pts, radii, phys.Default())
	for i, nd := range snap.Nodes {
		if nd.I != lv[i] {
			t.Fatalf("node %d: snapshot I=%d, physical oracle says %d", nd.ID, nd.I, lv[i])
		}
	}
	if snap.Max != lv.Max() {
		t.Fatalf("snapshot Max=%d, physical oracle says %d", snap.Max, lv.Max())
	}
}

func TestSinrSessionLifecycle(t *testing.T) {
	m := serve.NewManager(serve.Config{Shards: 1})
	defer m.Close(context.Background())

	s, err := m.CreateSessionMeasure("p1", line(5), serve.MeasureSinr)
	if err != nil {
		t.Fatalf("CreateSessionMeasure: %v", err)
	}
	if s.Measure() != serve.MeasureSinr {
		t.Fatalf("Measure()=%q, want %q", s.Measure(), serve.MeasureSinr)
	}

	mustApply(t, s,
		serve.Add(0.7, 0.3),
		serve.SetRadius(1, 1.25),
		serve.Move(0, 0.05, 0.1),
		serve.AnnealStep(300, 7),
	)
	flush(t, s)
	physCheck(t, s.Snapshot())

	// A plain graph session in the same manager keeps the default.
	g := mustCreate(t, m, "g1", line(3))
	if g.Measure() != serve.MeasureGraph {
		t.Fatalf("default Measure()=%q, want %q", g.Measure(), serve.MeasureGraph)
	}

	// Unknown measures are rejected at the door.
	if _, err := m.CreateSessionMeasure("bad", line(2), "fancy"); err == nil {
		t.Fatal("unknown measure accepted")
	}
}

// TestSinrOverHTTP drives the measure through the JSON API: create with
// "measure":"sinr", mutate, and read the measure back from the summary.
// Graph summaries must not grow a measure field.
func TestSinrOverHTTP(t *testing.T) {
	c, _ := newClient(t, serve.Config{Shards: 1})

	c.want(201, "POST", "/v1/sessions",
		map[string]any{"id": "ph", "n": 16, "seed": 3, "measure": "sinr"}, nil)
	c.want(201, "POST", "/v1/sessions", map[string]any{"id": "gr", "n": 4, "seed": 1}, nil)
	c.want(400, "POST", "/v1/sessions",
		map[string]any{"id": "bad", "n": 4, "measure": "fancy"}, nil)

	c.want(202, "POST", "/v1/sessions/ph/mutations", map[string]any{
		"ops": []map[string]any{
			{"op": "set_radius", "node": 0, "r": 0.5},
			{"op": "anneal", "iters": 200, "seed": 11},
		},
	}, nil)
	c.want(200, "POST", "/v1/sessions/ph/flush", nil, nil)

	var summary map[string]any
	c.want(200, "GET", "/v1/sessions/ph", nil, &summary)
	if summary["measure"] != "sinr" {
		t.Fatalf("sinr summary measure = %v", summary["measure"])
	}
	summary = nil
	c.want(200, "GET", "/v1/sessions/gr", nil, &summary)
	if _, leaked := summary["measure"]; leaked {
		t.Fatalf("graph summary grew a measure field: %v", summary)
	}
}

// TestSinrDurableRecovery crashes a sinr session twice — once with only
// WAL records, once with a checkpoint plus tail — and demands the exact
// pre-crash state and measure back. Recover(true) cross-checks every
// recovered session against the oracle, which for sinr sessions means
// the naive physical model: recovery succeeding at all is the proof the
// measure survived the trip.
func TestSinrDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.SyncNone)
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})

	s, err := m.CreateSessionMeasure("p", line(6), serve.MeasureSinr)
	if err != nil {
		t.Fatalf("CreateSessionMeasure: %v", err)
	}
	mustApply(t, s, serve.Add(0.9, 0.4), serve.SetRadius(2, 1.5), serve.Remove(0))
	flush(t, s)
	want := snapKey(s.Snapshot())
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	// Crash 1: log-only recovery.
	st2 := openStore(t, dir, store.SyncNone)
	m2 := serve.NewManager(serve.Config{Shards: 1, Store: st2})
	rs, err := m2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Sessions != 1 || rs.FromLog != 1 || rs.Verified != 1 {
		t.Fatalf("RecoveryStats=%+v, want 1 verified session from log", rs)
	}
	s2, ok := m2.Session("p")
	if !ok {
		t.Fatal("sinr session not recovered")
	}
	if s2.Measure() != serve.MeasureSinr {
		t.Fatalf("recovered Measure()=%q, want sinr", s2.Measure())
	}
	if got := snapKey(s2.Snapshot()); got != want {
		t.Fatalf("recovered state\n got %s\nwant %s", got, want)
	}
	physCheck(t, s2.Snapshot())

	// Checkpoint, keep mutating, crash again: checkpoint + tail recovery.
	if _, err := m2.CheckpointAll(context.Background()); err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	mustApply(t, s2, serve.Move(1, 0.33, 0.66), serve.SetRadius(3, 0.75))
	flush(t, s2)
	want = snapKey(s2.Snapshot())
	if err := m2.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st3 := openStore(t, dir, store.SyncNone)
	defer st3.Close()
	m3 := serve.NewManager(serve.Config{Shards: 1, Store: st3})
	defer m3.Close(context.Background())
	rs, err = m3.Recover(true)
	if err != nil {
		t.Fatalf("Recover 2: %v", err)
	}
	if rs.FromCheckpoint != 1 || rs.Verified != 1 {
		t.Fatalf("RecoveryStats=%+v, want 1 verified session from checkpoint", rs)
	}
	s3, ok := m3.Session("p")
	if !ok {
		t.Fatal("sinr session not recovered from checkpoint")
	}
	if s3.Measure() != serve.MeasureSinr {
		t.Fatalf("checkpoint-recovered Measure()=%q, want sinr", s3.Measure())
	}
	if got := snapKey(s3.Snapshot()); got != want {
		t.Fatalf("checkpoint-recovered state\n got %s\nwant %s", got, want)
	}
	physCheck(t, s3.Snapshot())
}
