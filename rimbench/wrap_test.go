package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/phys"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wire"
)

// replayOverWire drives a short seeded mutation log through a stack (a
// traced one when tr is set: engine decorator, store.FS wrapper,
// counting listener, batch hooks) and returns the final node states.
// Each frame is flushed before the next, so each lands as one batch.
func replayOverWire(t *testing.T, tr *tracer, dir string) []wire.Node {
	t.Helper()
	s, err := newStack(tr, stackOpts{dataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rng := rand.New(rand.NewSource(7))
	const n, side = 300, 4.0
	if _, err := s.c.Create(session, gen.UniformSquare(rng, n, side)); err != nil {
		t.Fatal(err)
	}
	live := n
	for i := 0; i < 60; i++ {
		var ops []serve.Mutation
		for k := 0; k < 4; k++ {
			switch x := rng.Float64(); {
			case x < 0.05:
				ops = append(ops, serve.Add(rng.Float64()*side, rng.Float64()*side))
				live++
			case x < 0.5:
				ops = append(ops, serve.SetRadius(int64(rng.Intn(n)), rng.Float64()*0.4))
			default:
				ops = append(ops, serve.Move(int64(rng.Intn(n)), rng.Float64()*side, rng.Float64()*side))
			}
		}
		if _, err := s.c.Mutate(session, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := s.c.Flush(session); err != nil {
			t.Fatal(err)
		}
	}
	if bad := s.checkSession(live); len(bad) > 0 {
		t.Fatalf("session disagrees with the oracle: %v", bad)
	}
	_, nodes, err := s.c.Nodes(session, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// recoverNodes recovers the store in dir into a fresh manager, through
// the timed FS wrapper when wrapped is set.
func recoverNodes(t *testing.T, dir string, wrapped bool) []serve.NodeState {
	t.Helper()
	opts := store.Options{Dir: dir, Sync: store.SyncBatch, Registry: obs.NewRegistry()}
	var p *fsProbe
	if wrapped {
		p = &fsProbe{tr: newTracer(time.Now())}
		opts.FS = timedFS{FS: store.OSFS{}, p: p}
	}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr := serve.NewManager(serve.Config{Store: st})
	defer mgr.Close(context.Background())
	if _, err := mgr.Recover(true); err != nil {
		t.Fatal(err)
	}
	if wrapped && p.counts().readBytes == 0 {
		t.Error("the FS wrapper saw no reads during recovery")
	}
	s, ok := mgr.Session(session)
	if !ok {
		t.Fatal("no session recovered")
	}
	return append([]serve.NodeState(nil), s.Snapshot().Nodes...)
}

func TestWrappersAreTransparent(t *testing.T) {
	tmp := t.TempDir()
	plainDir, tracedDir := filepath.Join(tmp, "plain"), filepath.Join(tmp, "traced")
	tr := newTracer(time.Now())
	plain := replayOverWire(t, nil, plainDir)
	traced := replayOverWire(t, tr, tracedDir)
	if len(plain) != len(traced) {
		t.Fatalf("plain run ends with %d nodes, traced run with %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("node %d: plain %+v, traced %+v", i, plain[i], traced[i])
		}
	}
	if len(tr.spans) == 0 {
		t.Error("the traced run recorded no spans")
	}

	a, b := recoverNodes(t, plainDir, false), recoverNodes(t, tracedDir, true)
	if len(a) != len(b) || len(a) != len(plain) {
		t.Fatalf("recovered %d and %d nodes, want %d", len(a), len(b), len(plain))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recovered node %d: plain %+v, through the wrapper %+v", i, a[i], b[i])
		}
	}
}

func TestMeasureDecoratorIsTransparent(t *testing.T) {
	pts := gen.UniformSquare(rand.New(rand.NewSource(3)), 200, 3)
	tr := newTracer(time.Now())
	for _, c := range []struct {
		layer string
		f     core.MeasureFactory
	}{{"core", core.GraphMeasure}, {"phys", phys.NewMeasure}} {
		p := newEngineProbe(tr, c.layer, nil)
		want := opt.AnnealWith(c.f, pts, rand.New(rand.NewSource(9)), 300)
		got := opt.AnnealWith(p.factory(c.f), pts, rand.New(rand.NewSource(9)), 300)
		if !sameResult(got, want) {
			t.Errorf("%s: decorated anneal I=%d, plain I=%d (or radii differ)", c.layer, got.Interference, want.Interference)
		}
		if p.mutates.Load() == 0 || p.calls.Load() <= p.mutates.Load() {
			t.Errorf("%s: probe counted %d calls, %d timed", c.layer, p.calls.Load(), p.mutates.Load())
		}
	}
}

func sameResult(a, b opt.Result) bool {
	if a.Interference != b.Interference || len(a.Radii) != len(b.Radii) {
		return false
	}
	for i := range a.Radii {
		if a.Radii[i] != b.Radii[i] {
			return false
		}
	}
	return true
}
