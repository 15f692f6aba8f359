package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sub"
	"repro/internal/wire"
)

// Stack settings shared by the serving workloads: rimd's defaults.
const (
	queueCap   = 1024
	batchCap   = 256
	hubQueue   = 1 << 15
	wireConns  = 2
	session    = "bench"
	closeGrace = 30 * time.Second
)

// stack is the serving side of rimd in-process: a manager with a
// subscription hub attached, an optional WAL-backed store, and a wire
// server on a loopback port, plus one pooled client.
type stack struct {
	mgr    *serve.Manager
	hub    *sub.Hub
	st     *store.Store
	srv    *wire.Server
	served chan error
	c      *wire.Client

	// traced runs only
	eng     *engineProbe
	fs      *fsProbe
	batches *batchProbe
	conns   *connProbe
}

// stackOpts selects the optional parts of a stack.
type stackOpts struct {
	dataDir string          // "" = in-memory
	onEvent func(sub.Event) // client push handler
}

func newStack(tr *tracer, o stackOpts) (*stack, error) {
	s := &stack{hub: sub.NewHub(sub.Config{QueueCap: hubQueue, Registry: obs.NewRegistry()})}
	cfg := serve.Config{QueueCap: queueCap, BatchCap: batchCap, AfterBatchDelta: s.hub.AfterBatchDelta}
	if tr != nil {
		s.batches = newBatchProbe(tr, nil, nil, s.hub)
		s.eng = newEngineProbe(tr, "core", &s.batches.cur)
		s.batches.eng = s.eng
		cfg.Engine = s.eng.factory(core.GraphMeasure)
		s.batches.install(&cfg)
	}
	if o.dataDir != "" {
		opts := store.Options{Dir: o.dataDir, Sync: store.SyncBatch, Registry: obs.NewRegistry()}
		if tr != nil {
			s.fs = &fsProbe{tr: tr, parent: &s.batches.cur}
			s.batches.fs = s.fs
			opts.FS = timedFS{FS: store.OSFS{}, p: s.fs}
		}
		st, err := store.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		s.st = st
		cfg.Store = st
	}
	s.mgr = serve.NewManager(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		s.conns = &connProbe{}
		ln = countingListener{Listener: ln, p: s.conns}
	}
	s.srv = wire.NewServer(wire.ServerConfig{Manager: s.mgr, Hub: s.hub, Registry: obs.NewRegistry()})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.c, err = wire.Dial(wire.ClientConfig{Addr: addr, Conns: wireConns, OnEvent: o.onEvent})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return s, nil
}

// close stops the client, the server (waiting for its accept loop), the
// manager and the store, in that order.
func (s *stack) close() {
	if s.c != nil {
		s.c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	if s.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
		s.mgr.Close(ctx)
		cancel()
	}
	if s.st != nil {
		s.st.Close()
	}
}

// checkSession flushes the session and compares its published state,
// read over the wire, with internal/oracle recomputed from the same
// points and radii. want is the expected node count.
func (s *stack) checkSession(want int) []string {
	if _, err := s.c.Flush(session); err != nil {
		return []string{fmt.Sprintf("flush: %v", err)}
	}
	_, nodes, err := s.c.Nodes(session, nil)
	if err != nil {
		return []string{fmt.Sprintf("nodes: %v", err)}
	}
	sum, err := s.c.Summary(session)
	if err != nil {
		return []string{fmt.Sprintf("summary: %v", err)}
	}
	return checkNodes(nodes, int(sum.Max), want)
}

// checkNodes compares per-node interference and the maximum against
// the oracle over the nodes' own points and radii.
func checkNodes(nodes []wire.Node, max, want int) []string {
	var bad []string
	if len(nodes) != want {
		bad = append(bad, fmt.Sprintf("session holds %d nodes, want %d", len(nodes), want))
	}
	pts, radii := nodePoints(nodes)
	iv := oracle.Interference(pts, radii)
	if iv.Max() != max {
		bad = append(bad, fmt.Sprintf("session max I=%d, oracle %d", max, iv.Max()))
	}
	wrong := 0
	for i, nd := range nodes {
		if int(nd.I) != iv[i] {
			wrong++
		}
	}
	if wrong > 0 {
		bad = append(bad, fmt.Sprintf("%d nodes disagree with the oracle's I(v)", wrong))
	}
	return bad
}

// subLayer fills the sub.* metrics from hub counter deltas and the
// probe's matcher timings.
func subLayer(m map[string]float64, b *batchProbe, before, after sub.Stats) {
	ms := b.match.sorted()
	m["sub.match_p50_us"] = pct(ms, 50)
	m["sub.match_p99_us"], _, _, _ = tailAt(ms, 99)
	checked := float64(after.Checked - before.Checked)
	if n := float64(after.Batches - before.Batches); n > 0 {
		m["sub.checks_per_batch"] = checked / n
	}
	if checked > 0 {
		m["sub.events_per_check"] = float64(after.Events-before.Events) / checked
	}
	m["sub.dropped"] = float64(after.Dropped - before.Dropped)
}

// engineLayer fills the per-call engine metrics of layer ("core" or
// "phys") from p.
func engineLayer(m map[string]float64, layer string, p *engineProbe) {
	p50 := func(op engineOp) float64 { return pct(p.ops[op].sorted(), 50) }
	m[layer+".setradius_p50_us"] = p50(opSetRadius)
	switch layer {
	case "core":
		m["core.move_p50_us"] = p50(opMovePoint)
		m["core.addpoint_p50_us"] = p50(opAddPoint)
		m["core.removepoint_p50_us"] = p50(opRemovePoint)
	case "phys":
		m["phys.growto_p50_us"] = p50(opGrowTo)
		m["phys.restore_p50_us"] = p50(opRestore)
	}
}

// nodePoints splits wire node records into points and radii, in the
// session's index order.
func nodePoints(nodes []wire.Node) ([]geom.Point, []float64) {
	pts := make([]geom.Point, len(nodes))
	radii := make([]float64, len(nodes))
	for i, nd := range nodes {
		pts[i] = geom.Pt(nd.X, nd.Y)
		radii[i] = nd.R
	}
	return pts, radii
}
