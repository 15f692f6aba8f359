package main

// recover: set-up writes a seed-determined log through a WAL-backed
// manager with pinned batches (Session.ApplyBatch), mostly Move and
// SetRadius with a share of Add and Remove, and stops without a final
// checkpoint. Timed: Manager.Recover into a fresh manager, then a fresh
// follower catching up from cursor zero over a loopback repl feed. It
// uses the store layer for reads (scan, decode, replay) plus repl
// streaming and follower apply; because the log is fixed by the seed,
// the replay work is the same on every run.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	recN         = 4096
	recSide      = 25.6
	recBatches   = 160
	recBatchOps  = 32
	recSets      = 15 // SetRadius per batch; the rest are Moves
	recJoinEvery = 8  // every 8th batch trades a SetRadius for one Add and one Remove
	recMinReps   = 3
	catchupWait  = 60 * time.Second
)

var recSetups atomic.Int64

type recoverWL struct {
	e        *env
	tr       *tracer
	dir      string // the pristine log
	pts      []geom.Point
	batches  [][]serve.Mutation
	muts     int               // mutations applied while writing the log
	logged   int               // mutations in the log
	final    []serve.NodeState // the leader's state when the log stopped
	rebuilds int               // maintainer rebuilds while writing the log

	problems []string
}

func setupRecover(e *env, tr *tracer) (instance, error) {
	w := &recoverWL{e: e, tr: tr, dir: filepath.Join(e.work, fmt.Sprintf("log-%d", recSetups.Add(1)))}
	rng := rand.New(rand.NewSource(e.seed))
	w.pts = gen.UniformSquare(rng, recN, recSide)
	st, err := store.Open(store.Options{Dir: w.dir, Sync: store.SyncBatch, Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	mgr := serve.NewManager(serve.Config{QueueCap: queueCap, BatchCap: batchCap, Store: st})
	defer func() {
		// Stop without a final checkpoint: the drain writes one, which is
		// deleted again, leaving the log as a crash after its last batch
		// would.
		mgr.Close(context.Background())
		if err := st.DeleteCheckpoints(session); err != nil {
			w.problems = append(w.problems, fmt.Sprintf("delete checkpoints: %v", err))
		}
		st.Close()
	}()
	s, err := mgr.CreateSession(session, w.pts)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, recN) // external ids in engine-index order
	for i := range ids {
		ids[i] = int64(i)
	}
	for b := 0; b < recBatches; b++ {
		// Fixed op counts per batch keep the replay work the same across
		// seeds; the seed picks targets, positions, radii and order.
		kinds := make([]serve.Op, 0, recBatchOps)
		joins := 0
		if b%recJoinEvery == recJoinEvery-1 {
			joins = 1
			kinds = append(kinds, serve.OpAdd, serve.OpRemove)
		}
		for k := 0; k < recSets-joins; k++ {
			kinds = append(kinds, serve.OpSetRadius)
		}
		for len(kinds) < recBatchOps {
			kinds = append(kinds, serve.OpMove)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		batch := make([]serve.Mutation, 0, recBatchOps)
		removed := map[int64]bool{}
		pick := func() int64 {
			for {
				if id := ids[rng.Intn(len(ids))]; !removed[id] {
					return id
				}
			}
		}
		for _, k := range kinds {
			switch k {
			case serve.OpAdd:
				batch = append(batch, serve.Add(rng.Float64()*recSide, rng.Float64()*recSide))
			case serve.OpRemove:
				id := pick()
				removed[id] = true
				batch = append(batch, serve.Remove(id))
			case serve.OpSetRadius:
				batch = append(batch, serve.SetRadius(pick(), 0.05+rng.Float64()*0.45))
			default:
				batch = append(batch, serve.Move(pick(), rng.Float64()*recSide, rng.Float64()*recSide))
			}
		}
		got, err := s.ApplyBatch(append([]serve.Mutation(nil), batch...))
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		// Mirror the session's id bookkeeping: adds append, removes
		// shift. The recorded batch carries the assigned ids so the
		// direct dynamic replay can address nodes the same way.
		a := 0
		for i := range batch {
			switch batch[i].Op {
			case serve.OpAdd:
				batch[i].Node = got[a]
				a++
				ids = append(ids, batch[i].Node)
			case serve.OpRemove:
				for j, id := range ids {
					if id == batch[i].Node {
						ids = append(ids[:j], ids[j+1:]...)
						break
					}
				}
			}
		}
		w.batches = append(w.batches, batch)
		w.muts += len(batch)
		if b%16 == 15 {
			if err := s.Flush(context.Background()); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Flush(context.Background()); err != nil {
		return nil, err
	}
	snap := s.Snapshot()
	w.final = append([]serve.NodeState(nil), snap.Nodes...)
	w.rebuilds = snap.Rebuilds
	return w, nil
}

// repOut is one timed recovery and catch-up.
type repOut struct {
	recover, catchup       time.Duration // wall time
	recoverCPU, catchupCPU time.Duration // process CPU time
	readNs, readB          int64
	batchBusy              time.Duration // recovered manager, inside batches
	followerBusy           time.Duration // follower manager, inside batches
	followerBatches        int
	feed                   connCounts
	followerFS             fsCounts
}

func (w *recoverWL) run(d time.Duration) (*phase, error) {
	var reps []repOut
	var probes *recProbes
	if w.tr != nil {
		probes = newRecProbes(w.tr)
	}
	deadline := time.Now().Add(d)
	for i := 0; len(reps) < recMinReps || time.Now().Before(deadline); i++ {
		r, err := w.rep(i, probes)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	// Recovery and catch-up are CPU-bound; they are scored in process
	// CPU time, which host CPU steal does not inflate (WORKLOADS.md).
	var rec, recCPU, cat, rate, rateCPU []float64
	for _, r := range reps {
		rec = append(rec, r.recover.Seconds()*1e3)
		recCPU = append(recCPU, r.recoverCPU.Seconds()*1e3)
		cat = append(cat, r.catchup.Seconds()*1e3)
		rate = append(rate, float64(w.logged)/r.catchup.Seconds())
		rateCPU = append(rateCPU, float64(w.logged)/r.catchupCPU.Seconds())
	}
	ph := &phase{attempted: int64(len(reps)) * 2, failed: 0, e2e: map[string]float64{
		"rate_per_s": median(rateCPU),
		"time_ms":    median(recCPU),
	}}
	ph.notes = append(ph.notes,
		fmt.Sprintf("Recover CPU = %.1f ms; catch-up = %.1f mutations per CPU-second (medians of %d reps; %d mutations in %d batches)",
			median(recCPU), median(rateCPU), len(reps), w.logged, len(w.batches)),
		fmt.Sprintf("recovery_s = %.4f s, repl_catchup_muts_per_s = %.1f 1/s (wall clock, medians; not gated)",
			median(rec)/1e3, median(rate)),
		fmt.Sprintf("per rep: Recover wall ms %.1f, CPU ms %.1f; catch-up wall ms %.1f; maintainer rebuilds while writing the log: %d",
			rec, recCPU, cat, w.rebuilds))
	if probes == nil {
		return ph, nil
	}
	m := map[string]float64{}
	probes.layer(m, w, reps)
	dyn, err := w.replayDynamic(m)
	if err != nil {
		return nil, err
	}
	ph.notes = append(ph.notes, dyn...)
	ph.layer = m
	return ph, nil
}

// recProbes are the traced run's probes; each rep installs them on fresh
// managers and stores.
type recProbes struct {
	eng      *engineProbe // recovered manager's engines
	batches  *batchProbe  // recovered manager's batches
	fs       *fsProbe     // recovered store
	fengine  *engineProbe // follower's engines
	fbatches *batchProbe
	ffs      *fsProbe
	feed     *connProbe
}

func newRecProbes(tr *tracer) *recProbes {
	p := &recProbes{feed: &connProbe{}}
	p.batches = newBatchProbe(tr, nil, nil, nil)
	p.eng = newEngineProbe(tr, "core", &p.batches.cur)
	p.batches.eng = p.eng
	p.fs = &fsProbe{tr: tr}
	p.batches.fs = p.fs
	p.fbatches = newBatchProbe(tr, nil, nil, nil)
	p.fengine = newEngineProbe(tr, "core", &p.fbatches.cur)
	p.fbatches.eng = p.fengine
	p.ffs = &fsProbe{tr: tr, parent: &p.fbatches.cur}
	p.fbatches.fs = p.ffs
	return p
}

// rep copies the pristine log, recovers it into a fresh manager and
// lets a fresh follower catch up from cursor zero. Only Recover and the
// catch-up are timed.
func (w *recoverWL) rep(i int, p *recProbes) (repOut, error) {
	var out repOut
	ldir := filepath.Join(w.e.work, fmt.Sprintf("rep-%d-leader", i))
	fdir := filepath.Join(w.e.work, fmt.Sprintf("rep-%d-follower", i))
	defer os.RemoveAll(ldir)
	defer os.RemoveAll(fdir)
	if err := copyTree(w.dir, ldir); err != nil {
		return out, err
	}
	lopts := store.Options{Dir: ldir, Sync: store.SyncBatch, Registry: obs.NewRegistry()}
	lcfg := serve.Config{QueueCap: queueCap, BatchCap: batchCap}
	fopts := store.Options{Dir: fdir, Sync: store.SyncBatch, Registry: obs.NewRegistry()}
	fcfg := serve.Config{QueueCap: queueCap, BatchCap: batchCap, NoCoalesce: true}
	var fs0, ffs0 fsCounts
	var feed0 connCounts
	var busy0, fbusy0 int64
	var fb0 int
	if p != nil {
		lopts.FS = timedFS{FS: store.OSFS{}, p: p.fs}
		lcfg.Engine = p.eng.factory(core.GraphMeasure)
		p.batches.install(&lcfg)
		fopts.FS = timedFS{FS: store.OSFS{}, p: p.ffs}
		fcfg.Engine = p.fengine.factory(core.GraphMeasure)
		p.fbatches.install(&fcfg)
		fs0, ffs0, feed0 = p.fs.counts(), p.ffs.counts(), p.feed.counts()
		busy0, fbusy0, fb0 = p.batches.busy(), p.fbatches.busy(), len(p.fbatches.batches())
	}
	lst, err := store.Open(lopts)
	if err != nil {
		return out, err
	}
	defer lst.Close()
	lcfg.Store = lst
	lmgr := serve.NewManager(lcfg)
	defer lmgr.Close(context.Background())

	t0, c0 := time.Now(), cpuTime()
	rs, err := lmgr.Recover(true)
	out.recover, out.recoverCPU = time.Since(t0), cpuTime()-c0
	if err != nil {
		return out, fmt.Errorf("recover: %w", err)
	}
	// The leader coalesced repeated SetRadius calls within a batch before
	// logging it, so the log holds at most w.muts mutations.
	if w.logged == 0 {
		w.logged = rs.ReplayedMutations
	}
	if rs.Sessions != 1 || rs.ReplayedBatches != len(w.batches) || rs.ReplayedMutations != w.logged {
		return out, fmt.Errorf("recovered %+v, want 1 session, %d batches, %d mutations", rs, len(w.batches), w.logged)
	}
	if p != nil {
		c := p.fs.counts()
		out.readNs, out.readB = c.readNs-fs0.readNs, c.readBytes-fs0.readBytes
		out.batchBusy = time.Duration(p.batches.busy() - busy0)
	}

	lcfgRepl := repl.LeaderConfig{Store: lst, NodeID: "leader", Epoch: 1, Registry: obs.NewRegistry()}
	if p != nil {
		lcfgRepl.WrapConn = p.feed.wrap
	}
	ldr := repl.NewLeader(lcfgRepl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	served := make(chan error, 1)
	go func() { served <- ldr.Serve(ln) }()
	defer func() {
		ldr.Close()
		ln.Close()
		<-served
	}()

	fst, err := store.Open(fopts)
	if err != nil {
		return out, err
	}
	defer fst.Close()
	fcfg.Store = fst
	fmgr := serve.NewManager(fcfg)
	defer fmgr.Close(context.Background())
	fol, err := repl.NewFollower(repl.FollowerConfig{Manager: fmgr, NodeID: "follower",
		LeaderAddr: ln.Addr().String(), Epoch: 1, Registry: obs.NewRegistry()})
	if err != nil {
		return out, err
	}
	tail := lst.ReplTail()
	t1, c1 := time.Now(), cpuTime()
	ran := make(chan error, 1)
	go func() { ran <- fol.Run() }()
	defer func() {
		fol.Stop()
		<-ran
	}()
	for limit := t1.Add(catchupWait); fol.Cursor() != tail; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(limit) {
			return out, fmt.Errorf("follower stuck at %v, want %v", fol.Cursor(), tail)
		}
	}
	fs, ok := fmgr.Session(session)
	if !ok {
		return out, fmt.Errorf("follower has no session")
	}
	if err := fs.Flush(context.Background()); err != nil {
		return out, err
	}
	out.catchup, out.catchupCPU = time.Since(t1), cpuTime()-c1
	if p != nil {
		out.followerBusy = time.Duration(p.fbatches.busy() - fbusy0)
		out.followerBatches = len(p.fbatches.batches()) - fb0
		out.feed = p.feed.counts()
		out.feed.reads -= feed0.reads
		out.feed.readBytes -= feed0.readBytes
		out.feed.writes -= feed0.writes
		out.feed.writeBytes -= feed0.writeBytes
		c := p.ffs.counts()
		out.followerFS = fsCounts{writes: c.writes - ffs0.writes, writeBytes: c.writeBytes - ffs0.writeBytes}
	}
	if st := fol.Stats(); st.Gaps != 0 || st.Resyncs != 0 {
		w.problems = append(w.problems, fmt.Sprintf("rep %d: follower stream not clean: %+v", i, st))
	}
	ls, _ := lmgr.Session(session)
	w.problems = append(w.problems, compareState(fmt.Sprintf("rep %d recovered", i), ls.Snapshot().Nodes, w.final)...)
	w.problems = append(w.problems, compareState(fmt.Sprintf("rep %d follower", i), fs.Snapshot().Nodes, w.final)...)
	return out, nil
}

// compareState reports where got differs from want, node by node.
func compareState(what string, got, want []serve.NodeState) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%s: %d nodes, want %d", what, len(got), len(want))}
	}
	diff := 0
	for i := range got {
		if got[i] != want[i] {
			diff++
		}
	}
	if diff > 0 {
		return []string{fmt.Sprintf("%s: %d nodes differ from the leader's final state", what, diff)}
	}
	return nil
}

func (p *recProbes) layer(m map[string]float64, w *recoverWL, reps []repOut) {
	var readS, readMB, feedB, feedW, fshare, fwrites, fbatches, recBusy, recWall []float64
	for _, r := range reps {
		readS = append(readS, float64(r.readNs)/1e9)
		readMB = append(readMB, float64(r.readB)/1e6)
		feedB = append(feedB, float64(r.feed.writeBytes)/float64(w.logged))
		if r.feed.writes > 0 {
			feedW = append(feedW, float64(w.logged)/float64(r.feed.writes))
		}
		fshare = append(fshare, r.followerBusy.Seconds()/r.catchup.Seconds())
		fwrites = append(fwrites, float64(r.followerFS.writes))
		fbatches = append(fbatches, float64(r.followerBatches))
		recBusy = append(recBusy, r.batchBusy.Seconds())
		recWall = append(recWall, r.recover.Seconds())
	}
	m["store.read_s"] = median(readS)
	m["store.read_mb"] = median(readMB)
	m["store.bytes_per_mutation"] = median(readMB) * 1e6 / float64(w.logged)
	if fb := median(fbatches); fb > 0 {
		m["store.writes_per_batch"] = median(fwrites) / fb
	}
	m["store.sync_p50_us"] = pct(p.ffs.syncs.sorted(), 50)
	m["repl.bytes_per_mutation"] = median(feedB)
	m["repl.mutations_per_write"] = median(feedW)
	m["repl.follower_apply_share"] = median(fshare)
	p.batches.layerMetrics(m)
	if nb := m["serve.batches"]; nb > 0 {
		m["serve.ops_per_batch"] = float64(w.logged*len(reps)) / nb
	}
	// What Recover spends outside its replayed batches and outside reads
	// is mostly per-record decode.
	if wall := median(recWall); wall > 0 {
		m["serve.recover_outside_batch_share"] = 1 - (median(recBusy)+median(readS))/wall
	}
	engineLayer(m, "core", p.eng)
	m["core.calls_per_mutation"] = float64(p.eng.calls.Load()) / float64(w.logged*len(reps))
}

// replayDynamic replays the log's batches straight through
// dynamic.Maintainer's public calls, timing each, and checks that it
// lands on the leader's final interference.
func (w *recoverWL) replayDynamic(m map[string]float64) ([]string, error) {
	mt := dynamic.NewWithEngine(w.pts, 0, core.GraphMeasure)
	idx := make(map[int64]int, recN) // external id -> engine index
	ids := make([]int64, recN)
	for i := range ids {
		ids[i] = int64(i)
		idx[int64(i)] = i
	}
	var ins, rem, mov, set, end samples
	for _, batch := range w.batches {
		mt.BeginBatch()
		for _, mu := range batch {
			t := time.Now()
			switch mu.Op {
			case serve.OpAdd:
				idx[mu.Node] = mt.Insert(geom.Pt(mu.X, mu.Y))
				ids = append(ids, mu.Node)
				ins.add(time.Since(t))
			case serve.OpRemove:
				i := idx[mu.Node]
				mt.Remove(i)
				rem.add(time.Since(t))
				delete(idx, mu.Node)
				ids = append(ids[:i], ids[i+1:]...)
				for j := i; j < len(ids); j++ {
					idx[ids[j]] = j
				}
			case serve.OpMove:
				mt.Move(idx[mu.Node], geom.Pt(mu.X, mu.Y))
				mov.add(time.Since(t))
			case serve.OpSetRadius:
				mt.SetRadius(idx[mu.Node], mu.R)
				set.add(time.Since(t))
			}
		}
		t := time.Now()
		mt.EndBatch()
		end.add(time.Since(t))
	}
	m["dynamic.insert_p50_us"] = pct(ins.sorted(), 50)
	m["dynamic.remove_p50_us"] = pct(rem.sorted(), 50)
	m["dynamic.move_p50_us"] = pct(mov.sorted(), 50)
	m["dynamic.endbatch_p50_us"] = pct(end.sorted(), 50)
	m["dynamic.rebuilds"] = float64(mt.Rebuilds())
	all := ins.sum() + rem.sum() + mov.sum() + set.sum() + end.sum()
	joinLeave := (ins.sum() + rem.sum()) / all
	m["dynamic.joinleave_share"] = joinLeave
	var leader int
	for _, nd := range w.final {
		leader = max(leader, nd.I)
	}
	if got := mt.Interference(); got != leader {
		w.problems = append(w.problems, fmt.Sprintf("direct dynamic replay ends at I=%d, leader at %d", got, leader))
	}
	return []string{fmt.Sprintf("direct replay: joins and leaves take %.1f%% of maintainer time (%d of %d mutations)",
		100*joinLeave, len(ins.v)+len(rem.v), w.muts)}, nil
}

func (w *recoverWL) check() []string { return w.problems }

func (w *recoverWL) close() { os.RemoveAll(w.dir) }

// copyTree copies a store directory (wal/, ckpt/) to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
