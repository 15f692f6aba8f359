package main

// Probes for the traced run. Every probe sits outside the program: a
// core.Measure decorator handed in as an engine factory, a store.FS
// wrapper handed in as store.Options.FS, net.Conn/net.Listener wrappers
// handed to the wire server and the replication feed, and functions
// installed as serve's batch hooks. None of them changes what the
// wrapped code computes (wrap_test.go checks that), only what it costs.

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sub"
)

// maxSpans bounds the in-memory span log; later spans are counted, not
// kept.
const maxSpans = 1 << 18

// maxSamples bounds each per-call sample slice.
const maxSamples = 1 << 21

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's base. Trace groups the spans of one batch or call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps a traced run's spans in memory; writeFile dumps them when
// the run ends.
type tracer struct {
	base    time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// at converts a wall time to the tracer's nanosecond clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.base)) }

func (t *tracer) nextID() uint64 { return t.ids.Add(1) }

// record keeps one span; id 0 allocates a fresh one. It returns the id.
func (t *tracer) record(id uint64, name string, parent, trace uint64, start, end time.Time) uint64 {
	if id == 0 {
		id = t.nextID()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
			Start: t.at(start), Dur: int64(end.Sub(start))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return id
}

// writeFile writes the spans as JSON lines, followed by one summary
// line with the count of spans that did not fit in memory.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	err = enc.Encode(map[string]int64{"kept": int64(len(t.spans)), "dropped": t.dropped})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// samples is a bounded, lock-protected list of durations in µs.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	if len(s.v) < maxSamples {
		s.v = append(s.v, float64(d)/1e3)
	}
	s.mu.Unlock()
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sorted(s.v)
}

func (s *samples) sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t float64
	for _, x := range s.v {
		t += x
	}
	return t
}

// ---- engine (core / phys) ----

// engineOp names the engine calls the probe times. The remaining
// methods are cheap reads and are only counted.
type engineOp int

const (
	opSetRadius engineOp = iota
	opGrowTo
	opSnapshot
	opRestore
	opAddPoint
	opRemovePoint
	opMovePoint
	opBatchSet
	nEngineOps
)

var engineOpNames = [nEngineOps]string{"set_radius", "grow_to", "snapshot", "restore",
	"add_point", "remove_point", "move_point", "batch_set"}

// engineProbe times the calls made through timedMeasure decorators.
type engineProbe struct {
	tr     *tracer
	names  [nEngineOps]string // span names, prefixed by layer
	parent *atomic.Uint64     // id of the enclosing span, if any

	calls    atomic.Int64 // every call, reads included
	mutates  atomic.Int64 // timed calls only
	busyNs   atomic.Int64 // time inside timed calls
	windowNs atomic.Int64 // time inside timed calls since the batch hook reset it
	ops      [nEngineOps]samples
}

func newEngineProbe(tr *tracer, layer string, parent *atomic.Uint64) *engineProbe {
	p := &engineProbe{tr: tr, parent: parent}
	for i, n := range engineOpNames {
		p.names[i] = layer + "." + n
	}
	return p
}

// factory decorates f so every engine it builds reports to p.
func (p *engineProbe) factory(f core.MeasureFactory) core.MeasureFactory {
	return func(pts []geom.Point) core.Measure { return &timedMeasure{m: f(pts), p: p} }
}

func (p *engineProbe) done(op engineOp, start time.Time) {
	end := time.Now()
	d := end.Sub(start)
	p.calls.Add(1)
	p.mutates.Add(1)
	p.busyNs.Add(int64(d))
	p.windowNs.Add(int64(d))
	p.ops[op].add(d)
	var parent uint64
	if p.parent != nil {
		parent = p.parent.Load()
	}
	p.tr.record(0, p.names[op], parent, parent, start, end)
}

// timedMeasure is a transparent core.Measure decorator.
type timedMeasure struct {
	m core.Measure
	p *engineProbe
}

func (t *timedMeasure) N() int               { t.p.calls.Add(1); return t.m.N() }
func (t *timedMeasure) Points() []geom.Point { t.p.calls.Add(1); return t.m.Points() }
func (t *timedMeasure) Grid() *geom.Grid     { t.p.calls.Add(1); return t.m.Grid() }
func (t *timedMeasure) Max() int             { t.p.calls.Add(1); return t.m.Max() }
func (t *timedMeasure) SumI() int            { t.p.calls.Add(1); return t.m.SumI() }
func (t *timedMeasure) Radius(u int) float64 { t.p.calls.Add(1); return t.m.Radius(u) }
func (t *timedMeasure) I(v int) int          { t.p.calls.Add(1); return t.m.I(v) }
func (t *timedMeasure) ExportState(dst *core.State) *core.State {
	t.p.calls.Add(1)
	return t.m.ExportState(dst)
}

func (t *timedMeasure) SetRadius(u int, r float64) float64 {
	s := time.Now()
	old := t.m.SetRadius(u, r)
	t.p.done(opSetRadius, s)
	return old
}

func (t *timedMeasure) GrowTo(u int, r float64) float64 {
	s := time.Now()
	old := t.m.GrowTo(u, r)
	t.p.done(opGrowTo, s)
	return old
}

func (t *timedMeasure) Snapshot() {
	s := time.Now()
	t.m.Snapshot()
	t.p.done(opSnapshot, s)
}

func (t *timedMeasure) Restore() {
	s := time.Now()
	t.m.Restore()
	t.p.done(opRestore, s)
}

func (t *timedMeasure) AddPoint(pt geom.Point) int {
	s := time.Now()
	idx := t.m.AddPoint(pt)
	t.p.done(opAddPoint, s)
	return idx
}

func (t *timedMeasure) RemovePoint(idx int) {
	s := time.Now()
	t.m.RemovePoint(idx)
	t.p.done(opRemovePoint, s)
}

func (t *timedMeasure) MovePoint(idx int, pt geom.Point) {
	s := time.Now()
	t.m.MovePoint(idx, pt)
	t.p.done(opMovePoint, s)
}

func (t *timedMeasure) BatchSet(radii []float64, workers int) {
	s := time.Now()
	t.m.BatchSet(radii, workers)
	t.p.done(opBatchSet, s)
}

// ---- store ----

// fsProbe counts and times the store's file traffic.
type fsProbe struct {
	tr     *tracer
	parent *atomic.Uint64

	writes, writeBytes, writeNs atomic.Int64
	reads, readBytes, readNs    atomic.Int64
	windowNs                    atomic.Int64 // write time since the batch hook reset it
	syncs                       samples
}

// fsCounts is a copy of an fsProbe's counters.
type fsCounts struct{ writes, writeBytes, reads, readBytes, readNs int64 }

func (p *fsProbe) counts() fsCounts {
	return fsCounts{p.writes.Load(), p.writeBytes.Load(), p.reads.Load(), p.readBytes.Load(), p.readNs.Load()}
}

// timedFS wraps a store.FS so every file it opens reports to p.
type timedFS struct {
	store.FS
	p *fsProbe
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, p: f.p}, nil
}

type timedFile struct {
	store.File
	p *fsProbe
}

func (f *timedFile) Write(b []byte) (int, error) {
	s := time.Now()
	n, err := f.File.Write(b)
	e := time.Now()
	d := int64(e.Sub(s))
	f.p.writes.Add(1)
	f.p.writeBytes.Add(int64(n))
	f.p.writeNs.Add(d)
	f.p.windowNs.Add(d)
	var parent uint64
	if f.p.parent != nil {
		parent = f.p.parent.Load()
	}
	f.p.tr.record(0, "store.write", parent, parent, s, e)
	return n, err
}

func (f *timedFile) Read(b []byte) (int, error) {
	s := time.Now()
	n, err := f.File.Read(b)
	f.p.reads.Add(1)
	f.p.readBytes.Add(int64(n))
	f.p.readNs.Add(int64(time.Since(s)))
	return n, err
}

func (f *timedFile) Sync() error {
	s := time.Now()
	err := f.File.Sync()
	e := time.Now()
	f.p.syncs.add(e.Sub(s))
	f.p.tr.record(0, "store.sync", 0, 0, s, e)
	return err
}

// ---- connections ----

// connProbe counts the calls and bytes through wrapped connections.
type connProbe struct {
	reads, readBytes, writes, writeBytes atomic.Int64
}

type countingConn struct {
	net.Conn
	p *connProbe
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.reads.Add(1)
	c.p.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.writes.Add(1)
	c.p.writeBytes.Add(int64(n))
	return n, err
}

// connCounts is a copy of a connProbe's counters.
type connCounts struct{ reads, readBytes, writes, writeBytes int64 }

func (p *connProbe) counts() connCounts {
	return connCounts{p.reads.Load(), p.readBytes.Load(), p.writes.Load(), p.writeBytes.Load()}
}

// wrap returns c reporting to p.
func (p *connProbe) wrap(c net.Conn) net.Conn { return &countingConn{Conn: c, p: p} }

type countingListener struct {
	net.Listener
	p *connProbe
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.p.wrap(c), nil
}

// ---- serve batches and the subscription matcher ----

// batchRec is one non-empty serve batch as the hooks saw it. Times are
// on the tracer's clock. First..Seq are the session sequence numbers of
// its mutations when the subscription seam reported them.
type batchRec struct {
	First, Seq           uint64
	Start, End           int64
	EngineNs, StoreNs    int64
	MatchStart, MatchEnd int64
}

// batchProbe implements serve's BeforeBatch/AfterBatch hooks and wraps
// the subscription hub's AfterBatchDelta. The hooks run on the session's
// owner goroutine one after another, so the batch in flight is plain
// state behind mu.
type batchProbe struct {
	tr  *tracer
	eng *engineProbe // may be nil
	fs  *fsProbe     // may be nil
	hub *sub.Hub     // may be nil
	cur atomic.Uint64

	mu       sync.Mutex
	start    time.Time
	mut0     int64
	open     bool
	lastSeq  uint64
	recs     []batchRec
	busyNs   int64
	match    samples // AfterBatchDelta durations, µs
	seqIndex map[uint64]int
}

func newBatchProbe(tr *tracer, eng *engineProbe, fsp *fsProbe, hub *sub.Hub) *batchProbe {
	return &batchProbe{tr: tr, eng: eng, fs: fsp, hub: hub, seqIndex: make(map[uint64]int)}
}

// install sets the probe's hooks on cfg.
func (b *batchProbe) install(cfg *serve.Config) {
	cfg.BeforeBatch = b.before
	cfg.AfterBatch = b.after
	if b.hub != nil {
		cfg.AfterBatchDelta = b.afterDelta
	}
}

func (b *batchProbe) before(string) {
	b.mu.Lock()
	b.start = time.Now()
	b.cur.Store(b.tr.nextID())
	if b.eng != nil {
		b.mut0 = b.eng.mutates.Load()
		b.eng.windowNs.Store(0)
	}
	if b.fs != nil {
		b.fs.windowNs.Store(0)
	}
	b.mu.Unlock()
}

func (b *batchProbe) after(string, core.Measure) {
	end := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.cur.Load()
	b.cur.Store(0)
	// A batch that made no engine change applied nothing (a snapshot
	// refresh pass); it is not a batch of the workload.
	if b.eng != nil && b.eng.mutates.Load() == b.mut0 {
		b.open = false
		return
	}
	r := batchRec{Start: b.tr.at(b.start), End: b.tr.at(end)}
	if b.eng != nil {
		r.EngineNs = b.eng.windowNs.Load()
	}
	if b.fs != nil {
		r.StoreNs = b.fs.windowNs.Load()
	}
	b.busyNs += int64(end.Sub(b.start))
	b.recs = append(b.recs, r)
	b.open = true
	b.tr.record(id, "serve.batch", 0, id, b.start, end)
}

func (b *batchProbe) afterDelta(v serve.BatchView) {
	s := time.Now()
	b.hub.AfterBatchDelta(v)
	e := time.Now()
	b.match.add(e.Sub(s))
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open || v.Seq == b.lastSeq {
		return
	}
	r := &b.recs[len(b.recs)-1]
	r.First, r.Seq = b.lastSeq+1, v.Seq
	r.MatchStart, r.MatchEnd = b.tr.at(s), b.tr.at(e)
	b.lastSeq = v.Seq
	b.seqIndex[v.Seq] = len(b.recs) - 1
	b.open = false
	b.tr.record(0, "sub.match", 0, 0, s, e)
}

// busy is the total time spent inside recorded batches, in ns.
func (b *batchProbe) busy() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.busyNs
}

// batches returns a copy of the recorded batches.
func (b *batchProbe) batches() []batchRec {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]batchRec(nil), b.recs...)
}

// bySeq finds the batch whose last mutation has sequence seq.
func (b *batchProbe) bySeq(seq uint64) (batchRec, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, ok := b.seqIndex[seq]
	if !ok {
		return batchRec{}, false
	}
	return b.recs[i], true
}

// layerMetrics fills the serve.* batch metrics from the recorded
// batches.
func (b *batchProbe) layerMetrics(m map[string]float64) {
	recs := b.batches()
	var dur, self []float64
	var ops, withSeq float64
	for _, r := range recs {
		d := float64(r.End-r.Start) / 1e3
		dur = append(dur, d)
		self = append(self, d-float64(r.EngineNs+r.StoreNs)/1e3)
		if r.Seq > 0 {
			ops += float64(r.Seq - r.First + 1)
			withSeq++
		}
	}
	ds := sorted(dur)
	m["serve.batch_p50_us"] = pct(ds, 50)
	m["serve.batch_p99_us"], _, _, _ = tailAt(ds, 99)
	m["serve.batch_self_us"] = median(self)
	m["serve.batches"] = float64(len(recs))
	if withSeq > 0 {
		m["serve.ops_per_batch"] = ops / withSeq
	}
}
