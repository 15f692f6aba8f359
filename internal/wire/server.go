package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sub"
)

// Server speaks rimwire v1 over persistent connections, feeding the
// serve.Manager's sharded batch pipeline directly — no JSON, no
// per-request connection handling, no intermediate goroutine hops. One
// goroutine owns each connection end to end: it decodes pipelined
// frames, answers reads from the session's lock-free published snapshot,
// and accumulates consecutive mutate frames into a single Apply call so
// a pipelined client's mutations reach the session queue in batches —
// which is what lets the owner-side coalescing (last-set-radius-wins)
// fire for wire clients the way it does for native callers.
type Server struct {
	cfg ServerConfig
	mx  *metrics

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServerConfig parameterizes a Server. Manager is required; the zero
// value of everything else selects sane defaults.
type ServerConfig struct {
	// Manager is the session pipeline the server fronts.
	Manager *serve.Manager
	// MaxFrame bounds incoming payload lengths; <= 0 means the package
	// default (16 MiB). The bound is enforced on the length word alone,
	// before any buffer grows.
	MaxFrame int
	// MaxBatchOps caps how many pipelined mutations accumulate before a
	// forced enqueue; <= 0 means 512. Keep it at or below the manager's
	// QueueCap or large pipelines will see spurious backpressure.
	MaxBatchOps int
	// MaxGenN bounds server-side instance generation (MsgCreateGen);
	// <= 0 means 1<<20. Explicit-point creates are bounded by MaxFrame.
	MaxGenN int
	// Registry receives the rim_wire_* metrics; nil means obs.Default().
	Registry *obs.Registry
	// Hub, when set, enables the subscription frames (MsgSubscribe and
	// friends): the hub must be wired into the same manager via
	// serve.Config.AfterBatchDelta. Nil rejects subscription requests
	// with status 400.
	Hub *sub.Hub
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = MaxFrame
	}
	if c.MaxBatchOps <= 0 {
		c.MaxBatchOps = 512
	}
	if c.MaxGenN <= 0 {
		c.MaxGenN = 1 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// NewServer builds a server over a session manager.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Manager == nil {
		panic("wire: ServerConfig.Manager is required")
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		mx:    registerMetrics(cfg.Registry),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, or the first fatal accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("wire: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.mx.connsOpened.Inc()
		go s.handle(c)
	}
}

// Close stops accepting, closes every live connection, and waits for
// the handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// conn is one connection's owner-goroutine state: the frame reader, a
// write buffer (frames are built in buf and flushed in bursts), the
// pending pipelined-mutation accumulator, and a one-entry session cache
// so steady-state requests never re-hash the session table.
type conn struct {
	srv   *Server
	c     net.Conn
	r     *Reader
	crc   bool // client requested CRC trailers in the hello
	trace bool // client negotiated trace-context extensions in the hello

	buf        []byte // outgoing frames accumulate here until flushed
	frameStart int    // offset of the frame being built in buf
	muts       []serve.Mutation
	mutF       []mutFrame
	pts        []geom.Point // create scratch

	sess    *serve.Session
	sid     []byte
	mutSess *serve.Session // session the accumulated muts target

	// Push state, created lazily on the first MsgSubscribe. The pump
	// goroutine writes MsgEvent frames concurrently with the owner
	// goroutine's response flushes, so every socket write — both paths —
	// holds wmu; frames interleave whole, never torn.
	wmu      sync.Mutex
	pushSB   *sub.Subscriber
	pushDone chan struct{}
}

// mutFrame remembers one pipelined mutate frame awaiting its enqueue:
// the request id to acknowledge, and how many OpAdds it contributed (to
// slice the assigned ids back out of the combined Apply result).
type mutFrame struct {
	id   uint64
	adds int
	ops  int
}

func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{srv: s, c: nc, r: NewReader(nc, s.cfg.MaxFrame)}
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		// Detach the push subscriber before closing the socket (no new
		// events), then close, then join the pump — a pump blocked in a
		// write is unblocked by the close, so the join cannot hang.
		if c.pushSB != nil {
			s.cfg.Hub.CloseSubscriber(c.pushSB)
		}
		nc.Close()
		if c.pushDone != nil {
			<-c.pushDone
		}
		s.mx.connsClosed.Inc()
	}()

	// Handshake: the first frame pins protocol and version, and its CRC
	// flag opts the whole connection into CRC trailers both ways.
	h, p, err := c.r.Next()
	if err != nil || h.Type != MsgHello || CheckHello(p) != nil {
		c.writeErr(h.ID, StatusBad, "rimwire v1 hello required")
		c.flushWrites()
		return
	}
	c.crc = h.Flags&FlagCRC != 0
	c.trace = h.Flags&FlagTrace != 0
	c.begin(MsgHelloOK, StatusOK, h.ID)
	c.buf = AppendHello(c.buf)
	c.end()
	if c.trace {
		// Echo the capability so the client knows its trace blocks will be
		// honored. Header flags are outside the CRC trailer (it covers the
		// payload alone), so patching after end() is safe.
		c.buf[c.frameStart+5] |= FlagTrace
	}
	c.flushWrites()

	for {
		h, p, err := c.r.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.writeErr(h.ID, StatusBad, err.Error())
				s.mx.errors.Inc()
			}
			c.flushMutations()
			c.flushWrites()
			return
		}
		s.mx.framesIn.Inc()
		s.mx.bytesIn.Add(int64(HeaderSize) + int64(h.Len))
		s.mx.requests.Inc()
		c.dispatch(h, p)
		// Pipelining heartbeat: as long as a complete next frame is
		// already buffered, keep accumulating; the moment the next Next
		// would touch the socket, enqueue pending mutations and flush
		// every buffered response in one write. (Buffered() == 0 is the
		// wrong condition here: sustained traffic keeps the bufio buffer
		// non-empty across torn-frame refills, which would delay
		// responses until an arrival gap.)
		if !c.r.FrameBuffered() {
			c.flushMutations()
			if err := c.flushWrites(); err != nil {
				return
			}
		}
	}
}

// dispatch handles one decoded frame. Responses are appended to the
// write buffer; mutate frames are accumulated for a combined enqueue.
func (c *conn) dispatch(h Header, p []byte) {
	switch h.Type {
	case MsgPing:
		c.flushMutations() // FIFO: answer in order
		c.begin(MsgPong, StatusOK, h.ID)
		c.end()

	case MsgMutate:
		sid, rest, err := ReadString(p)
		if err != nil {
			c.flushMutations()
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		sess := c.lookup(sid)
		if sess == nil {
			c.flushMutations()
			c.writeErr(h.ID, StatusNotFound, "no such session")
			return
		}
		if sess != c.mutSess {
			c.flushMutations() // session switch: keep batches single-session
		}
		before := len(c.muts)
		muts, tail, err := serve.DecodeOps(rest, c.muts)
		if err != nil {
			c.flushMutations()
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		c.muts = muts
		if h.Flags&FlagTrace != 0 && c.trace {
			tc, _, terr := serve.DecodeTraceStamp(tail)
			if terr != nil {
				c.muts = c.muts[:before]
				c.flushMutations()
				c.writeErr(h.ID, StatusBad, terr.Error())
				return
			}
			if len(c.muts) > before {
				// The first mutation carries the context; the serve batch
				// adopts the first traced mutation it drains.
				tcp := tc
				c.muts[before].TC = &tcp
			}
		}
		adds := 0
		for i := before; i < len(c.muts); i++ {
			if c.muts[i].Op == serve.OpAdd {
				adds++
			}
		}
		c.mutSess = sess
		c.mutF = append(c.mutF, mutFrame{id: h.ID, adds: adds, ops: len(c.muts) - before})
		if len(c.muts) >= c.srv.cfg.MaxBatchOps {
			c.flushMutations()
		}

	case MsgSummary:
		c.flushMutations()
		t0 := time.Now()
		sid, _, err := ReadString(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		sess := c.lookup(sid)
		if sess == nil {
			c.writeErr(h.ID, StatusNotFound, "no such session")
			return
		}
		head := sess.Head()
		c.begin(MsgSummaryOK, StatusOK, h.ID)
		c.buf = AppendSummary(c.buf, Summary{
			N:        uint32(head.N),
			Max:      uint32(head.Max),
			Edges:    uint32(head.Edges),
			Events:   uint32(head.Events),
			Rebuilds: uint32(head.Rebuilds),
			Queue:    uint32(sess.QueueDepth()),
			Seq:      head.Seq,
			Avg:      head.Avg,
			AgeNS:    int64(head.Age()),
		})
		c.end()
		c.srv.mx.readLatency.Observe(time.Since(t0).Seconds())

	case MsgNodes:
		c.flushMutations()
		t0 := time.Now()
		sid, _, err := ReadString(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		sess := c.lookup(sid)
		if sess == nil {
			c.writeErr(h.ID, StatusNotFound, "no such session")
			return
		}
		snap := sess.Snapshot()
		c.begin(MsgNodesOK, StatusOK, h.ID)
		c.buf = AppendNodes(c.buf, snap.Seq, snap.Nodes)
		c.end()
		c.srv.mx.readLatency.Observe(time.Since(t0).Seconds())

	case MsgFlush:
		c.flushMutations()
		sid, _, err := ReadString(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		sess := c.lookup(sid)
		if sess == nil {
			c.writeErr(h.ID, StatusNotFound, "no such session")
			return
		}
		// Flush blocks this connection's goroutine — per-connection FIFO
		// is the contract, and queued responses were flushed above.
		c.flushWrites()
		if err := sess.Flush(nil); err != nil {
			c.writeErr(h.ID, StatusGone, err.Error())
			return
		}
		c.begin(MsgFlushOK, StatusOK, h.ID)
		c.buf = AppendU64(c.buf, sess.Snapshot().Seq)
		c.end()

	case MsgCreate:
		c.flushMutations()
		sid, rest, err := ReadString(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		pts, _, err := serve.DecodePoints(rest, c.pts[:0])
		c.pts = pts
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		c.create(h.ID, string(sid), pts)

	case MsgCreateGen:
		c.flushMutations()
		sid, rest, err := ReadString(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		spec, err := DecodeGenSpec(rest)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		if int(spec.N) > c.srv.cfg.MaxGenN {
			c.writeErr(h.ID, StatusBad, fmt.Sprintf("gen n %d exceeds limit %d", spec.N, c.srv.cfg.MaxGenN))
			return
		}
		side := spec.Side
		if side <= 0 {
			side = math.Sqrt(float64(spec.N)) / 5
		}
		pts := gen.UniformSquare(rand.New(rand.NewSource(spec.Seed)), int(spec.N), side)
		c.create(h.ID, string(sid), pts)

	case MsgDrop:
		c.flushMutations()
		sid, _, err := ReadString(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		if err := c.srv.cfg.Manager.DropSession(string(sid)); err != nil {
			if errors.Is(err, serve.ErrReadOnly) {
				c.writeErr(h.ID, StatusReadOnly, err.Error())
				return
			}
			c.writeErr(h.ID, StatusNotFound, err.Error())
			return
		}
		c.invalidate()
		c.begin(MsgDropOK, StatusOK, h.ID)
		c.end()

	case MsgSubscribe:
		c.flushMutations() // FIFO: the registration lands after queued mutations
		hub := c.srv.cfg.Hub
		if hub == nil {
			c.writeErr(h.ID, StatusBad, "subscriptions disabled")
			return
		}
		sid, rest, err := ReadString(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		pred, err := DecodePredicate(rest)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		if c.pushSB == nil {
			c.pushSB = hub.NewSubscriber()
			c.pushDone = make(chan struct{})
			go c.pump()
		}
		id, err := hub.Subscribe(string(sid), pred, c.pushSB)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		// The subscription is live from this instant, so an MsgEvent can
		// in principle beat this acknowledgment onto the wire — clients
		// learn the id from the event itself (header id = subscription id).
		c.begin(MsgSubscribeOK, StatusOK, h.ID)
		c.buf = AppendU64(c.buf, id)
		c.end()

	case MsgUnsubscribe:
		c.flushMutations()
		hub := c.srv.cfg.Hub
		if hub == nil {
			c.writeErr(h.ID, StatusBad, "subscriptions disabled")
			return
		}
		id, err := DecodeU64(p)
		if err != nil {
			c.writeErr(h.ID, StatusBad, err.Error())
			return
		}
		if !hub.Unsubscribe(id) {
			c.writeErr(h.ID, StatusNotFound, "no such subscription")
			return
		}
		c.begin(MsgUnsubscribeOK, StatusOK, h.ID)
		c.end()

	default:
		c.flushMutations()
		c.writeErr(h.ID, StatusBad, fmt.Sprintf("unknown message type %d", h.Type))
	}
}

// create runs session creation and answers MsgCreateOK / MsgErr.
func (c *conn) create(id uint64, sid string, pts []geom.Point) {
	s, err := c.srv.cfg.Manager.CreateSession(sid, pts)
	switch {
	case errors.Is(err, serve.ErrSessionExists):
		c.writeErr(id, StatusExists, err.Error())
	case errors.Is(err, serve.ErrReadOnly):
		c.writeErr(id, StatusReadOnly, err.Error())
	case errors.Is(err, serve.ErrClosed):
		c.writeErr(id, StatusGone, err.Error())
	case err != nil:
		c.writeErr(id, StatusBad, err.Error())
	default:
		c.begin(MsgCreateOK, StatusOK, id)
		c.buf = AppendU32(c.buf, uint32(s.Snapshot().N))
		c.end()
	}
}

// lookup resolves a session id, consulting the one-entry cache first so
// the steady state (one connection, one session) allocates nothing. A
// cached handle that has since closed (dropped on another connection)
// is discarded — the authoritative table decides, exactly as over HTTP.
func (c *conn) lookup(sid []byte) *serve.Session {
	if c.sess != nil && bytes.Equal(c.sid, sid) {
		if !c.sess.Closed() {
			return c.sess
		}
		c.invalidate()
	}
	s, ok := c.srv.cfg.Manager.Session(string(sid))
	if !ok {
		return nil
	}
	c.sess = s
	c.sid = append(c.sid[:0], sid...)
	return s
}

// invalidate clears the session cache (after drops, or when a cached
// session reports closed — it may have been dropped and re-created).
func (c *conn) invalidate() {
	c.sess = nil
	c.mutSess = nil
	c.sid = c.sid[:0]
}

// flushMutations enqueues every accumulated pipelined mutation in one
// Apply call and acknowledges each contributing frame. One combined
// enqueue is what hands the session owner real batches to coalesce —
// the HTTP facade's batch-of-one enqueues kept coalesced_% at zero.
func (c *conn) flushMutations() {
	if len(c.mutF) == 0 {
		return
	}
	sess := c.mutSess
	muts, frames := c.muts, c.mutF
	c.muts, c.mutF, c.mutSess = c.muts[:0], c.mutF[:0], nil

	ids, err := sess.Apply(muts...)
	if err == nil {
		c.srv.mx.batches.Inc()
		c.srv.mx.batchOps.Observe(float64(len(muts)))
		for _, f := range frames {
			c.begin(MsgMutateOK, StatusOK, f.id)
			c.buf = AppendIDs(c.buf, ids[:f.adds])
			ids = ids[f.adds:]
			c.end()
		}
		return
	}
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		// Backpressure applies to the whole accumulated window: nothing
		// was enqueued, every frame gets 429, the client waits and
		// resubmits — the Retry-After contract, one layer down.
		for _, f := range frames {
			c.srv.mx.backpressure.Inc()
			c.writeErr(f.id, StatusAgain, "queue full")
		}
	case errors.Is(err, serve.ErrSessionClosed):
		c.invalidate()
		for _, f := range frames {
			c.writeErr(f.id, StatusGone, err.Error())
		}
	case errors.Is(err, serve.ErrReadOnly):
		for _, f := range frames {
			c.writeErr(f.id, StatusReadOnly, err.Error())
		}
	default:
		// A validation error in a combined batch: re-apply frame by
		// frame so the rejection lands on the frame that earned it and
		// clean neighbors still enqueue (all-or-nothing per frame, as
		// over HTTP).
		off := 0
		for _, f := range frames {
			fids, ferr := sess.Apply(muts[off : off+f.ops]...)
			off += f.ops
			switch {
			case ferr == nil:
				c.begin(MsgMutateOK, StatusOK, f.id)
				c.buf = AppendIDs(c.buf, fids)
				c.end()
			case errors.Is(ferr, serve.ErrQueueFull):
				c.srv.mx.backpressure.Inc()
				c.writeErr(f.id, StatusAgain, "queue full")
			case errors.Is(ferr, serve.ErrSessionClosed):
				c.invalidate()
				c.writeErr(f.id, StatusGone, ferr.Error())
			default:
				c.writeErr(f.id, StatusBad, ferr.Error())
			}
		}
	}
}

// begin starts a response frame in the write buffer; end closes it.
func (c *conn) begin(typ uint8, status uint16, id uint64) {
	c.frameStart = len(c.buf)
	c.buf = BeginFrame(c.buf, typ, status, id)
}

func (c *conn) end() {
	c.buf = EndFrame(c.buf, c.frameStart, c.crc)
	c.srv.mx.framesOut.Inc()
}

// writeErr appends a MsgErr response.
func (c *conn) writeErr(id uint64, status uint16, msg string) {
	c.begin(MsgErr, status, id)
	c.buf = append(c.buf, msg...)
	c.end()
	c.srv.mx.errors.Inc()
}

// flushWrites pushes the buffered response frames to the socket in one
// write, serialized against the push pump by wmu.
func (c *conn) flushWrites() error {
	if len(c.buf) == 0 {
		return nil
	}
	c.wmu.Lock()
	n, err := c.c.Write(c.buf)
	c.wmu.Unlock()
	c.srv.mx.bytesOut.Add(int64(n))
	c.buf = c.buf[:0]
	return err
}

// pump delivers subscription events: it drains the connection's
// subscriber queue, batches whatever is already waiting into one socket
// write of MsgEvent frames, and keeps draining (without writing) after a
// write error so CloseSubscriber always finds an empty, closing channel.
// It exits when the subscriber channel closes and signals via pushDone.
func (c *conn) pump() {
	defer close(c.pushDone)
	var buf []byte
	var traced []uint64 // trace ids of traced events in the current write
	dead := false
	for ev := range c.pushSB.Events() {
		if dead {
			continue
		}
		traced = traced[:0]
		buf = appendEventFrame(buf[:0], ev, c.crc, c.trace)
		if c.trace && ev.Trace != 0 {
			traced = append(traced, ev.Trace)
		}
		frames := 1
	batch:
		for len(buf) < 64<<10 {
			select {
			case ev2, ok := <-c.pushSB.Events():
				if !ok {
					break batch // closed; write what we have, then exit above
				}
				buf = appendEventFrame(buf, ev2, c.crc, c.trace)
				if c.trace && ev2.Trace != 0 {
					traced = append(traced, ev2.Trace)
				}
				frames++
			default:
				break batch
			}
		}
		spanPush := len(traced) > 0 && obs.On()
		var t0 time.Time
		if spanPush {
			t0 = time.Now()
		}
		c.wmu.Lock()
		n, err := c.c.Write(buf)
		c.wmu.Unlock()
		c.srv.mx.bytesOut.Add(int64(n))
		c.srv.mx.framesOut.Add(int64(frames))
		if err != nil {
			dead = true
		} else if spanPush {
			// The delivery leg of a distributed trace: one span per traced
			// event, covering the socket write that pushed it. Start/Dur
			// are shared across the batched write — the stitcher cares
			// about trace membership and causal position, not per-frame
			// byte timing.
			dur := time.Since(t0).Nanoseconds()
			r := obs.DefaultRecorder()
			for _, tid := range traced {
				r.Record(obs.SpanRecord{Name: "wire.event_push", Start: t0.UnixNano(), Dur: dur, Trace: tid})
			}
		}
	}
}

// appendEventFrame encodes one complete MsgEvent frame. The header id
// slot carries the subscription id — push frames have no request id. On a
// trace-negotiated connection an event from a traced batch uses the
// extended record and marks the frame FlagTrace; otherwise the trace id
// is stripped so legacy decoders see the fixed 38-byte form.
func appendEventFrame(dst []byte, ev sub.Event, crc, trace bool) []byte {
	if !trace {
		ev.Trace = 0
	}
	start := len(dst)
	dst = BeginFrame(dst, MsgEvent, StatusOK, ev.SubID)
	dst = AppendEvent(dst, ev)
	dst = EndFrame(dst, start, crc)
	if ev.Trace != 0 {
		dst[start+5] |= FlagTrace
	}
	return dst
}
