package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sub"
)

// Client speaks rimwire v1 over a small pool of persistent connections.
// Every connection multiplexes any number of in-flight requests: a
// writer goroutine drains a submission channel and batches frames into
// single socket writes (the syscall amortization that makes pipelining
// pay), a reader goroutine matches responses to callers by request id.
// The synchronous methods (Mutate, Summary, ...) are one-liners over
// the asynchronous Go* methods; a caller that wants deep pipelines
// holds several Pending results before waiting on any of them.
type Client struct {
	cfg    ClientConfig
	conns  []*clientConn
	next   atomic.Uint64
	closed atomic.Bool
}

// ClientConfig parameterizes Dial.
type ClientConfig struct {
	// Addr is the rimwire server's TCP address.
	Addr string
	// Conns is the pool size; <= 0 means 1.
	Conns int
	// CRC opts every frame (both directions) into CRC32-C trailers.
	CRC bool
	// MaxFrame bounds response payloads; <= 0 means the package default.
	MaxFrame int
	// Trace negotiates the distributed-tracing capability (FlagTrace on
	// the hello). When the server echoes it, GoMutateTraced attaches
	// trace-context blocks to mutate frames; otherwise those frames are
	// byte-identical to untraced ones.
	Trace bool
	// DialTimeout bounds each connection attempt; <= 0 means 5s.
	DialTimeout time.Duration
	// OnEvent receives server-push subscription events (MsgEvent frames).
	// It is called from the connection's read loop, so it must not block —
	// hand the event to a channel or queue and return. Required before
	// calling Subscribe: a push event arriving with no handler fails the
	// connection (the strict-whitelist discipline, see IsResponseType).
	OnEvent func(sub.Event)
}

// Dial connects the pool and runs the rimwire handshake on every
// connection.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	c := &Client{cfg: cfg}
	for i := 0; i < cfg.Conns; i++ {
		cc, err := dialConn(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, cc)
	}
	return c, nil
}

// Close tears down every connection and fails any in-flight requests.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, cc := range c.conns {
		cc.close(fmt.Errorf("wire: client closed"))
	}
	return nil
}

// pick spreads requests round-robin across the pool.
func (c *Client) pick() *clientConn {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// clientConn is one pooled connection: submission channel, writer and
// reader goroutines, and the in-flight table keyed by request id.
type clientConn struct {
	c       net.Conn
	crc     bool
	trace   bool // both sides negotiated FlagTrace at hello
	onEvent func(sub.Event)
	wch     chan *Pending
	stop    chan struct{}

	mu       sync.Mutex
	inflight map[uint64]*Pending
	dead     error

	ids  atomic.Uint64
	done sync.WaitGroup
}

func dialConn(cfg ClientConfig) (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", cfg.Addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // the writer already batches; don't add Nagle on top
	}
	cc := &clientConn{
		c:        nc,
		crc:      cfg.CRC,
		onEvent:  cfg.OnEvent,
		wch:      make(chan *Pending, 256),
		stop:     make(chan struct{}),
		inflight: make(map[uint64]*Pending),
	}

	// Handshake synchronously before the goroutines take over the socket.
	var hello []byte
	start := len(hello)
	hello = BeginFrame(hello, MsgHello, 0, 0)
	hello = AppendHello(hello)
	hello = EndFrame(hello, start, cfg.CRC)
	if cfg.Trace {
		// Capability bits ride the header flags: CheckHello pins the
		// payload to an exact length, so the payload cannot grow.
		hello[start+5] |= FlagTrace
	}
	if _, err := nc.Write(hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	r := NewReader(nc, cfg.MaxFrame)
	h, p, err := r.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: hello response: %w", err)
	}
	if h.Type != MsgHelloOK || CheckHello(p) != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: server is not rimwire v%d", Version)
	}
	cc.trace = cfg.Trace && h.Flags&FlagTrace != 0

	cc.done.Add(2)
	go cc.writeLoop()
	go cc.readLoop(r)
	return cc, nil
}

// close fails in-flight requests with cause, tears the socket down, and
// waits for both loop goroutines to exit.
func (cc *clientConn) close(cause error) {
	cc.fail(cause)
	cc.c.Close()
	cc.done.Wait()
}

// fail marks the connection dead (idempotently), releases the writer
// via the stop channel, and fails everything in flight.
func (cc *clientConn) fail(cause error) {
	cc.mu.Lock()
	if cc.dead == nil {
		cc.dead = cause
		close(cc.stop)
	}
	pend := make([]*Pending, 0, len(cc.inflight))
	for id, p := range cc.inflight {
		delete(cc.inflight, id)
		pend = append(pend, p)
	}
	cc.mu.Unlock()
	for _, p := range pend {
		p.err = cause
		p.ch <- struct{}{}
	}
}

// writeLoop drains the submission channel, concatenating every frame
// already waiting into one socket write.
func (cc *clientConn) writeLoop() {
	defer cc.done.Done()
	var buf []byte
	for {
		var p *Pending
		select {
		case p = <-cc.wch:
		case <-cc.stop:
			return
		}
		buf = append(buf[:0], p.req...)
		// Batch whatever else is already queued — this is where a deep
		// pipeline collapses N requests into one syscall.
	drain:
		for {
			select {
			case q := <-cc.wch:
				buf = append(buf, q.req...)
			default:
				break drain
			}
		}
		if _, err := cc.c.Write(buf); err != nil {
			cc.fail(fmt.Errorf("wire: write: %w", err))
			cc.c.Close()
			return
		}
	}
}

// readLoop dispatches response frames to their waiting Pendings.
func (cc *clientConn) readLoop(r *Reader) {
	defer cc.done.Done()
	for {
		h, payload, err := r.Next()
		if err != nil {
			cc.fail(fmt.Errorf("wire: read: %w", err))
			cc.c.Close()
			return
		}
		if h.Type == MsgEvent {
			// Server-push subscription event: demux to the handler before
			// the response whitelist — its header id is a subscription id,
			// not a request id, and must never touch the in-flight table.
			if cc.onEvent == nil {
				cc.fail(fmt.Errorf("%w: push event with no OnEvent handler", ErrUnknownType))
				cc.c.Close()
				return
			}
			ev, err := DecodeEvent(payload)
			if err != nil {
				cc.fail(fmt.Errorf("wire: event: %w", err))
				cc.c.Close()
				return
			}
			cc.onEvent(ev)
			continue
		}
		if !IsResponseType(h.Type) {
			// A frame outside the response whitelist (a push stream like
			// MsgReplRecords, or a future type) must not be matched to a
			// waiting request just because the ids collide — that would
			// hand the caller a mis-typed payload. Fail the connection
			// loudly instead.
			cc.fail(fmt.Errorf("%w: type %d on response stream", ErrUnknownType, h.Type))
			cc.c.Close()
			return
		}
		cc.mu.Lock()
		p := cc.inflight[h.ID]
		delete(cc.inflight, h.ID)
		cc.mu.Unlock()
		if p == nil {
			continue // response to an abandoned request
		}
		p.h = h
		p.resp = append(p.resp[:0], payload...)
		p.ch <- struct{}{}
	}
}

// submit registers p and hands it to the writer.
func (cc *clientConn) submit(p *Pending) {
	cc.mu.Lock()
	if cc.dead != nil {
		err := cc.dead
		cc.mu.Unlock()
		p.err = err
		p.ch <- struct{}{}
		return
	}
	cc.inflight[p.id] = p
	cc.mu.Unlock()
	select {
	case cc.wch <- p:
	case <-cc.stop:
		// Raced with teardown. fail() may already have claimed p from
		// the in-flight table — only signal it if we remove it here.
		cc.mu.Lock()
		_, mine := cc.inflight[p.id]
		delete(cc.inflight, p.id)
		cause := cc.dead
		cc.mu.Unlock()
		if mine {
			p.err = cause
			p.ch <- struct{}{}
		}
	}
}

// Pending is one in-flight request. Obtain it from a Go* method, then
// either call the matching decode method (which waits) or Wait + Err.
// Release returns it to the pool; the typed decode helpers release
// automatically. Pendings are pooled — do not use one after release.
type Pending struct {
	cc    *clientConn
	id    uint64
	req   []byte
	flags uint8 // extra header flags ORed in at seal (FlagTrace)
	h     Header
	resp  []byte
	err   error
	ch    chan struct{}
}

var pendingPool = sync.Pool{New: func() any {
	return &Pending{ch: make(chan struct{}, 1)}
}}

func (c *Client) pending() *Pending {
	cc := c.pick()
	p := pendingPool.Get().(*Pending)
	p.cc = cc
	p.id = cc.ids.Add(1)
	p.req = p.req[:0]
	p.flags = 0
	p.err = nil
	return p
}

// Traced reports whether the pool negotiated the tracing capability with
// the server (ClientConfig.Trace set and echoed at hello).
func (c *Client) Traced() bool {
	return len(c.conns) > 0 && c.conns[0].trace
}

// Wait blocks until the response (or a connection failure) arrives. It
// returns the transport-level error; a server-side MsgErr surfaces from
// the decode methods (or Err) as *Error.
func (p *Pending) Wait() error {
	<-p.ch
	return p.err
}

// Err waits and folds a MsgErr response into an *Error.
func (p *Pending) Err() error {
	if err := p.Wait(); err != nil {
		return err
	}
	if p.h.Type == MsgErr {
		return &Error{Status: int(p.h.Status), Msg: string(p.resp)}
	}
	return nil
}

// Release returns p to the pool. Safe only after Wait has returned.
func (p *Pending) Release() {
	p.cc = nil
	p.resp = p.resp[:0]
	pendingPool.Put(p)
}

// finish is the shared tail of the typed decode helpers: surface
// errors, verify the response type, and release on any failure.
func (p *Pending) finish(want uint8) error {
	if err := p.Err(); err != nil {
		p.Release()
		return err
	}
	if p.h.Type != want {
		t := p.h.Type
		p.Release()
		return fmt.Errorf("%w: response type %d (want %d)", ErrBadPayload, t, want)
	}
	return nil
}

// --- request constructors -------------------------------------------------

func (p *Pending) seal(typ uint8) {
	p.req = EndFrame(p.req, 0, p.cc.crc)
	hb := p.req[:HeaderSize]
	hb[4] = typ
	hb[5] |= p.flags
	p.cc.submit(p)
}

func (p *Pending) begin() {
	p.req = BeginFrame(p.req[:0], 0, 0, p.id)
}

// GoPing submits a liveness probe.
func (c *Client) GoPing() *Pending {
	p := c.pending()
	p.begin()
	p.seal(MsgPing)
	return p
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	p := c.GoPing()
	if err := p.finish(MsgPong); err != nil {
		return err
	}
	p.Release()
	return nil
}

// GoCreate submits session creation from explicit points.
func (c *Client) GoCreate(session string, pts []geom.Point) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.req = serve.AppendPoints(p.req, pts)
	p.seal(MsgCreate)
	return p
}

// Create creates a session from explicit points and returns its size.
func (c *Client) Create(session string, pts []geom.Point) (int, error) {
	return c.createWait(c.GoCreate(session, pts))
}

// GoCreateGen submits server-side session generation.
func (c *Client) GoCreateGen(session string, g GenSpec) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.req = AppendGenSpec(p.req, g)
	p.seal(MsgCreateGen)
	return p
}

// CreateGen creates a generated session and returns its size.
func (c *Client) CreateGen(session string, g GenSpec) (int, error) {
	return c.createWait(c.GoCreateGen(session, g))
}

func (c *Client) createWait(p *Pending) (int, error) {
	if err := p.finish(MsgCreateOK); err != nil {
		return 0, err
	}
	n, err := DecodeU32(p.resp)
	p.Release()
	return int(n), err
}

// GoMutate submits a mutation batch for enqueue.
func (c *Client) GoMutate(session string, ops []serve.Mutation) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.req = serve.AppendOps(p.req, ops)
	p.seal(MsgMutate)
	return p
}

// GoMutateTraced submits a mutation batch carrying a distributed trace
// context: the 17-byte block rides after the op records and the frame is
// marked FlagTrace. Downgrades to a byte-identical GoMutate when the
// connection did not negotiate tracing or tc is the zero context.
func (c *Client) GoMutateTraced(session string, ops []serve.Mutation, tc obs.TraceContext) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.req = serve.AppendOps(p.req, ops)
	if p.cc.trace && tc.Valid() {
		p.req = serve.AppendTraceStamp(p.req, tc)
		p.flags |= FlagTrace
	}
	p.seal(MsgMutate)
	return p
}

// MutateIDs decodes a GoMutate response into the caller's id slice
// (appended; pass ids[:0] to reuse). The ids are those assigned to the
// batch's OpAdd mutations, in order.
func (p *Pending) MutateIDs(ids []int64) ([]int64, error) {
	if err := p.finish(MsgMutateOK); err != nil {
		return ids, err
	}
	ids, err := DecodeIDs(p.resp, ids)
	p.Release()
	return ids, err
}

// Mutate enqueues a batch and returns the assigned OpAdd ids.
func (c *Client) Mutate(session string, ops []serve.Mutation) ([]int64, error) {
	return c.GoMutate(session, ops).MutateIDs(nil)
}

// GoSummary submits a summary read.
func (c *Client) GoSummary(session string) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.seal(MsgSummary)
	return p
}

// Summary decodes a GoSummary response.
func (p *Pending) Summary() (Summary, error) {
	if err := p.finish(MsgSummaryOK); err != nil {
		return Summary{}, err
	}
	s, err := DecodeSummary(p.resp)
	p.Release()
	return s, err
}

// Summary reads the session summary.
func (c *Client) Summary(session string) (Summary, error) {
	return c.GoSummary(session).Summary()
}

// GoNodes submits a node-state read.
func (c *Client) GoNodes(session string) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.seal(MsgNodes)
	return p
}

// Nodes decodes a GoNodes response into the caller's slice (appended;
// pass nodes[:0] to reuse).
func (p *Pending) Nodes(nodes []Node) (uint64, []Node, error) {
	if err := p.finish(MsgNodesOK); err != nil {
		return 0, nodes, err
	}
	seq, nodes, err := DecodeNodes(p.resp, nodes)
	p.Release()
	return seq, nodes, err
}

// Nodes reads per-node state, returning the snapshot seq.
func (c *Client) Nodes(session string, into []Node) (uint64, []Node, error) {
	return c.GoNodes(session).Nodes(into)
}

// GoFlush submits a queue-drain barrier.
func (c *Client) GoFlush(session string) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.seal(MsgFlush)
	return p
}

// Flush blocks until the session queue drains, returning the seq.
func (c *Client) Flush(session string) (uint64, error) {
	p := c.GoFlush(session)
	if err := p.finish(MsgFlushOK); err != nil {
		return 0, err
	}
	seq, err := DecodeU64(p.resp)
	p.Release()
	return seq, err
}

// GoDrop submits a session drop.
func (c *Client) GoDrop(session string) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.seal(MsgDrop)
	return p
}

// Drop drops a session.
func (c *Client) Drop(session string) error {
	p := c.GoDrop(session)
	if err := p.finish(MsgDropOK); err != nil {
		return err
	}
	p.Release()
	return nil
}

// GoSubscribe submits a standing-predicate registration. Events for the
// subscription are pushed on the connection that carried the request, so
// they arrive at this client's OnEvent handler regardless of pool size.
func (c *Client) GoSubscribe(session string, pred sub.Predicate) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendString(p.req, session)
	p.req = AppendPredicate(p.req, pred)
	p.seal(MsgSubscribe)
	return p
}

// SubID decodes a GoSubscribe response into the subscription id.
func (p *Pending) SubID() (uint64, error) {
	if err := p.finish(MsgSubscribeOK); err != nil {
		return 0, err
	}
	id, err := DecodeU64(p.resp)
	p.Release()
	return id, err
}

// Subscribe registers a standing predicate and returns its subscription
// id. ClientConfig.OnEvent must be set.
func (c *Client) Subscribe(session string, pred sub.Predicate) (uint64, error) {
	return c.GoSubscribe(session, pred).SubID()
}

// GoUnsubscribe submits a subscription detach. Events already queued
// server-side may still arrive after the acknowledgment.
func (c *Client) GoUnsubscribe(id uint64) *Pending {
	p := c.pending()
	p.begin()
	p.req = AppendU64(p.req, id)
	p.seal(MsgUnsubscribe)
	return p
}

// Unsubscribe detaches a subscription by id.
func (c *Client) Unsubscribe(id uint64) error {
	p := c.GoUnsubscribe(id)
	if err := p.finish(MsgUnsubscribeOK); err != nil {
		return err
	}
	p.Release()
	return nil
}
