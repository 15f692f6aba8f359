// Package wire is rimd's binary front door: the rimwire v1 framing
// protocol spoken over persistent TCP connections, built to close the
// gap BENCH_3 measured between the engine (3.9M ops/s native) and the
// HTTP/JSON facade (14.8k ops/s). The JSON codec and per-request
// connection handling were eating ~300× of the throughput the
// incremental evaluator earns; rimwire removes both.
//
// # Frame layout
//
// Every message is one frame: a fixed 16-byte little-endian header
// followed by the payload and an optional CRC32-C trailer:
//
//	offset 0  uint32  payload length (bytes after the header, CRC excluded)
//	offset 4  uint8   message type (Msg* constants)
//	offset 5  uint8   flags (FlagCRC: a 4-byte CRC32-C of the payload follows it)
//	offset 6  uint16  status (responses: 0 ok, else an HTTP-alike code)
//	offset 8  uint64  request id (echoed verbatim in the response)
//
// The header is fixed-width on purpose — no varints on the hot path, so
// encode is straight stores and decode is straight loads. Strings
// (session IDs, error text) appear only inside payloads, length-prefixed
// with uint16. Mutation ops and points use serve's binary codec (see
// serve.AppendOps), the same bytes the WAL and replication carry.
// The length word is validated against MaxFrame before any allocation,
// so an adversarial length prefix cannot balloon memory — the same
// guard discipline as serve's MaxCoord and the store's maxRecordSize.
//
// # Pipelining and ordering
//
// A connection carries many requests in flight: the client writes
// frames back to back without waiting, and the server answers every
// frame exactly once, in request order (FIFO per connection). Request
// ids exist so a multiplexing client can hand responses back to the
// right caller without assuming order; the per-connection FIFO is
// nevertheless part of the v1 contract (it is what makes "flush, then
// read" meaningful inside one connection).
//
// Mutations are acknowledged at *enqueue* (the HTTP 202 analog): an ok
// MsgMutate response means the batch entered the session's bounded
// queue, not that it was applied. Reads observe a published snapshot —
// a prefix of the mutation log — exactly as over HTTP. MsgFlush blocks
// until the queue drains, again exactly as over HTTP.
//
// # Backpressure
//
// A full session queue is the same backpressure signal HTTP expresses
// as 429 + Retry-After: the server answers status 429 (StatusAgain) and
// the client is expected to wait and resubmit. No frame is ever
// silently dropped; a connection-fatal condition (bad magic, oversized
// frame, CRC mismatch) closes the connection after a best-effort
// status-400 frame.
package wire

import (
	"errors"
	"fmt"
)

// Protocol identity. The handshake payload pins both so a v2 can bump
// either without ambiguity.
const (
	Magic   = "rimwire"
	Version = 1
)

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 16

// MaxFrame is the default bound on a frame's payload length. Length
// words beyond the configured bound are rejected before any allocation.
const MaxFrame = 16 << 20

// Flags (header offset 5).
const (
	// FlagCRC marks a frame whose payload is followed by a uint32
	// little-endian CRC32-C of the payload bytes. Optional: the hot path
	// skips it (TCP already checksums); a client talking across storage
	// or relays can turn it on per connection.
	FlagCRC = 1 << 0

	// FlagTrace is the distributed-tracing capability and marker bit.
	// On a MsgHello header it asks the server to accept trace contexts;
	// the server echoes it on MsgHelloOK when it can (capability bits
	// live in the header because CheckHello pins the hello payload to an
	// exact length). On a MsgMutate header it marks a 17-byte trace
	// stamp (serve.AppendTraceStamp: u64 trace id, u64 parent span id,
	// u8 flags) appended after the op records — serve.DecodeOps
	// tolerates trailing bytes, so an untraced peer skips it harmlessly. On a MsgEvent header it marks
	// the extended 46-byte event record whose tail carries the trace id.
	// Absent everywhere, nothing is encoded and nothing is paid: the
	// zero-cost-when-off contract is pinned by
	// TestTraceContextDisabledZeroAlloc.
	FlagTrace = 1 << 1
)

// Message types. Requests are odd jobs of the client; every request
// type has exactly one response frame (MsgErr substitutes for any of
// them on failure).
const (
	MsgHello     uint8 = 1  // handshake: payload "rimwire" + version byte
	MsgHelloOK   uint8 = 2  // server accepts; payload mirrors MsgHello
	MsgPing      uint8 = 3  // liveness probe
	MsgPong      uint8 = 4  // liveness answer
	MsgCreate    uint8 = 5  // create a session from explicit points
	MsgCreateGen uint8 = 6  // create a session from (n, seed, side)
	MsgCreateOK  uint8 = 7  // payload: uint32 n
	MsgMutate    uint8 = 8  // enqueue a mutation batch
	MsgMutateOK  uint8 = 9  // payload: assigned ids for OpAdd mutations
	MsgSummary   uint8 = 10 // read the session summary
	MsgSummaryOK uint8 = 11 // payload: fixed Summary record
	MsgNodes     uint8 = 12 // read per-node state
	MsgNodesOK   uint8 = 13 // payload: seq + fixed 36-byte node records
	MsgFlush     uint8 = 14 // wait until the session queue drains
	MsgFlushOK   uint8 = 15 // payload: uint64 seq
	MsgDrop      uint8 = 16 // drop a session
	MsgDropOK    uint8 = 17
	MsgErr       uint8 = 18 // status in header, human-readable text payload

	// Replication frames (see internal/repl). A follower opens a plain
	// rimwire connection to the leader's feed listener, handshakes, and
	// sends MsgReplSubscribe with its node id, epoch, and resume cursor.
	// The leader answers with a stream of MsgReplRecords frames — each a
	// run of committed WAL records plus the cursor to resume after them —
	// and the follower acknowledges applied positions with MsgReplAck.
	// MsgReplRecords frames are server-push: they share the subscribe
	// request's id but arrive many-for-one, which is why a client that
	// multiplexes by request id must treat them as unknown (see
	// ErrUnknownType) rather than as a response.
	MsgReplSubscribe uint8 = 19 // follower → leader: node id, epoch, cursor
	MsgReplRecords   uint8 = 20 // leader → follower: committed record run
	MsgReplAck       uint8 = 21 // follower → leader: applied-through cursor

	// Subscription frames (see internal/sub). A client registers a
	// standing predicate with MsgSubscribe (session string + fixed
	// 37-byte predicate record) and receives the subscription id in
	// MsgSubscribeOK. Matching events then arrive as MsgEvent frames —
	// server-push, never solicited by a request, interleaved with the
	// connection's ordinary responses. An MsgEvent frame's header id
	// carries the subscription id (NOT a request id) and its payload is
	// one fixed 38-byte event record; a multiplexing client must demux
	// these to its event handler before consulting the response
	// whitelist. MsgUnsubscribe (uint64 subscription id) detaches one
	// subscription; events already in flight may still arrive after the
	// MsgUnsubscribeOK.
	MsgSubscribe     uint8 = 22 // register a standing predicate
	MsgSubscribeOK   uint8 = 23 // payload: uint64 subscription id
	MsgUnsubscribe   uint8 = 24 // payload: uint64 subscription id
	MsgUnsubscribeOK uint8 = 25
	MsgEvent         uint8 = 26 // server-push: one fixed event record
)

// IsResponseType reports whether t is a frame type a server may send in
// answer to a plain request — the complete whitelist a multiplexing
// client accepts on its read loop. Push-stream types (MsgReplRecords,
// MsgEvent) and request types are deliberately excluded: anything
// outside this set must surface as ErrUnknownType, never be silently
// matched to a waiting request by id. (The wire.Client demuxes MsgEvent
// to its event handler before consulting this whitelist.)
func IsResponseType(t uint8) bool {
	switch t {
	case MsgHelloOK, MsgPong, MsgCreateOK, MsgMutateOK, MsgSummaryOK,
		MsgNodesOK, MsgFlushOK, MsgDropOK, MsgErr,
		MsgSubscribeOK, MsgUnsubscribeOK:
		return true
	}
	return false
}

// Response status codes (header offset 6). Deliberately the HTTP
// numbers, so the two front doors speak one operational language and
// the 429 semantics documented for the JSON facade carry over verbatim.
const (
	StatusOK       = 0
	StatusBad      = 400 // malformed frame or rejected mutation
	StatusReadOnly = 403 // follower role: mutations only via replication
	StatusNotFound = 404 // no such session
	StatusExists   = 409 // session id already taken / stale repl epoch
	StatusGone     = 410 // session closed / repl cursor pruned
	StatusAgain    = 429 // queue full: wait and resubmit (Retry-After analog)
	StatusInternal = 500
)

// Decode errors. ErrFrameTooBig is the allocation-bomb guard: it fires
// on the length word alone, before any payload buffer is grown.
var (
	ErrFrameTooBig = errors.New("wire: frame length exceeds limit")
	ErrTruncated   = errors.New("wire: frame truncated")
	ErrChecksum    = errors.New("wire: payload crc mismatch")
	ErrBadPayload  = errors.New("wire: malformed payload")
	// ErrUnknownType fires when a frame's type is outside the set the
	// receiver can legally handle — a client read loop that sees a
	// non-response type (IsResponseType false) fails the connection with
	// it instead of mis-parsing the frame as some request's answer.
	ErrUnknownType = errors.New("wire: unknown frame type")
)

// Error is a decoded MsgErr response: the status code plus the server's
// message text.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: status %d: %s", e.Status, e.Msg) }

// IsBackpressure reports whether err is the server's queue-full signal
// (status 429): not a failure, an instruction to wait and resubmit.
func IsBackpressure(err error) bool {
	var we *Error
	return errors.As(err, &we) && we.Status == StatusAgain
}

// Summary is the fixed-layout session summary a MsgSummaryOK carries —
// the binary twin of the HTTP summary document.
type Summary struct {
	N        uint32
	Max      uint32
	Edges    uint32
	Events   uint32
	Rebuilds uint32
	Queue    uint32
	Seq      uint64
	Avg      float64
	AgeNS    int64
}

// Node is one fixed 36-byte record of a MsgNodesOK payload.
type Node struct {
	ID      int64
	X, Y, R float64
	I       uint32
}
