package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/serve"
)

// The codec: fixed little-endian stores and loads, append-style encode
// into caller-owned buffers, decode into caller-owned slices. Nothing in
// this file allocates once the caller's buffers have grown to the
// workload's steady-state sizes — the property BenchmarkWireCodec and
// TestCodecZeroAlloc enforce.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded fixed frame header.
type Header struct {
	Len    uint32 // payload length (CRC trailer excluded)
	Type   uint8
	Flags  uint8
	Status uint16
	ID     uint64
}

// DecodeHeader parses a 16-byte header. The caller guarantees
// len(b) >= HeaderSize.
func DecodeHeader(b []byte) Header {
	return Header{
		Len:    binary.LittleEndian.Uint32(b[0:4]),
		Type:   b[4],
		Flags:  b[5],
		Status: binary.LittleEndian.Uint16(b[6:8]),
		ID:     binary.LittleEndian.Uint64(b[8:16]),
	}
}

// PutHeader stores h into b. The caller guarantees len(b) >= HeaderSize.
func PutHeader(b []byte, h Header) {
	binary.LittleEndian.PutUint32(b[0:4], h.Len)
	b[4] = h.Type
	b[5] = h.Flags
	binary.LittleEndian.PutUint16(b[6:8], h.Status)
	binary.LittleEndian.PutUint64(b[8:16], h.ID)
}

// BeginFrame appends a header for a frame whose payload follows; the
// caller records start := len(dst) beforehand and closes the frame with
// EndFrame(dst, start, crc) once the payload is appended.
func BeginFrame(dst []byte, typ uint8, status uint16, id uint64) []byte {
	var hb [HeaderSize]byte
	PutHeader(hb[:], Header{Type: typ, Status: status, ID: id})
	return append(dst, hb[:]...)
}

// EndFrame patches the frame begun at start with the now-known payload
// length, optionally appending a CRC32-C trailer (and setting FlagCRC).
func EndFrame(dst []byte, start int, withCRC bool) []byte {
	payload := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	if withCRC {
		dst[start+5] |= FlagCRC
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	}
	return dst
}

// AppendFrame encodes one complete frame with an already-built payload.
func AppendFrame(dst []byte, typ uint8, status uint16, id uint64, payload []byte, withCRC bool) []byte {
	start := len(dst)
	dst = BeginFrame(dst, typ, status, id)
	dst = append(dst, payload...)
	return EndFrame(dst, start, withCRC)
}

// Reader decodes frames from a stream through one reusable payload
// buffer. The payload returned by Next is valid only until the following
// Next call — callers that keep bytes must copy them (the typed decode
// helpers all copy into caller-owned values, so the normal path never
// needs to).
type Reader struct {
	br  *bufio.Reader
	max int
	buf []byte
	hb  [HeaderSize]byte // header scratch; a stack array would escape through io.ReadFull
}

// NewReader wraps r; max <= 0 selects MaxFrame.
func NewReader(r io.Reader, max int) *Reader {
	if max <= 0 {
		max = MaxFrame
	}
	return &Reader{br: bufio.NewReaderSize(r, 64<<10), max: max}
}

// Buffered reports the bytes already read from the connection but not
// yet consumed — the server's "is the pipeline still feeding me"
// signal that decides when to flush responses.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// FrameBuffered reports whether a complete frame is already buffered,
// so the next Next call will return without touching the socket. This —
// not Buffered() == 0 — is the server's flush condition: under
// sustained traffic bufio refills chain across torn frame boundaries
// and the buffer almost never fully drains, which would hold responses
// hostage to the next arrival gap (measured: ~15ms p50 on a 15µs-RTT
// loopback before the fix). A header that will fail to decode counts as
// "buffered" so Next surfaces the error promptly.
func (r *Reader) FrameBuffered() bool {
	b := r.br.Buffered()
	if b < HeaderSize {
		return false
	}
	hb, err := r.br.Peek(HeaderSize)
	if err != nil {
		return false
	}
	h := DecodeHeader(hb)
	if int(h.Len) > r.max {
		return true
	}
	need := HeaderSize + int(h.Len)
	if h.Flags&FlagCRC != 0 {
		need += 4
	}
	return b >= need
}

// Next reads one frame. It returns io.EOF only at a clean frame
// boundary; a stream cut mid-frame is ErrTruncated. The length word is
// checked against the limit before the payload buffer grows, so an
// adversarial frame cannot force an allocation (ErrFrameTooBig).
func (r *Reader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(r.br, r.hb[:]); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("%w: header cut short", ErrTruncated)
	}
	h := DecodeHeader(r.hb[:])
	if int(h.Len) > r.max {
		return h, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, h.Len, r.max)
	}
	need := int(h.Len)
	if h.Flags&FlagCRC != 0 {
		need += 4
	}
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	buf := r.buf[:need]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return h, nil, fmt.Errorf("%w: payload cut short", ErrTruncated)
	}
	p := buf[:h.Len]
	if h.Flags&FlagCRC != 0 {
		if crc32.Checksum(p, crcTable) != binary.LittleEndian.Uint32(buf[h.Len:]) {
			return h, nil, ErrChecksum
		}
	}
	return h, p, nil
}

// Handshake payload: magic + version byte.

// AppendHello appends the rimwire handshake payload.
func AppendHello(dst []byte) []byte {
	dst = append(dst, Magic...)
	return append(dst, Version)
}

// CheckHello validates a handshake payload.
func CheckHello(p []byte) error {
	if len(p) != len(Magic)+1 || string(p[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: not a rimwire hello", ErrBadPayload)
	}
	if p[len(Magic)] != Version {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadPayload, p[len(Magic)], Version)
	}
	return nil
}

// Strings are uint16-length-prefixed; only session IDs and error text
// use them.

// AppendString appends a uint16-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// ReadString slices a length-prefixed string off the front of p,
// returning the string bytes (a view into p — copy to keep) and the
// rest.
func ReadString(p []byte) (s, rest []byte, err error) {
	if len(p) < 2 {
		return nil, nil, fmt.Errorf("%w: string length cut short", ErrBadPayload)
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p)-2 < n {
		return nil, nil, fmt.Errorf("%w: string body cut short", ErrBadPayload)
	}
	return p[2 : 2+n], p[2+n:], nil
}

// AppendIDs appends a MsgMutateOK payload: the ids assigned to OpAdd
// mutations, in order.
func AppendIDs(dst []byte, ids []int64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
	}
	return dst
}

// DecodeIDs parses a MsgMutateOK payload into the caller's slice.
func DecodeIDs(p []byte, into []int64) ([]int64, error) {
	if len(p) < 4 {
		return into, fmt.Errorf("%w: id count cut short", ErrBadPayload)
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) != count*8 {
		return into, fmt.Errorf("%w: %d ids but %d payload bytes", ErrBadPayload, count, len(p))
	}
	for i := 0; i < count; i++ {
		into = append(into, int64(binary.LittleEndian.Uint64(p[i*8:])))
	}
	return into, nil
}

// GenSpec is the MsgCreateGen payload after the session id: generate a
// uniform instance server-side instead of shipping n points.
type GenSpec struct {
	N    uint32
	Seed int64
	Side float64
}

// AppendGenSpec appends a generation spec.
func AppendGenSpec(dst []byte, g GenSpec) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, g.N)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.Seed))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(g.Side))
}

// DecodeGenSpec parses a generation spec.
func DecodeGenSpec(p []byte) (GenSpec, error) {
	if len(p) != 20 {
		return GenSpec{}, fmt.Errorf("%w: gen spec is %d bytes (want 20)", ErrBadPayload, len(p))
	}
	return GenSpec{
		N:    binary.LittleEndian.Uint32(p[0:4]),
		Seed: int64(binary.LittleEndian.Uint64(p[4:12])),
		Side: math.Float64frombits(binary.LittleEndian.Uint64(p[12:20])),
	}, nil
}

// summarySize is the fixed MsgSummaryOK payload length.
const summarySize = 48

// AppendSummary appends the fixed summary record.
func AppendSummary(dst []byte, s Summary) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, s.N)
	dst = binary.LittleEndian.AppendUint32(dst, s.Max)
	dst = binary.LittleEndian.AppendUint32(dst, s.Edges)
	dst = binary.LittleEndian.AppendUint32(dst, s.Events)
	dst = binary.LittleEndian.AppendUint32(dst, s.Rebuilds)
	dst = binary.LittleEndian.AppendUint32(dst, s.Queue)
	dst = binary.LittleEndian.AppendUint64(dst, s.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Avg))
	return binary.LittleEndian.AppendUint64(dst, uint64(s.AgeNS))
}

// DecodeSummary parses a fixed summary record.
func DecodeSummary(p []byte) (Summary, error) {
	if len(p) != summarySize {
		return Summary{}, fmt.Errorf("%w: summary is %d bytes (want %d)", ErrBadPayload, len(p), summarySize)
	}
	return Summary{
		N:        binary.LittleEndian.Uint32(p[0:4]),
		Max:      binary.LittleEndian.Uint32(p[4:8]),
		Edges:    binary.LittleEndian.Uint32(p[8:12]),
		Events:   binary.LittleEndian.Uint32(p[12:16]),
		Rebuilds: binary.LittleEndian.Uint32(p[16:20]),
		Queue:    binary.LittleEndian.Uint32(p[20:24]),
		Seq:      binary.LittleEndian.Uint64(p[24:32]),
		Avg:      math.Float64frombits(binary.LittleEndian.Uint64(p[32:40])),
		AgeNS:    int64(binary.LittleEndian.Uint64(p[40:48])),
	}, nil
}

// nodeRecordSize is the fixed per-node record length in a MsgNodesOK
// payload: id, x, y, r, i.
const nodeRecordSize = 36

// AppendNodes appends a MsgNodesOK payload from a published snapshot:
// seq, count, then one fixed record per node.
func AppendNodes(dst []byte, seq uint64, nodes []serve.NodeState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(nodes)))
	for i := range nodes {
		n := &nodes[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n.ID))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.Y))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.R))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n.I))
	}
	return dst
}

// DecodeNodes parses a MsgNodesOK payload into the caller's slice.
func DecodeNodes(p []byte, into []Node) (seq uint64, nodes []Node, err error) {
	if len(p) < 12 {
		return 0, into, fmt.Errorf("%w: nodes header cut short", ErrBadPayload)
	}
	seq = binary.LittleEndian.Uint64(p[0:8])
	count := int(binary.LittleEndian.Uint32(p[8:12]))
	p = p[12:]
	if count < 0 || len(p) != count*nodeRecordSize {
		return 0, into, fmt.Errorf("%w: %d nodes but %d payload bytes", ErrBadPayload, count, len(p))
	}
	for i := 0; i < count; i++ {
		rec := p[i*nodeRecordSize : (i+1)*nodeRecordSize]
		into = append(into, Node{
			ID: int64(binary.LittleEndian.Uint64(rec[0:8])),
			X:  math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			Y:  math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24])),
			R:  math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32])),
			I:  binary.LittleEndian.Uint32(rec[32:36]),
		})
	}
	return seq, into, nil
}

// AppendU64 / DecodeU64 cover the single-word payloads (MsgFlushOK seq,
// MsgCreateOK n as uint32 via the dedicated helpers below).
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// DecodeU64 parses a single-uint64 payload.
func DecodeU64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: %d bytes (want 8)", ErrBadPayload, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// AppendU32 appends a single uint32 payload word.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// DecodeU32 parses a single-uint32 payload.
func DecodeU32(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("%w: %d bytes (want 4)", ErrBadPayload, len(p))
	}
	return binary.LittleEndian.Uint32(p), nil
}
