package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/obs"
)

// The binary mutation codec: the one encoding of a Mutation, of an
// instance's points, and of a trace context. rimwire frames carry it,
// and so do the WAL's create and batch records, which the replication
// stream ships verbatim — a wire server, a follower, and a recovering
// node decode the same bytes the same way. Stores and loads are fixed
// little-endian, encode appends into caller-owned buffers, and decode
// appends into caller-owned slices, so the wire hot path allocates
// nothing at steady state (TestCodecZeroAlloc in internal/wire).

// ErrBadEncoding reports bytes that are not a valid op block, point
// block, or WAL payload. Every decoder in this file wraps it.
var ErrBadEncoding = errors.New("serve: malformed binary encoding")

// Mutation ops: a uint32 count word, then fixed 33-byte records, one
// per Mutation —
//
//	offset 0   uint8  op (the Op value)
//	offset 1   int64  node id
//	offset 9   uint64 a
//	offset 17  uint64 b
//	offset 25  uint64 c
//
// with a/b/c carrying the op-specific fields as raw little-endian
// words: add/move store x/y float bits in a/b; set_radius stores r bits
// in a; anneal stores iters in a and seed in b. Unused words are zero.
// Integers travel as integers, so a seed or id above 2^53 survives.

// OpRecordSize is the fixed encoded size of one mutation op.
const OpRecordSize = 33

// AppendOps appends the op-count word and the fixed records for ops.
func AppendOps(dst []byte, ops []Mutation) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	for i := range ops {
		mu := &ops[i]
		var a, b, c uint64
		switch mu.Op {
		case OpAdd, OpMove:
			a, b = math.Float64bits(mu.X), math.Float64bits(mu.Y)
		case OpSetRadius:
			a = math.Float64bits(mu.R)
		case OpAnneal:
			a, b = uint64(mu.Iters), uint64(mu.Seed)
		}
		dst = append(dst, byte(mu.Op))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(mu.Node))
		dst = binary.LittleEndian.AppendUint64(dst, a)
		dst = binary.LittleEndian.AppendUint64(dst, b)
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	return dst
}

// DecodeOps parses an op block into the caller's slice (appended to, so
// pass into[:0] to reuse) and returns the bytes after it. The count
// word is cross-checked against the actual byte length before any slice
// growth.
func DecodeOps(p []byte, into []Mutation) ([]Mutation, []byte, error) {
	if len(p) < 4 {
		return into, nil, fmt.Errorf("%w: op count cut short", ErrBadEncoding)
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if count < 0 || len(p) < count*OpRecordSize {
		return into, nil, fmt.Errorf("%w: %d ops but %d payload bytes", ErrBadEncoding, count, len(p))
	}
	for i := 0; i < count; i++ {
		rec := p[i*OpRecordSize : (i+1)*OpRecordSize]
		op := Op(rec[0])
		if op < OpAdd || op > OpAnneal {
			return into, nil, fmt.Errorf("%w: unknown op %d", ErrBadEncoding, rec[0])
		}
		mu := Mutation{
			Op:   op,
			Node: int64(binary.LittleEndian.Uint64(rec[1:9])),
		}
		a := binary.LittleEndian.Uint64(rec[9:17])
		b := binary.LittleEndian.Uint64(rec[17:25])
		switch op {
		case OpAdd, OpMove:
			mu.X, mu.Y = math.Float64frombits(a), math.Float64frombits(b)
		case OpSetRadius:
			mu.R = math.Float64frombits(a)
		case OpAnneal:
			if a > math.MaxInt32 {
				return into, nil, fmt.Errorf("%w: anneal iters %d out of range", ErrBadEncoding, a)
			}
			mu.Iters = int(a)
			mu.Seed = int64(b)
		}
		into = append(into, mu)
	}
	return into, p[count*OpRecordSize:], nil
}

// Points: uint32 count + 16 bytes (x, y float bits) each.

// AppendPoints appends a point block.
func AppendPoints(dst []byte, pts []geom.Point) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pts)))
	for _, p := range pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
	}
	return dst
}

// DecodePoints parses a point block into the caller's slice and returns
// the bytes after it.
func DecodePoints(p []byte, into []geom.Point) ([]geom.Point, []byte, error) {
	if len(p) < 4 {
		return into, nil, fmt.Errorf("%w: point count cut short", ErrBadEncoding)
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if count < 0 || len(p) < count*16 {
		return into, nil, fmt.Errorf("%w: %d points but %d payload bytes", ErrBadEncoding, count, len(p))
	}
	for i := 0; i < count; i++ {
		rec := p[i*16 : i*16+16]
		into = append(into, geom.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
			math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
		))
	}
	return into, p[count*16:], nil
}

// Trace stamp: the fixed 17-byte distributed-tracing block —
//
//	offset 0   uint64  trace id (0: untraced)
//	offset 8   uint64  span id
//	offset 16  uint8   flags (obs.TraceFlag* bits)
//
// A traced rimwire mutate frame appends one after its op block (span =
// the sender's span); a WAL batch record opens with one (span = the
// writer's serve.batch span, all zero when untraced).

// traceStampSize is the fixed encoded size of a trace stamp.
const traceStampSize = 17

// AppendTraceStamp appends one trace stamp.
func AppendTraceStamp(dst []byte, tc obs.TraceContext) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, tc.SpanID)
	return append(dst, tc.Flags)
}

// DecodeTraceStamp parses a trace stamp off the front of p and returns
// the rest.
func DecodeTraceStamp(p []byte) (obs.TraceContext, []byte, error) {
	if len(p) < traceStampSize {
		return obs.TraceContext{}, nil, fmt.Errorf("%w: trace stamp is %d bytes (want %d)", ErrBadEncoding, len(p), traceStampSize)
	}
	return obs.TraceContext{
		TraceID: binary.LittleEndian.Uint64(p[0:8]),
		SpanID:  binary.LittleEndian.Uint64(p[8:16]),
		Flags:   p[16],
	}, p[traceStampSize:], nil
}

// WAL payloads: a batch record is a trace stamp, then the op block of
// the batch in apply order (post-coalesce); a create record is the
// session's measure ([u8 length][name]), then its point block. Both
// decoders reject trailing bytes.

// appendBatchPayload appends a batch record payload.
func appendBatchPayload(dst []byte, batch []Mutation, stamp obs.TraceContext) []byte {
	return AppendOps(AppendTraceStamp(dst, stamp), batch)
}

// decodeBatchPayload inverts appendBatchPayload.
func decodeBatchPayload(p []byte) ([]Mutation, obs.TraceContext, error) {
	tc, rest, err := DecodeTraceStamp(p)
	if err != nil {
		return nil, tc, err
	}
	muts, rest, err := DecodeOps(rest, nil)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after the batch ops", ErrBadEncoding, len(rest))
	}
	return muts, tc, err
}

// appendCreatePayload appends a create record payload.
func appendCreatePayload(dst []byte, pts []geom.Point, measure string) []byte {
	dst = append(dst, byte(len(measure)))
	return AppendPoints(append(dst, measure...), pts)
}

// decodeCreatePayload inverts appendCreatePayload, validating the
// measure name.
func decodeCreatePayload(p []byte) ([]geom.Point, string, error) {
	if len(p) < 1 || len(p)-1 < int(p[0]) {
		return nil, "", fmt.Errorf("%w: create measure cut short", ErrBadEncoding)
	}
	n := 1 + int(p[0])
	measure, err := normalizeMeasure(string(p[1:n]))
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	pts, rest, err := DecodePoints(p[n:], nil)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after the create points", ErrBadEncoding, len(rest))
	}
	return pts, measure, err
}
