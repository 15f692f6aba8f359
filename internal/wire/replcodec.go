package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/store"
)

// Replication payload layouts. Cursors travel as two little-endian
// words (segment index uint64, byte offset uint64); offsets with the
// top bit set are rejected at decode so they can never go negative
// through the int64 conversion.
//
//	MsgReplSubscribe: u16-str node id | u64 epoch | cursor
//	MsgReplRecords:   u64 epoch | cursor from | cursor next | u32 count |
//	                  count × (u8 kind | u64 seq | u16-str session |
//	                           u32 payload-len | payload)
//	MsgReplAck:       u64 epoch | cursor
//
// Every count and length word is validated against the remaining
// payload bytes before any allocation grows — the same length-bomb
// discipline as serve.DecodeOps, exercised adversarially by FuzzReplDecode.

const replCursorSize = 16

func appendCursor(dst []byte, c store.Cursor) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.Seg)
	return binary.LittleEndian.AppendUint64(dst, uint64(c.Off))
}

func decodeCursor(p []byte) (store.Cursor, error) {
	off := binary.LittleEndian.Uint64(p[8:16])
	if off > math.MaxInt64 {
		return store.Cursor{}, fmt.Errorf("%w: cursor offset overflows", ErrBadPayload)
	}
	return store.Cursor{Seg: binary.LittleEndian.Uint64(p[0:8]), Off: int64(off)}, nil
}

// ReplSubscribe is a decoded MsgReplSubscribe payload: the follower's
// identity, the leader epoch it expects (0 accepts any), and the cursor
// to resume streaming from.
type ReplSubscribe struct {
	NodeID string
	Epoch  uint64
	Cursor store.Cursor
}

// AppendReplSubscribe appends a MsgReplSubscribe payload.
func AppendReplSubscribe(dst []byte, sub ReplSubscribe) []byte {
	dst = AppendString(dst, sub.NodeID)
	dst = binary.LittleEndian.AppendUint64(dst, sub.Epoch)
	return appendCursor(dst, sub.Cursor)
}

// DecodeReplSubscribe parses a MsgReplSubscribe payload.
func DecodeReplSubscribe(p []byte) (ReplSubscribe, error) {
	id, rest, err := ReadString(p)
	if err != nil {
		return ReplSubscribe{}, err
	}
	if len(rest) != 8+replCursorSize {
		return ReplSubscribe{}, fmt.Errorf("%w: subscribe tail is %d bytes (want %d)", ErrBadPayload, len(rest), 8+replCursorSize)
	}
	cur, err := decodeCursor(rest[8:])
	if err != nil {
		return ReplSubscribe{}, err
	}
	return ReplSubscribe{
		NodeID: string(id),
		Epoch:  binary.LittleEndian.Uint64(rest[0:8]),
		Cursor: cur,
	}, nil
}

// ReplAck is a decoded MsgReplAck payload: the epoch the follower is
// following, the cursor it has durably applied through, and the
// follower's wall clock midway between receiving the acked frame and
// sending the ack. WallNS is the raw
// material of cross-node clock-offset estimation (cmd/rimtrace): the
// leader remembers when it sent the records frame whose next-cursor the
// ack echoes, so ack arrival minus send time is the round trip and
// WallNS − (send + RTT/2) estimates the follower's clock offset.
type ReplAck struct {
	Epoch  uint64
	Cursor store.Cursor
	WallNS int64 // follower wall clock, receipt/ack midpoint; 0 from legacy peers
}

// replAckLegacySize is the pre-tracing ack payload (no timestamp);
// replAckSize is the current form. Decode accepts both so a mid-upgrade
// cluster keeps replicating.
const (
	replAckLegacySize = 8 + replCursorSize
	replAckSize       = replAckLegacySize + 8
)

// AppendReplAck appends a MsgReplAck payload.
func AppendReplAck(dst []byte, ack ReplAck) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ack.Epoch)
	dst = appendCursor(dst, ack.Cursor)
	return binary.LittleEndian.AppendUint64(dst, uint64(ack.WallNS))
}

// DecodeReplAck parses a MsgReplAck payload (with or without the
// trailing wall-clock word).
func DecodeReplAck(p []byte) (ReplAck, error) {
	if len(p) != replAckLegacySize && len(p) != replAckSize {
		return ReplAck{}, fmt.Errorf("%w: ack is %d bytes (want %d or %d)", ErrBadPayload, len(p), replAckLegacySize, replAckSize)
	}
	cur, err := decodeCursor(p[8:])
	if err != nil {
		return ReplAck{}, err
	}
	ack := ReplAck{Epoch: binary.LittleEndian.Uint64(p[0:8]), Cursor: cur}
	if len(p) == replAckSize {
		ack.WallNS = int64(binary.LittleEndian.Uint64(p[replAckLegacySize:]))
	}
	return ack, nil
}

// replRecordsHead is the fixed prefix of a MsgReplRecords payload:
// epoch, from cursor, next cursor, record count.
const replRecordsHead = 8 + 2*replCursorSize + 4

// replRecordMin is the smallest possible encoded record: kind, seq,
// empty session, empty payload.
const replRecordMin = 1 + 8 + 2 + 4

// AppendReplRecords appends a MsgReplRecords payload: a run of
// committed WAL records covering the log range [from, next).
func AppendReplRecords(dst []byte, epoch uint64, from, next store.Cursor, recs []store.Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = appendCursor(dst, from)
	dst = appendCursor(dst, next)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		dst = append(dst, byte(r.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = AppendString(dst, r.Session)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	return dst
}

// DecodeReplRecords parses a MsgReplRecords payload into the caller's
// slice (appended to; pass into[:0] to reuse). Sessions and payloads
// are copied out of p, so the records outlive the reader's frame
// buffer. The count word is cross-checked against the remaining bytes
// record by record, so a forged count cannot balloon the slice.
func DecodeReplRecords(p []byte, into []store.Record) (epoch uint64, from, next store.Cursor, recs []store.Record, err error) {
	if len(p) < replRecordsHead {
		return 0, from, next, into, fmt.Errorf("%w: records head is %d bytes (want >= %d)", ErrBadPayload, len(p), replRecordsHead)
	}
	epoch = binary.LittleEndian.Uint64(p[0:8])
	if from, err = decodeCursor(p[8 : 8+replCursorSize]); err != nil {
		return 0, from, next, into, err
	}
	if next, err = decodeCursor(p[8+replCursorSize : 8+2*replCursorSize]); err != nil {
		return 0, from, next, into, err
	}
	count := int(binary.LittleEndian.Uint32(p[8+2*replCursorSize : replRecordsHead]))
	p = p[replRecordsHead:]
	if count < 0 || len(p) < count*replRecordMin {
		return 0, from, next, into, fmt.Errorf("%w: %d records but %d payload bytes", ErrBadPayload, count, len(p))
	}
	for i := 0; i < count; i++ {
		if len(p) < 9 {
			return 0, from, next, into, fmt.Errorf("%w: record %d head cut short", ErrBadPayload, i)
		}
		kind := store.RecordKind(p[0])
		if kind < store.RecordCreate || kind > store.RecordDrop {
			return 0, from, next, into, fmt.Errorf("%w: record %d has unknown kind %d", ErrBadPayload, i, p[0])
		}
		seq := binary.LittleEndian.Uint64(p[1:9])
		sess, rest, serr := ReadString(p[9:])
		if serr != nil {
			return 0, from, next, into, fmt.Errorf("record %d: %w", i, serr)
		}
		if len(rest) < 4 {
			return 0, from, next, into, fmt.Errorf("%w: record %d payload length cut short", ErrBadPayload, i)
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if plen < 0 || len(rest) < plen {
			return 0, from, next, into, fmt.Errorf("%w: record %d claims %d payload bytes, %d remain", ErrBadPayload, i, plen, len(rest))
		}
		into = append(into, store.Record{
			Kind:    kind,
			Session: string(sess),
			Seq:     seq,
			Payload: append([]byte(nil), rest[:plen]...),
		})
		p = rest[plen:]
	}
	if len(p) != 0 {
		return 0, from, next, into, fmt.Errorf("%w: %d trailing bytes after %d records", ErrBadPayload, len(p), count)
	}
	return epoch, from, next, into, nil
}
