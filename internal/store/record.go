package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL record framing. A segment file is the header line
//
//	rimwal v2\n
//
// followed by length-prefixed, CRC-guarded records:
//
//	[uint32 LE body length][uint32 LE CRC32-C of body][body]
//
// where body is
//
//	[1 byte kind][uint64 LE seq][uvarint session length][session][payload]
//
// The payload is opaque to the store — the serving layer writes its
// binary mutation codec there (a trace stamp plus an op block per batch,
// a measure plus a point block per create). The seq is the session's
// mutation-log position after the record applies, which is what lets
// recovery skip records already covered by a checkpoint without parsing
// payloads.
//
// The header's version names the payload format. v1 segments carried
// text payloads; a segment whose header is a complete header of any
// other version is refused with ErrVersion and left untouched, and only
// a strict prefix of the current header — a crash during segment
// creation — is healed.

// RecordKind labels what a WAL record means to recovery.
type RecordKind uint8

const (
	// RecordCreate carries a session's initial instance.
	RecordCreate RecordKind = iota + 1
	// RecordBatch carries one applied mutation batch.
	RecordBatch
	// RecordDrop marks a session deleted; earlier records for it are dead.
	RecordDrop
)

// String names the kind for logs and errors.
func (k RecordKind) String() string {
	switch k {
	case RecordCreate:
		return "create"
	case RecordBatch:
		return "batch"
	case RecordDrop:
		return "drop"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one WAL entry.
type Record struct {
	Kind    RecordKind
	Session string
	Seq     uint64 // session mutation-log position after this record
	Payload []byte
}

// Decode/scan errors. ErrTruncated is the *clean* failure — a crash cut
// the final record short, and recovery heals by truncating to the last
// valid frame. ErrCorrupt is data damage recovery must not paper over.
// ErrVersion reports a segment written in another format version.
var (
	ErrTruncated = errors.New("store: wal truncated mid-record")
	ErrCorrupt   = errors.New("store: wal corrupt")
	ErrVersion   = errors.New("store: wal segment version not supported")
)

const (
	segmentMagic  = "rimwal v"
	segmentHeader = segmentMagic + "2\n"
	frameHead     = 8        // length + crc words
	maxRecordSize = 64 << 20 // sanity bound; a larger length word is corruption
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes rec (frame and body) onto buf and returns it.
// The body is built in place after an 8-byte placeholder and the frame
// head patched afterwards — no intermediate body slice, so a caller
// reusing buf appends without allocating (the BENCH_3 WAL throughput
// fix: the old encode built a fresh body per record and copied it).
func appendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame head placeholder
	buf = append(buf, byte(rec.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Session)))
	buf = append(buf, rec.Session...)
	buf = append(buf, rec.Payload...)
	body := buf[start+frameHead:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, crcTable))
	return buf
}

// decodeBody parses a frame body into a Record.
func decodeBody(body []byte) (Record, error) {
	if len(body) < 1+8+1 {
		return Record{}, fmt.Errorf("%w: body too short (%d bytes)", ErrCorrupt, len(body))
	}
	rec := Record{Kind: RecordKind(body[0])}
	if rec.Kind < RecordCreate || rec.Kind > RecordDrop {
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, body[0])
	}
	rec.Seq = binary.LittleEndian.Uint64(body[1:9])
	slen, n := binary.Uvarint(body[9:])
	if n <= 0 || slen > uint64(len(body)-9-n) {
		return Record{}, fmt.Errorf("%w: bad session length", ErrCorrupt)
	}
	off := 9 + n
	rec.Session = string(body[off : off+int(slen)])
	rec.Payload = append([]byte(nil), body[off+int(slen):]...)
	return rec, nil
}

// readRecord reads one framed record from r. It returns io.EOF at a clean
// record boundary, ErrTruncated when the stream ends mid-frame, and
// ErrCorrupt on CRC mismatch or an insane length word. size is the number
// of bytes the complete frame occupies.
func readRecord(r io.Reader) (rec Record, size int64, err error) {
	var head [frameHead]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("%w: frame header cut short", ErrTruncated)
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	sum := binary.LittleEndian.Uint32(head[4:8])
	if length > maxRecordSize {
		return Record{}, 0, fmt.Errorf("%w: record length %d exceeds sanity bound", ErrCorrupt, length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, 0, fmt.Errorf("%w: record body cut short", ErrTruncated)
	}
	if crc32.Checksum(body, crcTable) != sum {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	rec, err = decodeBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHead + int64(length), nil
}
