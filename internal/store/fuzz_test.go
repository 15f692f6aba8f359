package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// The seeds carry payloads in the serving layer's v2 encoding, spelled
// out by hand: store cannot import serve, and to it a payload is opaque
// bytes. v2Create is a create payload: measure "graph", zero points.
var v2Create = []byte("\x05graph\x00\x00\x00\x00")

// v2Batch is an untraced batch payload holding one add of node 7 at
// (1.5, -2): a zero trace stamp, the op count, and one op record.
func v2Batch() []byte {
	p := make([]byte, 17) // trace id, batch span, flags
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = append(p, 1) // serve.OpAdd
	p = binary.LittleEndian.AppendUint64(p, 7)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1.5))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(-2))
	return binary.LittleEndian.AppendUint64(p, 0)
}

// FuzzWALDecode throws arbitrary bytes at the record reader and checks
// the decode invariants that recovery leans on:
//
//   - readRecord never panics and never returns a record alongside an
//     error;
//   - every error is one of io.EOF (clean boundary), ErrTruncated, or
//     ErrCorrupt — recovery classifies on exactly these;
//   - a successful decode survives an encode/decode round trip
//     unchanged, and the reported frame size never runs past the input.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segmentHeader))
	f.Add(appendRecord(nil, Record{Kind: RecordCreate, Session: "s", Seq: 0, Payload: v2Create}))
	f.Add(appendRecord(nil, Record{Kind: RecordBatch, Session: "alpha", Seq: 42, Payload: v2Batch()}))
	f.Add(appendRecord(nil, Record{Kind: RecordDrop, Session: "alpha", Seq: 42}))
	// Two records back to back.
	f.Add(appendRecord(appendRecord(nil, Record{Kind: RecordBatch, Session: "a", Seq: 1, Payload: []byte("x")}),
		Record{Kind: RecordBatch, Session: "a", Seq: 2, Payload: []byte("y")}))
	// A frame cut mid-body.
	full := appendRecord(nil, Record{Kind: RecordBatch, Session: "sess", Seq: 9, Payload: []byte("torn")})
	f.Add(full[:len(full)-2])
	// A frame with a flipped payload byte (CRC mismatch).
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0x01
	f.Add(bad)
	// An insane length word.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		consumed := int64(0)
		for {
			rec, n, err := readRecord(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			if n <= frameHead {
				t.Fatalf("impossible frame size %d", n)
			}
			consumed += n
			if consumed > int64(len(data)) {
				t.Fatalf("reported size runs past input: consumed %d of %d", consumed, len(data))
			}
			// Round trip: the decoded record must encode and decode back
			// to itself.
			enc := appendRecord(nil, rec)
			rec2, n2, err2 := readRecord(bytes.NewReader(enc))
			if err2 != nil || n2 != int64(len(enc)) || !reflect.DeepEqual(rec2, rec) {
				t.Fatalf("round trip: %+v / %+v (n2=%d err=%v)", rec, rec2, n2, err2)
			}
		}
	})
}
