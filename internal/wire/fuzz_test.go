package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/geom"
	"repro/internal/serve"
)

// fuzzMax is the frame limit the fuzz harness runs with — small enough
// that an input triggering buffer growth past it is immediately a
// finding, large enough to exercise real payloads.
const fuzzMax = 1 << 16

// FuzzWireDecode throws arbitrary byte streams at the frame reader and
// every payload decoder. The invariants: no panic, no payload longer
// than the limit ever escapes, and a frame that round-trips back
// through the encoder reproduces its bytes exactly.
func FuzzWireDecode(f *testing.F) {
	// Seed with one well-formed frame of every payload shape, with and
	// without CRC trailers, plus classic adversarial prefixes.
	var ops []byte
	ops = AppendString(ops, "fuzz")
	ops = serve.AppendOps(ops, []serve.Mutation{
		serve.Add(1, 2), serve.Remove(3), serve.Move(4, 5, 6),
		serve.SetRadius(7, 8), serve.AnnealStep(9, 10),
	})
	var create []byte
	create = AppendString(create, "fuzz")
	create = serve.AppendPoints(create, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)})
	var gen []byte
	gen = AppendString(gen, "fuzz")
	gen = AppendGenSpec(gen, GenSpec{N: 16, Seed: 1, Side: 2})
	var nodes []byte
	nodes = AppendNodes(nodes, 3, []serve.NodeState{{ID: 1, X: 2, Y: 3, R: 4, I: 5}})

	for _, crc := range []bool{false, true} {
		var s []byte
		s = AppendFrame(s, MsgHello, 0, 0, AppendHello(nil), crc)
		s = AppendFrame(s, MsgMutate, 0, 1, ops, crc)
		s = AppendFrame(s, MsgCreate, 0, 2, create, crc)
		s = AppendFrame(s, MsgCreateGen, 0, 3, gen, crc)
		s = AppendFrame(s, MsgSummaryOK, 0, 4, AppendSummary(nil, Summary{N: 1, Avg: 0.5}), crc)
		s = AppendFrame(s, MsgNodesOK, 0, 5, nodes, crc)
		s = AppendFrame(s, MsgMutateOK, 0, 6, AppendIDs(nil, []int64{1, 2}), crc)
		s = AppendFrame(s, MsgErr, StatusBad, 7, []byte("bad"), crc)
		f.Add(s)
	}
	// Truncated header.
	f.Add([]byte{1, 2, 3})
	// Length word claiming 1 GiB.
	var bomb [HeaderSize]byte
	PutHeader(bomb[:], Header{Len: 1 << 30, Type: MsgMutate})
	f.Add(bomb[:])
	// Torn payload: header promises more bytes than follow.
	torn := AppendFrame(nil, MsgErr, StatusBad, 8, []byte("payload"), false)
	f.Add(torn[:len(torn)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), fuzzMax)
		var muts []serve.Mutation
		var pts []geom.Point
		var ids []int64
		var nodeBuf []Node
		for {
			h, p, err := r.Next()
			if err != nil {
				if err != io.EOF && cap(r.buf) > fuzzMax+4 {
					t.Fatalf("buffer grew to %d past the %d limit on error %v", cap(r.buf), fuzzMax, err)
				}
				return
			}
			if len(p) != int(h.Len) || len(p) > fuzzMax {
				t.Fatalf("payload %d bytes escaped (header len %d, limit %d)", len(p), h.Len, fuzzMax)
			}
			// Re-encoding the decoded frame must reproduce its bytes.
			re := AppendFrame(nil, h.Type, h.Status, h.ID, p, h.Flags&FlagCRC != 0)
			end := int(HeaderSize + h.Len)
			if h.Flags&FlagCRC != 0 {
				end += 4
			}
			if len(re) != end {
				t.Fatalf("re-encode produced %d bytes, want %d", len(re), end)
			}
			// Every payload decoder must survive every payload.
			CheckHello(p)
			if s, rest, err := ReadString(p); err == nil {
				_ = s
				muts, _, _ = serve.DecodeOps(rest, muts[:0])
				pts, _, _ = serve.DecodePoints(rest, pts[:0])
				DecodeGenSpec(rest)
			}
			ids, _ = DecodeIDs(p, ids[:0])
			DecodeSummary(p)
			_, nodeBuf, _ = DecodeNodes(p, nodeBuf[:0])
			DecodeU64(p)
			DecodeU32(p)
		}
	})
}
