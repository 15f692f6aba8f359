package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/serve"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Len: 0xDEADBEEF, Type: MsgMutate, Flags: FlagCRC, Status: StatusAgain, ID: 1<<63 + 17}
	var b [HeaderSize]byte
	PutHeader(b[:], h)
	if got := DecodeHeader(b[:]); got != h {
		t.Fatalf("header round trip: got %+v want %+v", got, h)
	}
}

func readAll(t *testing.T, stream []byte, max int) []frame {
	t.Helper()
	r := NewReader(bytes.NewReader(stream), max)
	var out []frame
	for {
		h, p, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, frame{h, append([]byte(nil), p...)})
	}
}

type frame struct {
	h Header
	p []byte
}

func TestFrameRoundTrip(t *testing.T) {
	for _, crc := range []bool{false, true} {
		var stream []byte
		stream = AppendFrame(stream, MsgPing, 0, 1, nil, crc)
		stream = AppendFrame(stream, MsgErr, StatusBad, 2, []byte("boom"), crc)
		stream = AppendFrame(stream, MsgSummaryOK, 0, 3, make([]byte, summarySize), crc)

		frames := readAll(t, stream, 0)
		if len(frames) != 3 {
			t.Fatalf("crc=%v: decoded %d frames, want 3", crc, len(frames))
		}
		if frames[0].h.Type != MsgPing || frames[0].h.ID != 1 || len(frames[0].p) != 0 {
			t.Errorf("crc=%v: frame 0 = %+v", crc, frames[0])
		}
		if frames[1].h.Status != StatusBad || string(frames[1].p) != "boom" {
			t.Errorf("crc=%v: frame 1 = %+v", crc, frames[1])
		}
		wantFlags := uint8(0)
		if crc {
			wantFlags = FlagCRC
		}
		if frames[2].h.Flags != wantFlags {
			t.Errorf("crc=%v: frame 2 flags = %d", crc, frames[2].h.Flags)
		}
	}
}

func TestBeginEndFrame(t *testing.T) {
	var buf []byte
	start := len(buf)
	buf = BeginFrame(buf, MsgNodesOK, 0, 9)
	buf = AppendU64(buf, 42)
	buf = EndFrame(buf, start, true)

	frames := readAll(t, buf, 0)
	if len(frames) != 1 {
		t.Fatalf("decoded %d frames, want 1", len(frames))
	}
	v, err := DecodeU64(frames[0].p)
	if err != nil || v != 42 {
		t.Fatalf("payload = %d, %v", v, err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	p := AppendHello(nil)
	if err := CheckHello(p); err != nil {
		t.Fatalf("CheckHello(valid): %v", err)
	}
	if err := CheckHello([]byte("rimwirex")); err == nil {
		t.Fatal("CheckHello accepted wrong magic")
	}
	bad := AppendHello(nil)
	bad[len(bad)-1] = 99
	if err := CheckHello(bad); err == nil {
		t.Fatal("CheckHello accepted wrong version")
	}
}

func TestStringRoundTrip(t *testing.T) {
	p := AppendString(nil, "bench")
	p = AppendU32(p, 7)
	s, rest, err := ReadString(p)
	if err != nil || string(s) != "bench" {
		t.Fatalf("ReadString: %q, %v", s, err)
	}
	if v, _ := DecodeU32(rest); v != 7 {
		t.Fatalf("rest = %v", rest)
	}
	if _, _, err := ReadString([]byte{5}); err == nil {
		t.Fatal("accepted truncated length prefix")
	}
	if _, _, err := ReadString([]byte{5, 0, 'a'}); err == nil {
		t.Fatal("accepted truncated string body")
	}
}

func TestPointsIDsGenSpecRoundTrip(t *testing.T) {
	// A MsgCreate payload: the session id, then serve's point block.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1.5, -0.5), geom.Pt(math.Pi, math.E)}
	sid, p, err := ReadString(serve.AppendPoints(AppendString(nil, "s"), pts))
	if err != nil || string(sid) != "s" {
		t.Fatalf("ReadString: %q %v", sid, err)
	}
	got, rest, err := serve.DecodePoints(p, nil)
	if err != nil || len(rest) != 0 || len(got) != len(pts) {
		t.Fatalf("DecodePoints: %v %v %v", got, rest, err)
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Errorf("point %d: got %v want %v", i, got[i], pts[i])
		}
	}

	ids := []int64{1, -5, 1 << 40}
	gotIDs, err := DecodeIDs(AppendIDs(nil, ids), nil)
	if err != nil || len(gotIDs) != 3 || gotIDs[1] != -5 || gotIDs[2] != 1<<40 {
		t.Fatalf("DecodeIDs: %v %v", gotIDs, err)
	}

	g := GenSpec{N: 4096, Seed: -77, Side: 12.8}
	gotG, err := DecodeGenSpec(AppendGenSpec(nil, g))
	if err != nil || gotG != g {
		t.Fatalf("DecodeGenSpec: %+v %v", gotG, err)
	}
}

func TestSummaryNodesRoundTrip(t *testing.T) {
	s := Summary{N: 10, Max: 4, Edges: 20, Events: 3, Rebuilds: 1, Queue: 2, Seq: 99, Avg: 2.25, AgeNS: -1}
	got, err := DecodeSummary(AppendSummary(nil, s))
	if err != nil || got != s {
		t.Fatalf("DecodeSummary: %+v %v", got, err)
	}

	nodes := []serve.NodeState{
		{ID: 0, X: 1, Y: 2, R: 3, I: 4},
		{ID: 1 << 33, X: -1, Y: -2, R: 0.5, I: 0},
	}
	p := AppendNodes(nil, 7, nodes)
	seq, gotN, err := DecodeNodes(p, nil)
	if err != nil || seq != 7 || len(gotN) != 2 {
		t.Fatalf("DecodeNodes: seq=%d n=%d err=%v", seq, len(gotN), err)
	}
	for i, n := range nodes {
		want := Node{ID: n.ID, X: n.X, Y: n.Y, R: n.R, I: uint32(n.I)}
		if gotN[i] != want {
			t.Errorf("node %d: got %+v want %+v", i, gotN[i], want)
		}
	}
}

// TestReaderOversizedRejectedBeforeAllocation is the allocation-bomb
// guard: a frame whose length word exceeds the limit must be refused on
// the header alone, with the reader's payload buffer untouched.
func TestReaderOversizedRejectedBeforeAllocation(t *testing.T) {
	var hb [HeaderSize]byte
	PutHeader(hb[:], Header{Len: 1 << 30, Type: MsgMutate, ID: 1})
	r := NewReader(bytes.NewReader(hb[:]), 1<<16)
	_, _, err := r.Next()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if r.buf != nil {
		t.Fatalf("payload buffer grew to %d bytes on a rejected length", cap(r.buf))
	}
}

func TestReaderTruncation(t *testing.T) {
	// Header cut short.
	r := NewReader(bytes.NewReader([]byte{1, 2, 3}), 0)
	if _, _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	// Payload torn mid-frame.
	full := AppendFrame(nil, MsgErr, StatusBad, 9, []byte("payload"), false)
	r = NewReader(bytes.NewReader(full[:len(full)-3]), 0)
	if _, _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn payload: %v", err)
	}
	// Clean EOF at a frame boundary is io.EOF, not ErrTruncated.
	r = NewReader(bytes.NewReader(full), 0)
	if _, _, err := r.Next(); err != nil {
		t.Fatalf("whole frame: %v", err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("at boundary: %v, want io.EOF", err)
	}
}

func TestReaderCRCMismatch(t *testing.T) {
	stream := AppendFrame(nil, MsgErr, StatusBad, 9, []byte("payload"), true)
	stream[HeaderSize+2] ^= 0xFF // corrupt the payload under the CRC
	r := NewReader(bytes.NewReader(stream), 0)
	if _, _, err := r.Next(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// loopReader replays one byte stream forever — an endless frame source
// for steady-state decode measurement.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestCodecZeroAlloc locks the tentpole's core property: once buffers
// have reached steady-state size, encoding and decoding a mutate frame
// allocates nothing.
func TestCodecZeroAlloc(t *testing.T) {
	ops := []serve.Mutation{
		serve.SetRadius(3, 1.125),
		serve.Move(7, 0.25, 0.75),
		serve.Add(1, 2),
	}

	// Encode: append a full request frame into a reused buffer.
	buf := make([]byte, 0, 512)
	encode := func() {
		start := 0
		buf = BeginFrame(buf[:0], MsgMutate, 0, 42)
		buf = AppendString(buf, "bench")
		buf = serve.AppendOps(buf, ops)
		buf = EndFrame(buf, start, false)
	}
	encode()
	if allocs := testing.AllocsPerRun(1000, encode); allocs != 0 {
		t.Errorf("encode allocates %v per frame, want 0", allocs)
	}

	// Decode: reader + op slice reuse across frames. The error paths
	// panic with constants so nothing in the hot path escapes to the
	// heap (a t.Fatalf referencing locals would itself cost an alloc).
	r := NewReader(&loopReader{data: buf}, 0)
	muts := make([]serve.Mutation, 0, 8)
	decode := func() {
		h, p, err := r.Next()
		if err != nil || h.Type != MsgMutate {
			panic("decode: bad frame")
		}
		_, rest, err := ReadString(p)
		if err != nil {
			panic("decode: bad session id")
		}
		muts, _, err = serve.DecodeOps(rest, muts[:0])
		if err != nil || len(muts) != 3 {
			panic("decode: bad ops")
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(1000, decode); allocs != 0 {
		t.Errorf("decode allocates %v per frame, want 0", allocs)
	}
}
