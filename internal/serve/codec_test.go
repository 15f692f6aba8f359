package serve

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

func TestOpsRoundTrip(t *testing.T) {
	ops := []Mutation{
		Add(1.5, -2.5),
		Remove(42),
		Move(7, 0.25, 0.75),
		SetRadius(3, 1.125),
		AnnealStep(500, -12345),
		AnnealStep(100, 1<<62+1),
		{Op: OpAdd, Node: 1<<53 + 1, X: 1, Y: 2},
	}
	p := AppendOps(nil, ops)
	if want := 4 + len(ops)*OpRecordSize; len(p) != want {
		t.Fatalf("encoded %d bytes, want %d", len(p), want)
	}
	got, rest, err := DecodeOps(p, nil)
	if err != nil {
		t.Fatalf("DecodeOps: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Errorf("op %d: got %+v want %+v", i, got[i], ops[i])
		}
	}
}

func TestOpsAdversarial(t *testing.T) {
	// Count word larger than the actual byte run must be rejected before
	// any slice growth.
	p := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, _, err := DecodeOps(p, nil); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("oversized count: %v", err)
	}
	// Unknown op byte.
	bad := AppendOps(nil, []Mutation{Remove(1)})
	bad[4] = 200
	if _, _, err := DecodeOps(bad, nil); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("unknown op: %v", err)
	}
	// Anneal iteration counts beyond int32 are rejected (they would wrap
	// through int on 32-bit builds and bypass the anneal budget cap).
	huge := AppendOps(nil, []Mutation{AnnealStep(1, 0)})
	binary.LittleEndian.PutUint64(huge[4+9:], uint64(math.MaxInt64))
	if _, _, err := DecodeOps(huge, nil); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("huge anneal iters: %v", err)
	}
}

// sameOps compares mutation slices field by field, floats by bit
// pattern, so NaN payloads a fuzzer feeds in compare equal to
// themselves.
func sameOps(a, b []Mutation) bool {
	if len(a) != len(b) {
		return false
	}
	fb := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.Op != y.Op || x.Node != y.Node || x.Iters != y.Iters || x.Seed != y.Seed ||
			fb(x.X) != fb(y.X) || fb(x.Y) != fb(y.Y) || fb(x.R) != fb(y.R) || x.TC != nil || y.TC != nil {
			return false
		}
	}
	return true
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// FuzzWALPayload throws arbitrary bytes at the WAL payload decoders —
// they read bytes from disk and from a replication peer. Invariants: no
// panic, every refusal wraps ErrBadEncoding, and on an accepted input
// decode of encode is the identity.
func FuzzWALPayload(f *testing.F) {
	ops := []Mutation{Add(1, 2), Remove(3), Move(4, 5, 6), SetRadius(7, 8), AnnealStep(9, 1<<62+1)}
	f.Add(appendBatchPayload(nil, ops, obs.TraceContext{}))
	f.Add(appendBatchPayload(nil, ops[:1], obs.TraceContext{TraceID: 0xabc, SpanID: 7, Flags: obs.TraceFlagSampled}))
	f.Add(appendCreatePayload(nil, []geom.Point{geom.Pt(0, 0), geom.Pt(1.5, -2)}, MeasureGraph))
	f.Add(appendCreatePayload(nil, nil, MeasureSinr))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		if muts, tc, err := decodeBatchPayload(p); err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("batch refusal does not wrap ErrBadEncoding: %v", err)
			}
		} else {
			muts2, tc2, err := decodeBatchPayload(appendBatchPayload(nil, muts, tc))
			if err != nil || tc2 != tc || !sameOps(muts2, muts) {
				t.Fatalf("batch decode(encode(x)) != x: %+v %+v / %+v %+v (%v)", muts, tc, muts2, tc2, err)
			}
		}
		if pts, measure, err := decodeCreatePayload(p); err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("create refusal does not wrap ErrBadEncoding: %v", err)
			}
		} else {
			pts2, measure2, err := decodeCreatePayload(appendCreatePayload(nil, pts, measure))
			if err != nil || measure2 != measure || !samePoints(pts2, pts) {
				t.Fatalf("create decode(encode(x)) != x: %v %q / %v %q (%v)", pts, measure, pts2, measure2, err)
			}
		}
	})
}
