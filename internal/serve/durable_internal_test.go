package serve

// White-box tests for the durability payload encodings: the WAL record
// and checkpoint formats must round-trip exactly, and their decoders
// must reject damage instead of guessing.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/store"
)

func TestBatchPayloadRoundTrip(t *testing.T) {
	batch := []Mutation{
		{Op: OpAdd, Node: 7, X: 1.25, Y: -0.5},
		{Op: OpRemove, Node: 3},
		{Op: OpMove, Node: 7, X: 0.1, Y: 0.2},
		{Op: OpSetRadius, Node: 7, R: 2.75},
		{Op: OpAnneal, Iters: 500, Seed: -42},
		{Op: OpAnneal, Iters: 100, Seed: 1<<62 + 1},
	}
	stamp := obs.TraceContext{TraceID: 0xfeed, SpanID: 1<<40 + 3, Flags: obs.TraceFlagSampled}
	for _, tc := range []obs.TraceContext{{}, stamp} {
		payload := appendBatchPayload(nil, batch, tc)
		got, gotTC, err := decodeBatchPayload(payload)
		if err != nil {
			t.Fatalf("decodeBatchPayload: %v", err)
		}
		if !reflect.DeepEqual(got, batch) || gotTC != tc {
			t.Fatalf("round trip\n got %+v %+v\nwant %+v %+v", got, gotTC, batch, tc)
		}
		// The op block is byte-for-byte what a wire mutate frame carries.
		if !bytes.Equal(payload[traceStampSize:], AppendOps(nil, batch)) {
			t.Fatal("batch payload op block differs from the wire op encoding")
		}
	}
	empty := appendBatchPayload(nil, nil, obs.TraceContext{})
	if muts, _, err := decodeBatchPayload(empty); err != nil || len(muts) != 0 {
		t.Fatalf("empty batch: %v %v", muts, err)
	}
	good := appendBatchPayload(nil, batch, stamp)
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"stamp cut":      good[:traceStampSize-1],
		"ops cut":        good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"text payload":   []byte("m add id=7 x=1.5 y=-2\n"),
	} {
		if _, _, err := decodeBatchPayload(bad); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: got %v, want ErrBadEncoding", name, err)
		}
	}
}

func TestCreatePayloadRoundTrip(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1.5, -2.25), geom.Pt(0.3333333333333333, 7)}
	for _, measure := range []string{MeasureGraph, MeasureSinr} {
		got, gotMeasure, err := decodeCreatePayload(appendCreatePayload(nil, pts, measure))
		if err != nil {
			t.Fatalf("decodeCreatePayload %s: %v", measure, err)
		}
		if !reflect.DeepEqual(got, pts) || gotMeasure != measure {
			t.Fatalf("%s round trip\n got %v %q\nwant %v", measure, got, gotMeasure, pts)
		}
	}
	good := appendCreatePayload(nil, pts, MeasureSinr)
	for name, bad := range map[string][]byte{
		"empty":           nil,
		"measure cut":     good[:3],
		"unknown measure": appendCreatePayload(nil, pts, "disk"),
		"points cut":      good[:len(good)-1],
		"trailing bytes":  append(append([]byte(nil), good...), 0),
		"text payload":    []byte("rimd-trace v1 n=0\n"),
	} {
		if _, _, err := decodeCreatePayload(bad); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: got %v, want ErrBadEncoding", name, err)
		}
	}
}

// TestReplicatedCreateCarriesMeasure pins the replication path: a
// follower applying a leader's create record must build the session
// under the leader's measure, and redelivery stays an idempotent skip.
func TestReplicatedCreateCarriesMeasure(t *testing.T) {
	m := NewManager(Config{Shards: 1, NoCoalesce: true})
	defer m.Close(context.Background())
	rec := store.Record{
		Kind:    store.RecordCreate,
		Session: "r1",
		Payload: appendCreatePayload(nil, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, MeasureSinr),
	}
	if err := m.ApplyRecord(rec); err != nil {
		t.Fatalf("ApplyRecord: %v", err)
	}
	s, ok := m.Session("r1")
	if !ok {
		t.Fatal("replicated session missing")
	}
	if s.Measure() != MeasureSinr {
		t.Fatalf("replicated Measure()=%q, want sinr", s.Measure())
	}
	if err := m.ApplyRecord(rec); err != nil {
		t.Fatalf("redelivered create: %v", err)
	}
}

func TestCheckpointPayloadRoundTrip(t *testing.T) {
	m := NewManager(Config{Shards: 1})
	defer m.Close(context.Background())
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0.25)}
	s, err := m.CreateSession("ck", pts)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := s.Apply(Add(0.25, 0.75), SetRadius(1, 1.5), Remove(0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := s.Flush(nil); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// The owner is quiescent after Flush, so the capture is safe here —
	// the same reasoning CloseStats relies on.
	seq, payload := s.encodeCheckpoint()
	if seq != 3 {
		t.Fatalf("seq=%d, want 3", seq)
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	if st.seq != s.seq || st.nextID != s.loadNextID() {
		t.Fatalf("decoded seq=%d next=%d, want %d %d", st.seq, st.nextID, s.seq, s.loadNextID())
	}
	if !reflect.DeepEqual(st.idOf, s.idOf) {
		t.Fatalf("decoded idOf=%v, want %v", st.idOf, s.idOf)
	}
	snap := s.mt.Snapshot()
	if !reflect.DeepEqual(st.rs.Points, snap.Points) || !reflect.DeepEqual(st.rs.Radii, snap.Radii) {
		t.Fatalf("decoded geometry diverges:\n%v %v\nvs\n%v %v", st.rs.Points, st.rs.Radii, snap.Points, snap.Radii)
	}
	if !reflect.DeepEqual(st.rs.Edges, snap.Edges) {
		t.Fatalf("decoded edges diverge:\n%v\nvs\n%v", st.rs.Edges, snap.Edges)
	}

	// Re-encoding the decoded state through a restored session must be
	// byte-identical — the stability the recovery path depends on.
	s2, err := m.restoreSession("ck2", st)
	if err != nil {
		t.Fatalf("restoreSession: %v", err)
	}
	_, payload2 := s2.encodeCheckpoint()
	if string(payload2) != string(payload) {
		t.Fatalf("checkpoint not byte-stable:\n%s\nvs\n%s", payload2, payload)
	}
}

func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	good := "rimsess v1 seq=2 next=3 baseline=1 events=2 rebuilds=0 n=2 m=1\n" +
		"p id=0 x=0 y=0 r=1\np id=1 x=1 y=0 r=1\ne u=0 v=1 w=1\n"
	if _, err := decodeCheckpoint([]byte(good)); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"wrong magic":    strings.Replace(good, "rimsess v1", "rimsess v2", 1),
		"missing body":   strings.Split(good, "\n")[0] + "\n",
		"extra body":     good + "e u=0 v=1 w=2\n",
		"bad seq":        strings.Replace(good, "seq=2", "seq=x", 1),
		"unknown header": strings.Replace(good, "next=3", "nxt=3", 1),
		"bad point line": strings.Replace(good, "p id=1", "q id=1", 1),
		"bad float":      strings.Replace(good, "w=1", "w=one", 1),
	} {
		if _, err := decodeCheckpoint([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
