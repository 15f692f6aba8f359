package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the stitched-trace golden file")

// TestStitchGolden pins the stitched document byte for byte: two
// in-process node recorders replay a fixed mutation's life — leader
// commit with its stage children, follower apply linked back to the
// leader's batch span, event push — with normalized (fixed, relative)
// timestamps and a deliberate follower clock skew that the stitcher must
// correct away. Any drift in event ordering, flow-arrow wiring, field
// layout, or clock correction shows up as a golden diff.
func TestStitchGolden(t *testing.T) {
	const (
		trace   = 0xabcdef0123456789
		skewNS  = 5_000_000 // follower clock runs 5ms ahead of the leader's
		epochNS = 1_000_000_000
	)

	// Leader: the traced batch root with its six stage children, exactly
	// the shape serve.Session.recordBatchSpans lays down.
	leader := obs.NewRecorder(64)
	batchSpan := leader.Record(obs.SpanRecord{Name: "serve.batch", Start: epochNS, Dur: 900_000, Trace: trace, Link: 1})
	lane := leader.Records()[0].Lane
	stages := []struct {
		name string
		off  int64
		dur  int64
	}{
		{"serve.queue", 0, 100_000},
		{"serve.coalesce", 100_000, 50_000},
		{"serve.wal", 150_000, 200_000},
		{"serve.apply", 350_000, 250_000},
		{"serve.settle", 600_000, 150_000},
		{"serve.publish", 750_000, 150_000},
	}
	for _, st := range stages {
		leader.Record(obs.SpanRecord{Parent: batchSpan, Lane: lane,
			Name: st.name, Start: epochNS + st.off, Dur: st.dur, Trace: trace})
	}

	// Follower: its own recorder (span ids restart — the stitcher must
	// key flows by trace id too), clock running skewNS ahead. Its
	// serve.batch links back to the leader's batch span (the WAL trace
	// stamp), and the event push follows the apply.
	follower := obs.NewRecorder(64)
	fBatch := follower.Record(obs.SpanRecord{Name: "serve.batch",
		Start: epochNS + 2_000_000 + skewNS, Dur: 600_000, Trace: trace, Link: batchSpan})
	fLane := follower.Records()[0].Lane
	follower.Record(obs.SpanRecord{Parent: fBatch, Lane: fLane,
		Name: "serve.apply", Start: epochNS + 2_100_000 + skewNS, Dur: 300_000, Trace: trace})
	follower.Record(obs.SpanRecord{Name: "wire.event_push",
		Start: epochNS + 2_700_000 + skewNS, Dur: 80_000, Trace: trace})

	lrecs, _ := leader.RecordsSince(0)
	frecs, _ := follower.RecordsSince(0)
	got, err := Stitch([]NodeDump{
		{Name: "n1", Role: "leader", OffsetNS: 0, Spans: lrecs},
		{Name: "n2", Role: "follower", OffsetNS: skewNS, Spans: frecs},
	})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "stitched_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/rimtrace/ -run TestStitchGolden -update)", err)
	}
	if string(got) != string(want) {
		t.Errorf("stitched trace diverged from golden (regenerate with -update if intentional)\ngot:\n%s\nwant:\n%s", got, want)
	}
}
