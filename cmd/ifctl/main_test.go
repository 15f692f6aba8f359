package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/topology"
)

func runCapture(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestUsageOnNoArgs(t *testing.T) {
	_, errOut, code := runCapture(t)
	if code != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("code %d, stderr %q", code, errOut)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	_, errOut, code := runCapture(t, "frobnicate")
	if code != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("code %d, stderr %q", code, errOut)
	}
}

func TestUnknownFamily(t *testing.T) {
	_, errOut, code := runCapture(t, "compare", "-family", "marsbase")
	if code != 2 || !strings.Contains(errOut, "unknown family") {
		t.Fatalf("code %d, stderr %q", code, errOut)
	}
}

// TestBadInvocations pins the CLI error contract across subcommands:
// malformed invocations exit 2 with a diagnostic on stderr and nothing
// on stdout.
func TestBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // required substring of the diagnostic
	}{
		{"no-args", nil, "usage:"},
		{"unknown-subcommand", []string{"frobnicate"}, "usage:"},
		{"undefined-flag", []string{"compare", "-bogus"}, "flag provided but not defined"},
		{"flag-needs-value", []string{"measure", "-alg"}, "flag needs an argument"},
		{"non-numeric-n", []string{"compare", "-n", "lots"}, "invalid value"},
		{"unknown-family-measure", []string{"measure", "-family", "moonbase"}, "unknown family"},
		{"unknown-family-dump", []string{"dump", "-family", "moonbase"}, "unknown family"},
		{"unknown-algorithm-measure", []string{"measure", "-alg", "Telepathy"}, "unknown algorithm"},
		{"unknown-algorithm-svg", []string{"svg", "-alg", "Telepathy"}, "unknown algorithm"},
		{"optimal-too-large", []string{"optimal", "-family", "uniform", "-n", "60"}, "exact optimum needs"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := runCapture(t, tc.args...)
			if code != 2 {
				t.Fatalf("code %d, want 2 (stderr %q)", code, errOut)
			}
			if !strings.Contains(errOut, tc.stderr) {
				t.Errorf("stderr %q missing %q", errOut, tc.stderr)
			}
			if out != "" {
				t.Errorf("stdout not empty on error: %q", out)
			}
		})
	}
}

func TestCompareListsWholeZoo(t *testing.T) {
	out, _, code := runCapture(t, "compare", "-family", "uniform", "-n", "60")
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	for _, a := range topology.All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("compare output missing %s", a.Name)
		}
	}
}

func TestCompareCSV(t *testing.T) {
	out, _, code := runCapture(t, "compare", "-family", "expchain", "-n", "16", "-csv")
	if code != 0 || !strings.HasPrefix(out, "algorithm,") {
		t.Fatalf("code %d, out %q", code, out[:40])
	}
}

func TestPhysComparesBothMeasures(t *testing.T) {
	out, _, code := runCapture(t, "phys", "-family", "gadget", "-n", "12", "-iters", "800")
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	for _, want := range []string{"annealed_under", "graph_I", "sinr_I", "truncation bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("phys output missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureUnknownAlgorithm(t *testing.T) {
	_, errOut, code := runCapture(t, "measure", "-alg", "Telepathy")
	if code != 2 || !strings.Contains(errOut, "unknown algorithm") {
		t.Fatalf("code %d, stderr %q", code, errOut)
	}
}

func TestMeasureReportsWitnesses(t *testing.T) {
	out, _, code := runCapture(t, "measure", "-family", "expchain", "-n", "12", "-alg", "MST")
	if code != 0 {
		t.Fatal("measure failed")
	}
	if !strings.Contains(out, "I(G') =") || !strings.Contains(out, "witnesses") {
		t.Errorf("measure output incomplete:\n%s", out)
	}
}

func TestOptimalSmallChain(t *testing.T) {
	out, _, code := runCapture(t, "optimal", "-family", "expchain", "-n", "8")
	if code != 0 {
		t.Fatal("optimal failed")
	}
	if !strings.Contains(out, "optimal interference: 4 (proved: true") {
		t.Errorf("optimal output:\n%s", out)
	}
}

func TestOptimalRefusesLargeInstance(t *testing.T) {
	_, errOut, code := runCapture(t, "optimal", "-family", "uniform", "-n", "100")
	if code != 2 || !strings.Contains(errOut, "exact optimum needs") {
		t.Fatalf("code %d, stderr %q", code, errOut)
	}
}

func TestProfileIncludesFaultExposure(t *testing.T) {
	out, _, code := runCapture(t, "profile", "-family", "uniform", "-n", "50", "-alg", "MST")
	if code != 0 || !strings.Contains(out, "bridges / cut vertices") {
		t.Fatalf("profile output:\n%s", out)
	}
}

func TestStatsHighwayShowsGamma(t *testing.T) {
	out, _, code := runCapture(t, "stats", "-family", "expchain", "-n", "20")
	if code != 0 || !strings.Contains(out, "γ (highway") {
		t.Fatalf("stats output:\n%s", out)
	}
}

func TestDumpRoundTripHeader(t *testing.T) {
	out, _, code := runCapture(t, "dump", "-family", "expchain", "-n", "5")
	if code != 0 || !strings.HasPrefix(out, "x,y\n") {
		t.Fatalf("dump output:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 6 { // header + 5 points
		t.Errorf("dump lines = %d", got)
	}
}

func TestSVGOutput(t *testing.T) {
	out, _, code := runCapture(t, "svg", "-family", "expchain", "-n", "10", "-alg", "MST")
	if code != 0 || !strings.HasPrefix(out, "<svg") {
		t.Fatalf("svg output:\n%.60s", out)
	}
}

// TestLogDump writes a small rimd data directory and checks log-dump's
// listing: a checkpoint barrier has pruned session a's create record, a
// pinned batch keeps both radius writes to one node, session b is
// created and dropped, and a torn tail ends the log. The dump must leave
// the directory exactly as it found it, and refuse one without a wal/.
func TestLogDump(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNone, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m := serve.NewManager(serve.Config{Shards: 1, Store: st})
	a, err := m.CreateSession("a", []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(serve.Move(0, 0.25, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyBatch([]serve.Mutation{serve.SetRadius(2, 0.5), serve.SetRadius(2, 0.25)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession("b", []geom.Point{geom.Pt(0, 0), geom.Pt(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.DropSession("b"); err != nil {
		t.Fatal(err)
	}
	// Crash: seal the WAL without a drain, then tear its tail.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := dirContents(t, dir)
	out, errOut, code := runCapture(t, "log-dump", "-data", dir)
	if code != 0 {
		t.Fatalf("code %d, stderr %q", code, errOut)
	}
	wantLog := `batch session="a" seq=3 k=2
  set id=2 r=0.5
  set id=2 r=0.25
create session="b" n=2 measure=graph
drop session="b"
torn-tail `
	if !strings.HasPrefix(out, wantLog) {
		t.Fatalf("log-dump output:\n%s\nwant it to begin with:\n%s", out, wantLog)
	}
	for _, want := range []string{" dropped=3 ", "\ncheckpoint session=\"a\" seq=1 bytes="} {
		if !strings.Contains(out, want) {
			t.Errorf("log-dump output lacks %q:\n%s", want, out)
		}
	}
	if after := dirContents(t, dir); after != before {
		t.Fatalf("log-dump changed the data directory\nbefore: %s\nafter:  %s", before, after)
	}

	empty := t.TempDir()
	if _, errOut, code := runCapture(t, "log-dump", "-data", empty); code != 1 || !strings.Contains(errOut, "not a data directory") {
		t.Fatalf("dir without wal/: code %d, stderr %q", code, errOut)
	}
	if got := dirContents(t, empty); got != "" {
		t.Fatalf("log-dump wrote into a refused directory: %s", got)
	}
	if _, _, code := runCapture(t, "log-dump"); code != 2 {
		t.Fatalf("log-dump without -data: code %d, want 2", code)
	}
}

// dirContents flattens a directory tree into "path:size:crc" entries.
func dirContents(t *testing.T, root string) string {
	t.Helper()
	var sb strings.Builder
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			fmt.Fprintf(&sb, "%s/ ", rel)
			return nil
		}
		b, err := os.ReadFile(path)
		fmt.Fprintf(&sb, "%s:%d:%08x ", rel, len(b), crc32.ChecksumIEEE(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
