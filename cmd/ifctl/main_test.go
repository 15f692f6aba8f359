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
		{"empty-subcommand", []string{""}, "usage:"},
		{"negative-n", []string{"stats", "-n", "-1"}, "-n must be >= 0"},
		{"expchain-too-long", []string{"stats", "-family", "expchain", "-n", "60"}, "expchain needs"},
		{"expchain-empty", []string{"stats", "-family", "expchain", "-n", "0"}, "expchain needs"},
		{"figure1-too-small", []string{"stats", "-family", "figure1", "-n", "2"}, "figure1 needs"},
		{"side-nan", []string{"stats", "-side", "NaN"}, "-side must be"},
		{"side-negative", []string{"stats", "-side", "-1"}, "-side must be"},
		{"side-zero", []string{"compare", "-side", "0"}, "-side must be"},
		{"side-inf", []string{"stats", "-family", "highway", "-side", "+Inf"}, "-side must be"},
		{"unknown-family-dist", []string{"dist", "-family", "void"}, "unknown family"},
		{"spacing-2d", []string{"spacing", "-family", "uniform"}, "needs a 1-D instance"},
		{"highway-2d", []string{"highway", "-family", "clustered"}, "-family must be highway"},
		{"highway-negative-n", []string{"highway", "-n", "-5"}, "-n must be >= 0"},
		{"highway-mode-flag", []string{"highway", "-mode", "random"}, "flag provided but not defined"},
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

// TestStatsHighwayGammaReport checks the Def 5.2 block of stats on a
// random highway: γ with its witness, the Lemma 5.5 bound, the critical
// set at the witness, and the |C_v| distribution.
func TestStatsHighwayGammaReport(t *testing.T) {
	out, _, code := runCapture(t, "stats", "-family", "highway", "-n", "64", "-side", "6")
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	for _, want := range []string{
		"γ (highway, Def 5.2)          6 at node 22 (x=1.782)",
		"Lemma 5.5 lower bound on OPT  1",
		"critical set C_v at γ         6 nodes [17 20 21 23 25 27]",
		"|C_v| distribution            n=64 mean=3.16±1.1 min=1 med=3 max=6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestStatsOneNodeHighwayHasNoGamma: a single node has no critical set,
// so stats prints no γ witness (index -1) rather than dereferencing it.
func TestStatsOneNodeHighwayHasNoGamma(t *testing.T) {
	out, errOut, code := runCapture(t, "stats", "-family", "highway", "-n", "1")
	if code != 0 {
		t.Fatalf("code %d, stderr %q", code, errOut)
	}
	if strings.Contains(out, "γ") || strings.Contains(out, "C_v") {
		t.Errorf("one-node highway printed a γ witness:\n%s", out)
	}
}

// TestDistHighwayIncludesAGen: on a highway every protocol, A_gen
// included, reproduces its centralized construction.
func TestDistHighwayIncludesAGen(t *testing.T) {
	out, _, code := runCapture(t, "dist", "-family", "highway", "-n", "120", "-side", "12")
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	for _, want := range []string{"XTC", "NNF", "LMST", "GG", "RNG", "AGen", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "false") {
		t.Errorf("a protocol diverged from its centralized version:\n%s", out)
	}
}

// TestDist2DOmitsAGen: A_gen is 1-D only and must not run on 2-D
// families; the 2-D protocols still match their centralized outputs.
func TestDist2DOmitsAGen(t *testing.T) {
	for _, family := range []string{"uniform", "clustered", "gadget", "figure1"} {
		out, _, code := runCapture(t, "dist", "-family", family, "-n", "60")
		if code != 0 {
			t.Fatalf("%s: code %d", family, code)
		}
		if strings.Contains(out, "AGen") {
			t.Errorf("%s: AGen ran on a 2-D instance:\n%s", family, out)
		}
		if !strings.Contains(out, "RNG") || strings.Contains(out, "false") {
			t.Errorf("%s: protocol rows missing or diverged:\n%s", family, out)
		}
	}
}

// TestHighwayComparesFamilies: one row per random highway family, and
// the anneal column stays "-" unless -iters asks for the bound.
func TestHighwayComparesFamilies(t *testing.T) {
	out, _, code := runCapture(t, "highway", "-n", "128", "-side", "10")
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	for _, want := range []string{"uniform", "bursty", "expfrag", "lb_sqrt_gamma2", "anneal_ub"} {
		if !strings.Contains(out, want) {
			t.Errorf("highway output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[3:] {
		if !strings.HasSuffix(line, " -") {
			t.Errorf("anneal bound computed without -iters: %q", line)
		}
	}
}

// TestSpacingSweep: the sweep runs on any 1-D family and reports the
// paper's ⌈√Δ⌉ choice among its spacings.
func TestSpacingSweep(t *testing.T) {
	for _, args := range [][]string{
		{"spacing", "-n", "300", "-side", "10"},
		{"spacing", "-family", "expchain", "-n", "30"},
	} {
		out, errOut, code := runCapture(t, args...)
		if code != 0 || !strings.Contains(out, "hub-spacing ablation") {
			t.Fatalf("%v: code %d, stderr %q:\n%s", args, code, errOut, out)
		}
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
