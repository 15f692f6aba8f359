package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, e := range exp.Registry() {
		if !strings.Contains(out.String(), e.ID) {
			t.Errorf("listing missing %s", e.ID)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "f7"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "I_lin") {
		t.Errorf("f7 table missing:\n%s", out.String())
	}
}

// TestRunT51ChainSweep: the exponential-chain sweep reports A_exp
// against the Theorem 5.1 bound and closes with the fitted scaling law.
func TestRunT51ChainSweep(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "t51"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"thm51_bound", "I_lin", "power fit: I_aexp"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("t51 output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Error("missing diagnostic")
	}
}

// TestRunFigure1: the Figure-1 gadget sweep reports the largest
// per-node receiver-centric increase next to the sender-centric jump.
func TestRunFigure1(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "f1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "max_node_delta") {
		t.Errorf("figure1 table missing:\n%s", out.String())
	}
}

// TestBadInvocations pins the CLI error contract: every malformed
// invocation exits 2 with a diagnostic on stderr and nothing on stdout.
func TestBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // required substring of the diagnostic
	}{
		{"undefined-flag", []string{"-bogus"}, "flag provided but not defined"},
		{"flag-needs-value", []string{"-exp"}, "flag needs an argument"},
		{"non-numeric-simn", []string{"-simn", "many"}, "invalid value"},
		{"unknown-experiment", []string{"-exp", "teleport"}, "unknown experiment"},
		{"empty-experiment", []string{"-exp", ""}, "unknown experiment"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(tc.args, &out, &errOut); code != 2 {
				t.Fatalf("code %d, want 2 (stderr %q)", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.stderr) {
				t.Errorf("stderr %q missing %q", errOut.String(), tc.stderr)
			}
			if out.Len() != 0 {
				t.Errorf("stdout not empty on error: %q", out.String())
			}
		})
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunOutdirFormats(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "t52", "-latex", "-outdir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "t52.tex"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `\begin{tabular}`) {
		t.Error("not LaTeX output")
	}
	// CSV variant.
	out.Reset()
	if code := run([]string{"-exp", "t52", "-csv", "-outdir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("csv exit %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "t52.csv")); err != nil {
		t.Error("csv file missing")
	}
	if !strings.Contains(out.String(), ",") {
		t.Error("stdout should carry CSV too")
	}
}

func TestRegistryIDsUniqueAndRunnable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range exp.Registry() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" {
			t.Errorf("%s: empty title", e.ID)
		}
	}
}
