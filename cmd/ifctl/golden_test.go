package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs under testdata from the current output")

// TestGoldenInvocations pins the dist, highway and spacing subcommands
// byte-for-byte. The goldens were first written by the standalone
// commands these subcommands replaced (distlab, highwaylab -mode
// random|ablation) with the same instance parameters; -side carries the
// old highway length (n/10 for distlab's highway family). Refresh
// deliberately with:
//
//	go test ./cmd/ifctl -run Golden -update
func TestGoldenInvocations(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		// distlab -family highway -n 120
		{"dist-highway", []string{"dist", "-family", "highway", "-n", "120", "-side", "12"}},
		// highwaylab -mode random -n 256 -len 20 -seed 3
		{"highway", []string{"highway", "-n", "256", "-side", "20", "-seed", "3"}},
		// highwaylab -mode random -n 64 -len 6 -seed 2 -anneal 300
		{"highway-anneal", []string{"highway", "-n", "64", "-side", "6", "-seed", "2", "-iters", "300"}},
		// highwaylab -mode ablation -n 300 -len 10
		{"spacing", []string{"spacing", "-family", "highway", "-n", "300", "-side", "10"}},
	} {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			out, errOut, code := runCapture(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			golden := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if out != string(want) {
				t.Errorf("ifctl %v drifted from golden.\n--- got ---\n%s\n--- want ---\n%s\n(refresh deliberately with -update)", tc.args, out, want)
			}
		})
	}
}
