package exp

import (
	"strings"
	"testing"
)

// Golden tests: the deterministic experiments (no RNG involved) must
// reproduce these tables byte-for-byte. They are the repository's
// headline numbers — EXPERIMENTS.md quotes them — so any drift is a
// regression, either numerical (epsilon handling) or algorithmic.

func TestGoldenTheorem41(t *testing.T) {
	var sb strings.Builder
	if err := Theorem41().Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `T4.1: NNF is Ω(n) on the Figure-3 gadget; the optimal tree stays O(1)
n    I_NNF  I_opt_tree  ratio
---  -----  ----------  -----
12   6      5           1.2
24   9      5           1.8
48   17     5           3.4
96   33     5           6.6
192  65     5           13
384  129    5           25.8
`
	if sb.String() != want {
		t.Errorf("T4.1 table drifted:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestGoldenFigure7(t *testing.T) {
	var sb strings.Builder
	if err := Figure7().Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `F6/F7: linearly connected exponential chain — I(G_lin) = n−2
n    I_lin  I_at_leftmost  n-2
---  -----  -------------  ---
4    2      2              2
8    6      6              6
16   14     14             14
32   30     30             30
64   62     62             62
128  126    126            126
256  254    254            254
500  498    498            498
`
	if sb.String() != want {
		t.Errorf("F7 table drifted:\n%s", sb.String())
	}
}

func TestGoldenTheorem52(t *testing.T) {
	var sb strings.Builder
	if err := Theorem52().Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `T5.2: exact minimum interference on small exponential chains
n   OPT  sqrt_n_floor  I_aexp  aexp/OPT  proved
--  ---  ------------  ------  --------  ------
4   2    2             2       1         true
6   3    2             3       1         true
8   4    2             4       1         true
10  4    3             4       1         true
12  5    3             5       1         true
14  5    3             5       1         true
`
	if sb.String() != want {
		t.Errorf("T5.2 table drifted:\n%s", sb.String())
	}
}

func TestGoldenTheorem51Fit(t *testing.T) {
	_, fit := Theorem51()
	want := "power fit: I_aexp ≈ 1.10 · n^0.551 (theory: Θ(n^0.5))"
	if fit != want {
		t.Errorf("scaling fit drifted: %q, want %q", fit, want)
	}
}

// TestGoldenDynamicX8 pins X8 at the catalogue's defaults (seed 1, 300
// events): the maintainer's arrival range test, its settle path and the
// drift-control rebuilds all feed these rebuild counts and interference
// values.
func TestGoldenDynamicX8(t *testing.T) {
	var sb strings.Builder
	if err := DynamicX8(1, 300).Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `X8: online maintenance under churn (300 events, uniform arrivals/departures)
policy               rebuilds  final_I  fresh_rebuild_I  drift_ratio
-------------------  --------  -------  ---------------  -----------
rebuild-every-event  301       4        4                1
maintain-1.5x        2         5        4                1.25
maintain-2x          1         5        4                1.25
maintain-3x          1         5        4                1.25
`
	if sb.String() != want {
		t.Errorf("X8 table drifted:\n%s\nwant:\n%s", sb.String(), want)
	}
}
