package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailAtKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		max    float64
		v, p   float64
		wantOK bool
	}{
		{n: 1000, max: 99, v: 990, p: 99, wantOK: true},    // exactly 10 beyond p99
		{n: 999, max: 99, v: 950, p: 95, wantOK: true},     // 9 beyond p99: fall back
		{n: 20000, max: 99, v: 19800, p: 99, wantOK: true}, // capped at the asked percentile
		{n: 20000, max: 99.9, v: 19980, p: 99.9, wantOK: true},
		{n: 25, max: 99, v: 13, p: 50, wantOK: true},
		{n: 15, max: 99, wantOK: false},
		{n: 0, max: 99, wantOK: false},
	} {
		v, p, n, ok := tailAt(seq(c.n), c.max)
		if ok != c.wantOK || n != c.n || (ok && (v != c.v || p != c.p)) {
			t.Errorf("tailAt(n=%d, max=%g) = %g at p%g over %d (ok=%v), want %g at p%g (ok=%v)",
				c.n, c.max, v, p, n, ok, c.v, c.p, c.wantOK)
		}
		if ok && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPctNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {0, 1}, {100, 10}} {
		if got := pct(xs, c.p); got != c.want {
			t.Errorf("pct(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := pct(nil, 50); got != 0 {
		t.Errorf("pct(empty) = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestWindowMedianRate(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := newWindows(t0, 500*time.Millisecond)
	w.add(t0.Add(-time.Millisecond), 99) // before the start: ignored
	for i, k := range []int64{10, 20, 30, 1000} {
		w.add(t0.Add(time.Duration(i)*500*time.Millisecond+time.Millisecond), k)
	}
	w.add(t0.Add(2100*time.Millisecond), 5000) // window not complete at end
	rate, full := w.medianRate(t0.Add(2200 * time.Millisecond))
	// Rates 20, 40, 60, 2000 per second: one stalled or bursty window
	// does not move the median.
	if full != 4 || rate != 50 {
		t.Errorf("medianRate = %g over %d windows, want 50 over 4", rate, full)
	}
}

func TestWindowMergeAndEmptyWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	a, b := newWindows(t0, time.Second), newWindows(t0, time.Second)
	a.add(t0.Add(100*time.Millisecond), 3)
	b.add(t0.Add(200*time.Millisecond), 4)
	b.add(t0.Add(2500*time.Millisecond), 8)
	a.merge(b)
	// Windows: 7, 0, 8 — the empty middle window counts as a zero rate.
	rate, full := a.medianRate(t0.Add(3 * time.Second))
	if full != 3 || rate != 7 {
		t.Errorf("merged medianRate = %g over %d windows, want 7 over 3", rate, full)
	}
}

func TestHistMatchesSortedSamples(t *testing.T) {
	var h hist
	xs := seq(5000)
	for _, x := range xs {
		h.add(x)
	}
	for _, p := range []float64{50, 90, 99} {
		want := pct(xs, p)
		if got := h.pct(p); got < want*(1-histRes) || got > want*(1+histRes) {
			t.Errorf("hist p%g = %g, want %g within %g", p, got, want, histRes)
		}
	}
	v, p, n, ok := h.tailAt(99)
	wv, wp, wn, wok := tailAt(xs, 99)
	if ok != wok || p != wp || n != wn || v < wv*(1-histRes) || v > wv*(1+histRes) {
		t.Errorf("hist tail = %g at p%g of %d (%v), sorted tail = %g at p%g of %d (%v)", v, p, n, ok, wv, wp, wn, wok)
	}
	var o hist
	o.add(1e6)
	h.merge(&o)
	if h.n != 5001 || h.pct(100) < 1e6*(1-histRes) {
		t.Errorf("merged hist: n=%d max=%g", h.n, h.pct(100))
	}
}
