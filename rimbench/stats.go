package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a timing's tail is reported at,
// highest first. tail picks the first one with at least minBeyond samples
// above it, so a tail figure always rests on enough samples to repeat.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float rounding (0.999*20000 = 19980.000000000004)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// pct is the nearest-rank percentile p of sorted samples; 0 when empty.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailRank is the rule for reporting a tail: the highest percentile on
// the ladder, up to max, with at least minBeyond of n samples beyond its
// nearest rank r. ok is false when not even the median qualifies.
func tailRank(n int, max float64) (p float64, r int, ok bool) {
	for _, p := range tailLadder {
		if p > max {
			continue
		}
		if r := rank(p, n); n-r >= minBeyond {
			return p, r, true
		}
	}
	return 0, 0, false
}

// tailAt applies tailRank to sorted samples: it returns the value, the
// percentile chosen and the sample count.
func tailAt(sorted []float64, max float64) (v, p float64, n int, ok bool) {
	n = len(sorted)
	p, r, ok := tailRank(n, max)
	if ok {
		v = sorted[r-1]
	}
	return v, p, n, ok
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (the mean of the middle pair for even counts); 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windows counts completions in fixed-length windows from a start time.
// One windows value belongs to one goroutine; merge combines them.
type windows struct {
	start time.Time
	width time.Duration
	n     []int64
}

func newWindows(start time.Time, width time.Duration) *windows {
	return &windows{start: start, width: width}
}

// add counts k completions at time t. Completions before start are
// ignored.
func (w *windows) add(t time.Time, k int64) {
	d := t.Sub(w.start)
	if d < 0 {
		return
	}
	i := int(d / w.width)
	for len(w.n) <= i {
		w.n = append(w.n, 0)
	}
	w.n[i] += k
}

// merge adds o's counts into w; both must share start and width.
func (w *windows) merge(o *windows) {
	for i, k := range o.n {
		for len(w.n) <= i {
			w.n = append(w.n, 0)
		}
		w.n[i] += k
	}
}

// medianRate is the median per-second rate over the first full windows
// that end at or before end. Taking the median of window rates, not the
// total over the total time, keeps a single stall (a GC pause, a noisy
// neighbour) from moving the figure.
func (w *windows) medianRate(end time.Time) (rate float64, full int) {
	full = int(end.Sub(w.start) / w.width)
	rates := make([]float64, 0, full)
	for i := 0; i < full; i++ {
		var k int64
		if i < len(w.n) {
			k = w.n[i]
		}
		rates = append(rates, float64(k)/w.width.Seconds())
	}
	return median(rates), full
}

// hist is a log-bucketed histogram of positive values with histRes
// relative resolution, for timings too numerous to keep one by one.
type hist struct {
	n       int
	buckets []int64
}

const (
	histMin = 0.01  // smallest resolved value; anything below lands in bucket 0
	histRes = 0.005 // relative bucket width
)

var histLog = math.Log1p(histRes)

func (h *hist) add(x float64) {
	i := 0
	if x > histMin {
		i = int(math.Log(x/histMin) / histLog)
	}
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, k := range o.buckets {
		for len(h.buckets) <= i {
			h.buckets = append(h.buckets, 0)
		}
		h.buckets[i] += k
	}
	h.n += o.n
}

// atRank is the value of the r-th smallest sample (1-based), as its
// bucket's geometric midpoint.
func (h *hist) atRank(r int) float64 {
	var seen int64
	for i, k := range h.buckets {
		seen += k
		if seen >= int64(r) {
			return histMin * math.Exp((float64(i)+0.5)*histLog)
		}
	}
	return 0
}

// pct is the nearest-rank percentile p; 0 when empty.
func (h *hist) pct(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	return h.atRank(rank(p, h.n))
}

// tailAt is the tailRank rule over the histogram.
func (h *hist) tailAt(max float64) (v, p float64, n int, ok bool) {
	p, r, ok := tailRank(h.n, max)
	if ok {
		v = h.atRank(r)
	}
	return v, p, h.n, ok
}
