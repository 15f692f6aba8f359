package dynamic_test

import (
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/obs"
)

// BenchmarkEndBatch times the settle alone on the recover- and
// live_churn-shaped replays of golden_test.go (seed 1): every EndBatch
// of one replay per iteration, reported per settle with the settle
// counters' work per settle — adjacency visits, unit-disk queries and
// crossing edges collected.
//
//	go test ./internal/dynamic -run '^$' -bench EndBatch -benchtime 3x
func BenchmarkEndBatch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		replay func(int64, func(*dynamic.Maintainer)) *dynamic.Maintainer
	}{
		{"recover", recoverReplay},
		{"live_churn", liveChurnReplay},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prev := obs.SetEnabled(true)
			defer obs.SetEnabled(prev)
			reg := obs.Default()
			visited := reg.Counter("rim_dynamic_settle_visited_total", "")
			scanned := reg.Counter("rim_dynamic_settle_scanned_total", "")
			crossing := reg.Counter("rim_dynamic_settle_crossing_total", "")
			v0, s0, c0 := visited.Value(), scanned.Value(), crossing.Value()
			var spent time.Duration
			settles := 0
			end := func(m *dynamic.Maintainer) {
				t := time.Now()
				m.EndBatch()
				spent += time.Since(t)
				settles++
			}
			for i := 0; i < b.N; i++ {
				bc.replay(1, end)
			}
			per := func(c *obs.Counter, c0 int64) float64 { return float64(c.Value()-c0) / float64(settles) }
			b.ReportMetric(float64(spent.Microseconds())/float64(settles), "µs/settle")
			b.ReportMetric(per(visited, v0), "visits/settle")
			b.ReportMetric(per(scanned, s0), "queries/settle")
			b.ReportMetric(per(crossing, c0), "crossing/settle")
		})
	}
}
