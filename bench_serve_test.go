package rim_test

// Serving-layer benchmarks: the rimd session pipeline under a
// production-shaped mixed workload (90% reads / 10% mutations, n=4096,
// 8 concurrent clients). BenchmarkServeMixed measures the pipeline at its
// native API — lock-free snapshot reads against the single-writer batch
// applier — which is the serving layer's own cost; BenchmarkServeHTTPMixed
// wraps the same workload in real HTTP round-trips, so the delta between
// the two is pure net/http stack. Their single-sample numbers are
// frozen in BENCH_2.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	serveBenchN       = 4096
	serveBenchClients = 8
)

// perClient converts b.N into a per-client op count with a floor, so
// even `-benchtime=1x` (CI's bench smoke and the BENCH_2.json archive)
// measures a real sustained run; the reported ops/s and p99 come from
// wall-clock over the actual op count, not from b.N.
func perClient(n int) int {
	per := n/serveBenchClients + 1
	if per < 2500 {
		per = 2500
	}
	return per
}

func newBenchSession(b *testing.B) (*serve.Manager, *serve.Session) {
	b.Helper()
	cfg := serve.Config{Shards: 4, QueueCap: 8192, BatchCap: 512}
	// RIM_BENCH_STORE attaches a write-ahead log so the same workload
	// measures durability overhead: "1" uses batched fsync (the default
	// deployment policy), "none" disables device sync to isolate the
	// logging hot path — record encode plus buffered write — from fsync
	// latency, which belongs to the disk, not the code. `make
	// store-overhead` gates both against the env-off baseline.
	if mode := os.Getenv("RIM_BENCH_STORE"); mode != "" {
		sync := store.SyncBatch
		if mode == "none" {
			sync = store.SyncNone
		}
		st, err := store.Open(store.Options{Dir: b.TempDir(), Sync: sync})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	mgr := serve.NewManager(cfg)
	pts := gen.UniformSquare(rand.New(rand.NewSource(77)), serveBenchN, 12.8)
	s, err := mgr.CreateSession("bench", pts)
	if err != nil {
		b.Fatal(err)
	}
	return mgr, s
}

// reportMixed aggregates per-client read latencies and throughput.
func reportMixed(b *testing.B, elapsed time.Duration, total int, lat [][]float64, mgr *serve.Manager, s *serve.Session) {
	b.Helper()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	b.ReportMetric(float64(total)/elapsed.Seconds(), "ops/s")
	if len(all) > 0 {
		b.ReportMetric(all[len(all)*99/100], "p99_read_ms")
	}
	applied, _ := s.Counts()
	if enq := mgr.Metrics().Enqueued.Value(); enq > 0 {
		b.ReportMetric(float64(enq-applied)/float64(enq)*100, "coalesced_%")
	}
}

// BenchmarkServeMixed is the acceptance workload for the serving layer:
// 8 concurrent clients, each op 90% a consistent snapshot read / 10% a
// set-radius mutation (resubmitted on backpressure), against one n=4096
// session. Session construction (~1s greedy build) is outside the timer.
func BenchmarkServeMixed(b *testing.B) {
	mgr, s := newBenchSession(b)
	defer mgr.Close(nil)

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	lat := make([][]float64, serveBenchClients)
	per := perClient(b.N)
	for c := 0; c < serveBenchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			lats := make([]float64, 0, per)
			sink := 0
			for i := 0; i < per; i++ {
				if rng.Float64() < 0.9 {
					t0 := time.Now()
					snap := s.Snapshot()
					sink += snap.Max + snap.N
					lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e6)
				} else {
					mu := serve.SetRadius(int64(rng.Intn(serveBenchN)), rng.Float64()*0.5)
					for {
						_, err := s.Apply(mu)
						if err == nil {
							break
						}
						time.Sleep(50 * time.Microsecond) // 429-equivalent: wait, resubmit
					}
				}
			}
			if sink < 0 {
				panic("unreachable")
			}
			lat[c] = lats
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	reportMixed(b, elapsed, serveBenchClients*per, lat, mgr, s)
}

// BenchmarkServeHTTPMixed is the same mix through real HTTP round-trips
// (GET summary / POST mutations with 429 handling) — the full rimd front
// door including JSON and the net/http stack.
func BenchmarkServeHTTPMixed(b *testing.B) {
	mgr, s := newBenchSession(b)
	defer mgr.Close(nil)
	srv := httptest.NewServer(serve.NewHandler(mgr))
	defer srv.Close()
	client := srv.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = serveBenchClients
	readURL := srv.URL + "/v1/sessions/bench"
	mutateURL := srv.URL + "/v1/sessions/bench/mutations"

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	lat := make([][]float64, serveBenchClients)
	var failure sync.Map
	per := perClient(b.N)
	for c := 0; c < serveBenchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			lats := make([]float64, 0, per)
			for i := 0; i < per; i++ {
				if rng.Float64() < 0.9 {
					t0 := time.Now()
					resp, err := client.Get(readURL)
					if err != nil {
						failure.Store(fmt.Sprintf("read: %v", err), true)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					lats = append(lats, float64(time.Since(t0).Microseconds())/1000)
					if resp.StatusCode != http.StatusOK {
						failure.Store(fmt.Sprintf("read status %d", resp.StatusCode), true)
						return
					}
				} else {
					body, _ := json.Marshal(map[string]any{"ops": []map[string]any{{
						"op": "set_radius", "node": rng.Intn(serveBenchN), "r": rng.Float64() * 0.5,
					}}})
					resp, err := client.Post(mutateURL, "application/json", strings.NewReader(string(body)))
					if err != nil {
						failure.Store(fmt.Sprintf("mutate: %v", err), true)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
					case http.StatusTooManyRequests:
						time.Sleep(time.Millisecond)
					default:
						failure.Store(fmt.Sprintf("mutate status %d", resp.StatusCode), true)
						return
					}
				}
			}
			lat[c] = lats
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	failure.Range(func(k, _ any) bool { b.Fatal(k); return false })
	reportMixed(b, elapsed, serveBenchClients*per, lat, mgr, s)
}
