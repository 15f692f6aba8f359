package rim_test

// Wire-protocol benchmarks (single-sample numbers frozen in
// BENCH_4.json):
//
//   - BenchmarkServeWireMixed: the BENCH_2 acceptance workload (90%
//     summary reads / 10% set-radius mutations, n=4096, 8 clients)
//     through the rimwire binary front door with request pipelining —
//     directly comparable against BenchmarkServeMixed (native API) and
//     BenchmarkServeHTTPMixed (JSON/HTTP), so the three lines quantify
//     exactly what each front door costs;
//   - BenchmarkWireCodec: the codec hot path alone (encode + decode of
//     a mutate frame), which must stay allocation-free.
//
// CI holds the wire door to an absolute floor with
// `benchjson -min BenchmarkServeWireMixed:ops/s=500000`.

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// wirePipelineDepth is each client's in-flight request window. Deep
// enough that the writer batches many frames per syscall, shallow
// enough that per-op latency numbers stay meaningful.
const wirePipelineDepth = 64

func newWireBench(b *testing.B) (*serve.Manager, *serve.Session, *wire.Client) {
	b.Helper()
	mgr, s := newBenchSession(b)
	srv := wire.NewServer(wire.ServerConfig{Manager: mgr, Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	c, err := wire.Dial(wire.ClientConfig{Addr: ln.Addr().String(), Conns: serveBenchClients})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return mgr, s, c
}

// BenchmarkServeWireMixed pushes the mixed workload through rimwire with
// a wirePipelineDepth-deep window per client: ops are submitted async
// and collected window-by-window, so the socket carries coalesced
// multi-frame writes in both directions — the protocol's design point.
func BenchmarkServeWireMixed(b *testing.B) {
	mgr, s, c := newWireBench(b)
	defer mgr.Close(nil)

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	lat := make([][]float64, serveBenchClients)
	var failure sync.Map
	per := perClient(b.N)
	for cl := 0; cl < serveBenchClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + cl)))
			lats := make([]float64, 0, per)
			var ids []int64
			window := make([]*wire.Pending, 0, wirePipelineDepth)
			starts := make([]time.Time, 0, wirePipelineDepth)
			reads := make([]bool, 0, wirePipelineDepth)
			collect := func() bool {
				for j, p := range window {
					if reads[j] {
						if _, err := p.Summary(); err != nil {
							failure.Store(err.Error(), true)
							return false
						}
						lats = append(lats, float64(time.Since(starts[j]).Nanoseconds())/1e6)
					} else {
						var err error
						if ids, err = p.MutateIDs(ids[:0]); err != nil {
							if !wire.IsBackpressure(err) {
								failure.Store(err.Error(), true)
								return false
							}
							// 429: wait and resubmit, same contract as the
							// HTTP benchmark's retry loop.
							for {
								time.Sleep(50 * time.Microsecond)
								mu := serve.SetRadius(int64(rng.Intn(serveBenchN)), rng.Float64()*0.5)
								if _, err := c.Mutate("bench", []serve.Mutation{mu}); err == nil {
									break
								} else if !wire.IsBackpressure(err) {
									failure.Store(err.Error(), true)
									return false
								}
							}
						}
					}
				}
				window, starts, reads = window[:0], starts[:0], reads[:0]
				return true
			}
			for i := 0; i < per; i++ {
				if rng.Float64() < 0.9 {
					starts = append(starts, time.Now())
					window = append(window, c.GoSummary("bench"))
					reads = append(reads, true)
				} else {
					mu := serve.SetRadius(int64(rng.Intn(serveBenchN)), rng.Float64()*0.5)
					starts = append(starts, time.Now())
					window = append(window, c.GoMutate("bench", []serve.Mutation{mu}))
					reads = append(reads, false)
				}
				if len(window) == wirePipelineDepth {
					if !collect() {
						return
					}
				}
			}
			collect()
			lat[cl] = lats
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	failure.Range(func(k, _ any) bool { b.Fatalf("wire client failed: %v", k); return false })
	reportMixed(b, elapsed, serveBenchClients*per, lat, mgr, s)
}

// BenchmarkWireCodec measures the frame codec alone: encode a one-op
// mutate request and decode it back through a Reader, round-tripping
// through memory. The 0 allocs/op this reports is the property the
// serving path's steady state rests on.
func BenchmarkWireCodec(b *testing.B) {
	ops := []serve.Mutation{serve.SetRadius(17, 0.375)}
	var frame []byte
	start := len(frame)
	frame = wire.BeginFrame(frame, wire.MsgMutate, 0, 1)
	frame = wire.AppendString(frame, "bench")
	frame = serve.AppendOps(frame, ops)
	frame = wire.EndFrame(frame, start, false)

	src := &loopBytes{data: frame}
	r := wire.NewReader(src, 0)
	buf := make([]byte, 0, len(frame))
	decoded := make([]serve.Mutation, 0, 4)
	// One untimed round first: the reader grows its payload buffer on
	// the first Next, and a -benchtime=1x run would otherwise record
	// that one-off as the steady-state allocs/op.
	if _, _, err := r.Next(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.BeginFrame(buf[:0], wire.MsgMutate, 0, uint64(i))
		buf = wire.AppendString(buf, "bench")
		buf = serve.AppendOps(buf, ops)
		buf = wire.EndFrame(buf, 0, false)
		h, payload, err := r.Next()
		if err != nil || h.Type != wire.MsgMutate {
			b.Fatal("decode", err)
		}
		_, rest, err := wire.ReadString(payload)
		if err != nil {
			b.Fatal(err)
		}
		decoded, _, err = serve.DecodeOps(rest, decoded[:0])
		if err != nil || len(decoded) != 1 {
			b.Fatal("ops", err)
		}
	}
}

// loopBytes replays one frame forever — an endless in-memory stream for
// Reader benchmarks.
type loopBytes struct {
	data []byte
	off  int
}

func (l *loopBytes) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// BenchmarkWireRTT measures single in-flight round-trip latency over
// loopback TCP — the floor a pipelined window amortizes away. ns/op here
// IS the RTT.
func BenchmarkWireRTT(b *testing.B) {
	mgr, _, c := newWireBench(b)
	defer mgr.Close(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Summary("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
