package wire_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// startServer boots a manager + wire server on a loopback port and
// returns the dial address.
func startServer(t *testing.T, cfg serve.Config, scfg wire.ServerConfig) (string, *serve.Manager) {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	mgr := serve.NewManager(cfg)
	scfg.Manager = mgr
	if scfg.Registry == nil {
		scfg.Registry = obs.NewRegistry()
	}
	srv := wire.NewServer(scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
		mgr.Close(nil)
	})
	return ln.Addr().String(), mgr
}

func dialClient(t *testing.T, addr string, cfg wire.ClientConfig) *wire.Client {
	t.Helper()
	cfg.Addr = addr
	c, err := wire.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func line(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*0.5, 0)
	}
	return pts
}

func TestWireEndToEnd(t *testing.T) {
	for _, crc := range []bool{false, true} {
		name := "plain"
		if crc {
			name = "crc"
		}
		t.Run(name, func(t *testing.T) {
			addr, _ := startServer(t, serve.Config{}, wire.ServerConfig{})
			c := dialClient(t, addr, wire.ClientConfig{Conns: 2, CRC: crc})

			if err := c.Ping(); err != nil {
				t.Fatalf("Ping: %v", err)
			}
			n, err := c.Create("alpha", line(5))
			if err != nil || n != 5 {
				t.Fatalf("Create: n=%d err=%v", n, err)
			}

			// Duplicate create maps to the 409 the HTTP facade sends.
			if _, err := c.Create("alpha", line(5)); err == nil {
				t.Fatal("duplicate create accepted")
			} else {
				var we *wire.Error
				if !errors.As(err, &we) || we.Status != wire.StatusExists {
					t.Fatalf("duplicate create: %v", err)
				}
			}

			ids, err := c.Mutate("alpha", []serve.Mutation{
				serve.Add(2.5, 0.1),
				serve.Move(1, 0.6, 0.05),
				serve.Remove(3),
				serve.SetRadius(0, 1.25),
			})
			if err != nil {
				t.Fatalf("Mutate: %v", err)
			}
			if len(ids) != 1 || ids[0] != 5 {
				t.Fatalf("assigned ids = %v, want [5]", ids)
			}
			if _, err := c.Flush("alpha"); err != nil {
				t.Fatalf("Flush: %v", err)
			}

			sum, err := c.Summary("alpha")
			if err != nil {
				t.Fatalf("Summary: %v", err)
			}
			if sum.N != 5 || sum.Seq != 4 {
				t.Fatalf("summary = %+v, want n=5 seq=4", sum)
			}

			seq, nodes, err := c.Nodes("alpha", nil)
			if err != nil || seq != sum.Seq || len(nodes) != 5 {
				t.Fatalf("Nodes: seq=%d n=%d err=%v", seq, len(nodes), err)
			}
			var got5, gotR bool
			for _, n := range nodes {
				if n.ID == 5 {
					got5 = true
				}
				if n.ID == 0 && n.R == 1.25 {
					gotR = true
				}
			}
			if !got5 || !gotR {
				t.Fatalf("nodes = %+v: added id missing (%v) or radius override missing (%v)", nodes, got5, gotR)
			}

			if err := c.Drop("alpha"); err != nil {
				t.Fatalf("Drop: %v", err)
			}
			if _, err := c.Summary("alpha"); err == nil {
				t.Fatal("summary of dropped session succeeded")
			} else {
				var we *wire.Error
				if !errors.As(err, &we) || we.Status != wire.StatusNotFound {
					t.Fatalf("summary after drop: %v", err)
				}
			}
		})
	}
}

func TestWireCreateGen(t *testing.T) {
	addr, _ := startServer(t, serve.Config{}, wire.ServerConfig{MaxGenN: 64})
	c := dialClient(t, addr, wire.ClientConfig{})

	n, err := c.CreateGen("gen", wire.GenSpec{N: 32, Seed: 7})
	if err != nil || n != 32 {
		t.Fatalf("CreateGen: n=%d err=%v", n, err)
	}
	// Over the server's generation cap: rejected, not generated.
	if _, err := c.CreateGen("huge", wire.GenSpec{N: 1 << 20, Seed: 7}); err == nil {
		t.Fatal("oversized CreateGen accepted")
	}
	// Same seed, second server-side generation is deterministic.
	n2, err := c.CreateGen("gen2", wire.GenSpec{N: 32, Seed: 7})
	if err != nil || n2 != 32 {
		t.Fatalf("CreateGen twice: %v", err)
	}
	_, a, err := c.Nodes("gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := c.Nodes("gen2", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].X != b[i].X || a[i].Y != b[i].Y {
			t.Fatalf("node %d: same seed produced different instances", i)
		}
	}
}

func TestWireValidationError(t *testing.T) {
	addr, _ := startServer(t, serve.Config{MaxCoord: 10}, wire.ServerConfig{})
	c := dialClient(t, addr, wire.ClientConfig{})
	if _, err := c.Create("v", line(3)); err != nil {
		t.Fatal(err)
	}
	// A rejected coordinate fails the whole batch with 400 — and a clean
	// batch pipelined right behind it must still land (per-frame
	// all-or-nothing, exactly as over HTTP).
	bad := c.GoMutate("v", []serve.Mutation{serve.Add(1e9, 0)})
	good := c.GoMutate("v", []serve.Mutation{serve.Add(1, 1)})
	if _, err := bad.MutateIDs(nil); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	} else {
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusBad {
			t.Fatalf("bad coord: %v", err)
		}
	}
	ids, err := good.MutateIDs(nil)
	if err != nil || len(ids) != 1 {
		t.Fatalf("clean neighbor batch: ids=%v err=%v", ids, err)
	}
	if _, err := c.Flush("v"); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summary("v")
	if err != nil || sum.N != 4 {
		t.Fatalf("summary after mixed batch: %+v %v", sum, err)
	}
}

// TestWirePipelineCoalesces is the regression for the BENCH_3 finding
// that the HTTP path's batch-of-one enqueues kept coalesced_% at zero:
// pipelined wire mutate frames must reach the session owner as real
// multi-op batches, where redundant same-node set-radius ops collapse.
func TestWirePipelineCoalesces(t *testing.T) {
	addr, mgr := startServer(t, serve.Config{QueueCap: 4096, BatchCap: 512}, wire.ServerConfig{})
	c := dialClient(t, addr, wire.ClientConfig{})
	if _, err := c.Create("co", line(8)); err != nil {
		t.Fatal(err)
	}
	s, _ := mgr.Session("co")

	const frames = 256
	pend := make([]*wire.Pending, 0, frames)
	for i := 0; i < frames; i++ {
		// Every frame hammers the same node: a coalescible workload.
		pend = append(pend, c.GoMutate("co", []serve.Mutation{serve.SetRadius(0, float64(i))}))
	}
	for _, p := range pend {
		if _, err := p.MutateIDs(nil); err != nil {
			t.Fatalf("pipelined mutate: %v", err)
		}
	}
	if _, err := c.Flush("co"); err != nil {
		t.Fatal(err)
	}
	applied, rejected := s.Counts()
	enq := mgr.Metrics().Enqueued.Value()
	if rejected != 0 {
		t.Fatalf("rejected %d mutations", rejected)
	}
	if enq != frames {
		t.Fatalf("enqueued %d, want %d", enq, frames)
	}
	if applied >= enq {
		t.Fatalf("coalesced 0%% (enqueued %d, applied %d): pipelined wire batches are not coalescing", enq, applied)
	}
	t.Logf("coalesced %.1f%% (enqueued %d, applied %d)", float64(enq-applied)/float64(enq)*100, enq, applied)
}

// TestWireBackpressure drives a tiny queue past capacity and expects
// the 429 analog, which IsBackpressure recognizes.
func TestWireBackpressure(t *testing.T) {
	slow := func(string) { time.Sleep(2 * time.Millisecond) }
	addr, _ := startServer(t, serve.Config{QueueCap: 4, BatchCap: 2, BeforeBatch: slow}, wire.ServerConfig{})
	c := dialClient(t, addr, wire.ClientConfig{})
	if _, err := c.Create("bp", line(4)); err != nil {
		t.Fatal(err)
	}
	var saw429 bool
	for i := 0; i < 200 && !saw429; i++ {
		_, err := c.Mutate("bp", []serve.Mutation{serve.SetRadius(0, 0.5)})
		if err != nil {
			if !wire.IsBackpressure(err) {
				t.Fatalf("unexpected error: %v", err)
			}
			saw429 = true
		}
	}
	if !saw429 {
		t.Fatal("queue of 4 absorbed 200 rapid mutations without backpressure")
	}
}

// TestWireStaleSessionCache drops a session behind a connection's back;
// the connection's cached handle must not resurrect it.
func TestWireStaleSessionCache(t *testing.T) {
	addr, _ := startServer(t, serve.Config{}, wire.ServerConfig{})
	c1 := dialClient(t, addr, wire.ClientConfig{})
	c2 := dialClient(t, addr, wire.ClientConfig{})
	if _, err := c1.Create("st", line(4)); err != nil {
		t.Fatal(err)
	}
	// Prime c1's per-connection cache.
	if _, err := c1.Mutate("st", []serve.Mutation{serve.SetRadius(0, 0.5)}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Drop("st"); err != nil {
		t.Fatal(err)
	}
	_, err := c1.Mutate("st", []serve.Mutation{serve.SetRadius(0, 0.9)})
	var we *wire.Error
	if !errors.As(err, &we) || (we.Status != wire.StatusGone && we.Status != wire.StatusNotFound) {
		t.Fatalf("mutate after remote drop: %v", err)
	}
	// And a recreate under the same name must be reachable from c1.
	if _, err := c1.Create("st", line(6)); err != nil {
		t.Fatal(err)
	}
	sum, err := c1.Summary("st")
	if err != nil || sum.N != 6 {
		t.Fatalf("recreated session via cached conn: %+v %v", sum, err)
	}
}

// TestWireBadHello rejects a non-rimwire client before anything else.
func TestWireBadHello(t *testing.T) {
	addr, _ := startServer(t, serve.Config{}, wire.ServerConfig{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	n, _ := nc.Read(buf)
	if n >= wire.HeaderSize {
		h := wire.DecodeHeader(buf[:wire.HeaderSize])
		if h.Type != wire.MsgErr || h.Status != wire.StatusBad {
			t.Fatalf("hello rejection frame = %+v", h)
		}
	}
	// Connection must be closed either way.
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection survived a bad hello")
	}
}

// TestWireConcurrentClients exercises the pool and multiplexing under
// parallel mixed load.
func TestWireConcurrentClients(t *testing.T) {
	addr, _ := startServer(t, serve.Config{QueueCap: 8192, BatchCap: 256}, wire.ServerConfig{})
	c := dialClient(t, addr, wire.ClientConfig{Conns: 4})
	if _, err := c.Create("mix", line(64)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%10 == 0 {
					for {
						_, err := c.Mutate("mix", []serve.Mutation{serve.SetRadius(int64(g*8+i%8), 0.25)})
						if err == nil {
							break
						}
						if !wire.IsBackpressure(err) {
							errs <- err
							return
						}
						time.Sleep(100 * time.Microsecond)
					}
				} else {
					if _, err := c.Summary("mix"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := c.Flush("mix"); err != nil {
		t.Fatal(err)
	}
}
