// Command rimd is the topology-control daemon: it serves the interference
// engine over HTTP/JSON through internal/serve's sharded, single-writer
// session pipeline.
//
//	rimd -addr 127.0.0.1:8086
//	rimd -addr 127.0.0.1:0                       # random port
//	rimd -data-dir /var/lib/rimd                 # durable sessions (WAL + checkpoints)
//	rimd -wire-addr 127.0.0.1:8087               # rimwire binary front door alongside HTTP
//
// The wire door also serves standing subscriptions (internal/sub):
// clients register threshold / region / max-changed predicates with
// MsgSubscribe and receive server-initiated MsgEvent frames as batches
// commit — see DESIGN.md's "Standing subscriptions" section.
//
// The daemon prints its actual listening address on stdout (useful with
// port 0), exposes /healthz, Prometheus /metrics, net/http/pprof under
// /debug/pprof/, and live span dumps at /debug/obs/spans (plain tree)
// and /debug/obs/trace (Chrome trace_event JSON), and drains gracefully
// on SIGINT/SIGTERM: the listener closes, queued mutations are applied,
// then the process exits 0. See README.md for curl examples.
//
// With -data-dir, every applied batch is write-ahead logged and sessions
// are checkpointed periodically (-checkpoint-every) and at shutdown; on
// boot the daemon recovers every session from the newest checkpoint plus
// WAL replay, cross-checked against a from-scratch recount, and logs a
// recovery manifest. -fsync picks the durability/latency trade
// (always|batch|none). The WAL is the record of every session's
// mutations: `ifctl log-dump -data DIR` prints it, and replaying it
// reproduces each session exactly. See DESIGN.md's Durability section.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sub"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: it returns 2 on usage errors, 1 on runtime
// failures, and 0 after a clean drain.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8086", "listen address (port 0 picks a free port)")
		wireAddr     = fs.String("wire-addr", "", "rimwire binary-protocol listen address (empty = disabled)")
		shards       = fs.Int("shards", 0, "worker goroutines (0 = min(GOMAXPROCS, 8))")
		queueCap     = fs.Int("queue-cap", 1024, "per-session mutation queue bound")
		batchCap     = fs.Int("batch-cap", 256, "max mutations applied per batch")
		rebuild      = fs.Float64("rebuild-factor", 0, "maintainer drift-rebuild factor (0 = default)")
		measure      = fs.String("measure", "graph", "default interference measure for new sessions: graph (receiver-centric disks) or sinr (physical model)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max time to drain queues on shutdown")
		obsOn        = fs.Bool("obs", true, "enable the observability layer (spans feed /debug/obs/*)")
		spanSample   = fs.Int("span-sample", 16, "record every nth root span")
		traceTail    = fs.Duration("trace-tail", 0, "tail-sampling threshold: keep full span trees only for traced batches at least this slow, or failed (0 = keep every traced batch)")
		dataDir      = fs.String("data-dir", "", "durability directory (empty = in-memory only)")
		fsyncMode    = fs.String("fsync", "batch", "WAL fsync policy: always, batch, or none")
		ckptEvery    = fs.Duration("checkpoint-every", 5*time.Minute, "checkpoint-barrier interval (0 disables the ticker)")
		segBytes     = fs.Int64("segment-bytes", 0, "WAL segment rotation size (0 = 64 MiB)")
		nodeID       = fs.String("node-id", "rimd", "this node's name in the replication ring")
		replAddr     = fs.String("repl-addr", "", "replication feed listen address (leader mode, or armed for promotion; requires -data-dir)")
		replFollow   = fs.String("repl-follow", "", "leader feed address to follow (read-only follower mode; requires -data-dir)")
		replLeaderID = fs.String("repl-leader-id", "", "the leader's node ID (followers use it for ring successor math)")
		replPeers    = fs.String("repl-peers", "", "comma-separated ring membership, leader included (e.g. n1,n2,n3)")
		replEpoch    = fs.Uint64("repl-epoch", 1, "leader term: the epoch a leader serves at, and the one a follower pins its subscribe to (a promoted follower serves at observed epoch + 1)")
		replAutoProm = fs.Duration("repl-auto-promote", 0, "promote automatically after the leader is unreachable this long (0 = manual POST /repl/promote)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rimd: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if !serve.ValidMeasure(*measure) {
		fmt.Fprintf(stderr, "rimd: unknown -measure %q (want graph or sinr)\n", *measure)
		return 2
	}
	if *obsOn && obs.Available {
		obs.SetEnabled(true)
		obs.DefaultRecorder().SetSample(*spanSample)
		obs.SetTailThreshold(*traceTail)
	}

	var st *store.Store
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			fmt.Fprintf(stderr, "rimd: %v\n", err)
			return 2
		}
		st, err = store.Open(store.Options{Dir: *dataDir, Sync: policy, SegmentBytes: *segBytes})
		if err != nil {
			fmt.Fprintf(stderr, "rimd: open store: %v\n", err)
			return 1
		}
		defer st.Close()
	}

	// Standing subscriptions ride the wire door: the hub consumes the
	// per-batch delta seam and pushes MsgEvent frames to subscribed
	// connections. Only built when the wire door is on — a non-nil
	// AfterBatchDelta turns on per-batch delta tracking for every
	// session, which pure-HTTP deployments should not pay for.
	var hub *sub.Hub
	if *wireAddr != "" {
		hub = sub.NewHub(sub.Config{QueueCap: 1 << 15, Registry: obs.Default()})
	}
	scfg := serve.Config{
		Shards:         *shards,
		QueueCap:       *queueCap,
		BatchCap:       *batchCap,
		RebuildFactor:  *rebuild,
		Store:          st,
		DefaultMeasure: *measure,
	}
	if hub != nil {
		scfg.AfterBatchDelta = hub.AfterBatchDelta
	}
	mgr := serve.NewManager(scfg)

	if st != nil {
		// Recover before the listener opens: clients never observe a
		// half-rebuilt session table. Verification against the naive
		// oracle turns a corrupt recovery into a refused boot.
		rs, err := mgr.Recover(true)
		if err != nil {
			fmt.Fprintf(stderr, "rimd: recover: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout,
			"rimd: recovered %d sessions (%d from checkpoint, %d from log, %d verified), replayed %d batches/%d mutations, %d dropped",
			rs.Sessions, rs.FromCheckpoint, rs.FromLog, rs.Verified, rs.ReplayedBatches, rs.ReplayedMutations, rs.DroppedSessions)
		if rs.TornTail {
			fmt.Fprintf(stdout, ", healed torn tail (%d bytes)", rs.TornBytes)
		}
		if rs.InterruptedDrops > 0 {
			fmt.Fprintf(stdout, ", finished %d interrupted drops", rs.InterruptedDrops)
		}
		if len(rs.SkippedCheckpoints) > 0 {
			fmt.Fprintf(stdout, ", skipped %d invalid checkpoints", len(rs.SkippedCheckpoints))
		}
		fmt.Fprintln(stdout)
	}

	// Replication role, wired after recovery so a follower resubscribes
	// from a cursor its own recovered WAL can back, and before the HTTP
	// listener so clients never see a follower accept writes.
	var peers []string
	if *replPeers != "" {
		for _, p := range strings.Split(*replPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	var cursorPath string
	if *dataDir != "" {
		cursorPath = filepath.Join(*dataDir, "repl.cursor")
	}
	rn, err := startRepl(replOpts{
		nodeID: *nodeID, addr: *replAddr, follow: *replFollow,
		leaderID: *replLeaderID, peers: peers, epoch: *replEpoch,
		autoPromote: *replAutoProm, cursorPath: cursorPath,
	}, mgr, st, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "rimd: repl: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "rimd: listen: %v\n", err)
		return 1
	}

	// Outer mux: the serve API at the root, with the debug surface
	// (net/http/pprof, /debug/obs/spans, /debug/obs/trace) alongside.
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(mgr))
	if rn != nil {
		rn.register(mux)
	}
	obs.MountDebug(mux)
	srv := &http.Server{Handler: mux}
	fmt.Fprintf(stdout, "rimd: listening on %s\n", ln.Addr())

	// The rimwire binary front door shares the manager (and therefore the
	// session table, batch pipeline, WAL, and metrics registry) with the
	// HTTP facade — two doors, one building. Announced after the HTTP
	// address so "listening on" keeps meaning the JSON endpoint to every
	// existing log scraper.
	var wireSrv *wire.Server
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintf(stderr, "rimd: wire listen: %v\n", err)
			ln.Close()
			return 1
		}
		wireSrv = wire.NewServer(wire.ServerConfig{Manager: mgr, Hub: hub})
		go func() {
			if err := wireSrv.Serve(wln); err != nil {
				fmt.Fprintf(stderr, "rimd: wire serve: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "rimd: wire listening on %s\n", wln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	// SIGQUIT dumps the flight recorder instead of killing the process:
	// the always-on per-batch records are exactly the forensics wanted
	// when a node looks wedged.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			obs.DefaultFlight().WriteText(stderr, "SIGQUIT")
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Periodic checkpoint barrier: bounds WAL replay time after a crash
	// and keeps pruning the log.
	tickDone := make(chan struct{})
	if st != nil && *ckptEvery > 0 {
		ticker := time.NewTicker(*ckptEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if pruned, err := mgr.CheckpointAll(context.Background()); err != nil {
						fmt.Fprintf(stderr, "rimd: checkpoint barrier: %v\n", err)
					} else if pruned > 0 {
						fmt.Fprintf(stdout, "rimd: checkpoint barrier pruned %d WAL segments\n", pruned)
					}
				case <-tickDone:
					return
				}
			}
		}()
	}

	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "rimd: %v, draining (timeout %s)\n", sig, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintf(stderr, "rimd: serve: %v\n", err)
		return 1
	}
	close(tickDone)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if rn != nil {
		// The feed (or feed consumer) detaches before the manager drains:
		// no new replicated records arrive mid-close, and a leader's
		// followers see a clean connection close and fall into their
		// reconnect loop.
		rn.close()
	}
	if wireSrv != nil {
		// Wire connections close before the manager drains: in-flight
		// mutate frames were ACKed at enqueue and the drain below applies
		// them, same contract as the HTTP shutdown.
		wireSrv.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "rimd: http shutdown: %v\n", err)
	}
	ds, err := mgr.CloseStats(ctx)
	if ds.DroppedMutations > 0 {
		// The old drain discarded these silently; now every lost mutation
		// is rejected, counted, and reported.
		fmt.Fprintf(stderr, "rimd: drain deadline: rejected %d queued mutations across %d sessions\n",
			ds.DroppedMutations, ds.DroppedSessions)
	}
	if st != nil {
		fmt.Fprintf(stdout, "rimd: wrote %d final checkpoints (%d failed)\n",
			ds.FinalCheckpoints, ds.CheckpointErrors)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rimd: drain: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "rimd: drained %d sessions, bye\n", len(mgr.SessionIDs()))
	return 0
}
