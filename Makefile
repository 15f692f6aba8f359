# Convenience targets for the rim reproduction. Everything is plain `go`;
# the Makefile just names the common invocations.

GO ?= go

.PHONY: all build vet test check bench serve-smoke store-smoke store-overhead wire-smoke wire-gate repl-smoke sub-smoke sub-gate trace-smoke trace-demo obs-overhead phys-smoke repro figures tables cover fuzz fuzz-nightly clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The pre-merge gate: vet, the race detector over shuffled tests (order
# dependence is a bug), and the differential-oracle suite spelled out by
# name so a -run filter typo can't silently skip it.
check: vet
	$(GO) test -race -shuffle=on ./...
	$(GO) test -run 'Oracle|Law|Replay|BruteForce|Golden|Fuzz|Property|Repair|Skip' -count=1 \
		./internal/oracle/ ./internal/core/ ./internal/graph/ ./internal/opt/ ./internal/topology/ \
		./internal/highway/ ./internal/dynamic/ ./internal/sim/ ./cmd/paperrepro/ \
		./internal/serve/ ./internal/repl/ ./internal/exp/ ./cmd/ifctl/ ./internal/gather/

# Regenerate every table/figure as benchmarks. New performance numbers
# come from rimbench/run.sh (repeated seeded runs with a reported
# spread); BENCH_1-8.json are frozen single-sample history.
bench:
	$(GO) test -bench=. -benchmem ./...

# End-to-end daemon smoke: boot rimd on a random port, run a scripted
# HTTP client session, scrape /metrics, SIGTERM, assert a clean drain.
serve-smoke:
	$(GO) test -run 'TestServeSmoke|TestRimd' -count=1 -v ./cmd/rimd/

# End-to-end durability smoke: build the real rimd binary, boot it with a
# data directory, mutate over HTTP, kill -9, restart on the same
# directory, and require byte-identical session state back (then a
# graceful SIGTERM restart to prove the final-checkpoint path).
store-smoke:
	$(GO) test -run TestStoreSmoke -count=1 -v ./cmd/rimd/

# End-to-end physical-model smoke: boot the real rimd binary with
# -measure=sinr and a data directory, mutate over HTTP, kill -9, restart
# on the same directory, and require byte-identical SINR session state
# back (then a graceful SIGTERM restart to prove the checkpoint path).
phys-smoke:
	$(GO) test -run TestPhysSmoke -count=1 -v ./cmd/rimd/

# End-to-end wire smoke: boot rimd with both front doors, drive the
# binary protocol through a pipelined client (create, mutate, flush,
# summary, nodes), and require the HTTP facade to agree byte-for-byte
# on the same session.
wire-smoke:
	$(GO) test -run TestWireSmoke -count=1 -v ./cmd/rimd/

# End-to-end replication smoke: build the real rimd binary, boot a
# 3-node loopback cluster (leader + two followers), mutate over HTTP,
# require both followers to serve byte-identical reads, kill -9 the
# leader, and require the ring successor to auto-promote and keep
# serving the same state — now writable.
repl-smoke:
	$(GO) test -run TestReplSmoke -count=1 -v ./cmd/rimd/

# End-to-end subscription smoke: boot rimd with the wire door open,
# attach one standing subscription per predicate kind over the binary
# protocol, churn radii and positions, and require the server-push
# stream to deliver init snapshots plus edge-triggered updates in
# contiguous per-subscription Seq order — and silence after detach.
sub-smoke:
	$(GO) test -run TestSubSmoke -count=1 -v ./cmd/rimd/

# End-to-end distributed-tracing smoke: boot a 2-node cluster (leader +
# follower with the wire door open), subscribe on the follower over a
# trace-negotiated connection, issue one traced mutation against the
# leader, and require the stitched rimtrace document to show
# leader-commit → follower-apply → event-push in causal order on
# distinct process rows, connected by flow arrows.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 -v ./cmd/rimd/

# Live-workload latency gate: rimlive drives a waypoint-mobility swarm
# (n=4096, 1200 standing subscriptions, continuous churn) against an
# in-process server stack and bounds the end-to-end update→notify p99.
RIMLIVE_P99_MS ?= 10
sub-gate:
	$(GO) run ./cmd/rimlive -self -profile bench -bench-line -max-p99-ms $(RIMLIVE_P99_MS)

# Wire throughput floor: the pipelined mixed workload must clear 500k
# ops/s (best of WIRE_COUNT short runs — an absolute floor, not a
# relative gate, so a slow machine fails loudly rather than silently
# rebaselining).
WIRE_MIN ?= 500000
WIRE_COUNT ?= 3
wire-gate:
	$(GO) test -run=xxx -bench='BenchmarkServeWireMixed$$' -benchtime=1x -count=$(WIRE_COUNT) . \
		| $(GO) run ./cmd/benchjson -min 'BenchmarkServeWireMixed:ops/s=$(WIRE_MIN)'

# WAL overhead gate: archive the serve mixed workload without a store
# as the baseline, then bound what durability may cost the serving hot
# path — in two parts, because the old single 10% gate on the
# batched-fsync run was really measuring fsync luck (one -benchtime=1x
# iteration is dominated by whichever group fsync it straddles; bimodal
# 3ms/11ms on the same tree):
#  - SyncNone (RIM_BENCH_STORE=none) isolates the code's own cost —
#    record encode + write syscalls, no device sync — measured at
#    ~8-12% of the hot path; STORE_TOL bounds it, padded for the ±25%
#    cross-invocation scheduling noise CI runners show.
#  - SyncBatch (RIM_BENCH_STORE=1) includes group-commit fsync, whose
#    latency belongs to the device; STORE_SYNC_TOL is a loose backstop
#    that catches a catastrophic sync-path regression without flaking
#    on runner fsync variance.
STORE_TOL ?= 0.35
STORE_SYNC_TOL ?= 1.50
store-overhead:
	$(GO) test -run=xxx -bench='BenchmarkServeMixed$$' -benchtime=20x -count=5 . \
		| $(GO) run ./cmd/benchjson > store_base.json
	RIM_BENCH_STORE=none $(GO) test -run=xxx -bench='BenchmarkServeMixed$$' -benchtime=20x -count=5 . \
		| $(GO) run ./cmd/benchjson -gate store_base.json -tol $(STORE_TOL)
	RIM_BENCH_STORE=1 $(GO) test -run=xxx -bench='BenchmarkServeMixed$$' -benchtime=20x -count=5 . \
		| $(GO) run ./cmd/benchjson -gate store_base.json -tol $(STORE_SYNC_TOL)

# Observability demo: anneal + packet-sim an n=1024 instance with spans
# on, emitting a Chrome trace (load trace.json in ui.perfetto.dev or
# chrome://tracing) and a run manifest with per-phase rollups.
trace-demo:
	$(GO) run ./cmd/netsim -family uniform2d -n 1024 -topo anneal -slots 4000 \
		-trace-out trace.json -manifest-out manifest.json
	@echo "trace-demo: wrote trace.json (open in ui.perfetto.dev) and manifest.json"

# Disabled-path overhead gate: benchmark the anneal evaluator with the
# observability layer compiled out (-tags obs_off), archive it as the
# baseline, then re-benchmark the normal build and fail if the best
# ns/op regressed by more than 3%. The serve batch pipeline gets the
# same treatment, which extends the ≤3% contract to the flight-recorder
# guards on the enqueue→apply→publish path (obs_off compiles the flight
# write out entirely). The in-process guard gates (RIM_OBS_GATE=1)
# additionally bound the raw `if obs.On()` check at <2ns/op, 0 allocs,
# and the *enabled* always-on flight write at <150ns, 1 alloc — ≤3% of
# even the cheapest real batch.
OBS_TOL ?= 0.03
obs-overhead:
	$(GO) test -tags obs_off -run=xxx -bench='BenchmarkAnnealEvaluator$$' -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson > obs_base.json
	$(GO) test -run=xxx -bench='BenchmarkAnnealEvaluator$$' -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson -gate obs_base.json -tol $(OBS_TOL)
	$(GO) test -tags obs_off -run=xxx -bench='BenchmarkBatchPipeline$$' -benchtime=5000x -count=3 ./internal/serve/ \
		| $(GO) run ./cmd/benchjson > flight_base.json
	$(GO) test -run=xxx -bench='BenchmarkBatchPipeline$$' -benchtime=5000x -count=3 ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -gate flight_base.json -tol $(OBS_TOL)
	RIM_OBS_GATE=1 $(GO) test -run 'TestDisabledOverheadGate|TestFlightWriteGate' -count=1 -v ./internal/obs/

# Print the full experiment catalogue.
repro:
	$(GO) run ./cmd/paperrepro

# Render the paper's figures as SVG into figs/.
figures:
	$(GO) run ./cmd/paperrepro -exp f7 -figdir figs >/dev/null && ls figs

# Save every experiment table as CSV into tables/.
tables:
	$(GO) run ./cmd/paperrepro -csv -outdir tables >/dev/null && ls tables

cover:
	$(GO) test -cover ./...

# Short fuzz session over every fuzz target (seeded by the committed
# corpora under testdata/fuzz/).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=xxx -fuzz=FuzzInterferenceGridVsNaive -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=xxx -fuzz=FuzzEvaluatorConsistency -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=xxx -fuzz=FuzzRobustnessBound -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=xxx -fuzz=FuzzCheckRadii -fuzztime=$(FUZZTIME) ./internal/oracle/
	$(GO) test -run=xxx -fuzz=FuzzLaws -fuzztime=$(FUZZTIME) ./internal/oracle/
	$(GO) test -run=xxx -fuzz=FuzzPhysEvaluator -fuzztime=$(FUZZTIME) ./internal/oracle/
	$(GO) test -run=xxx -fuzz=FuzzReadInstance -fuzztime=$(FUZZTIME) ./internal/encode/
	$(GO) test -run=xxx -fuzz=FuzzReadTopology -fuzztime=$(FUZZTIME) ./internal/encode/
	$(GO) test -run=xxx -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=xxx -fuzz=FuzzWALPayload -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run=xxx -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run=xxx -fuzz=FuzzReplDecode -fuzztime=$(FUZZTIME) ./internal/wire/

# The nightly CI job's longer exploration of the same targets.
fuzz-nightly:
	$(MAKE) fuzz FUZZTIME=5m

clean:
	rm -rf figs tables test_output.txt bench_output.txt \
		trace.json manifest.json obs_base.json flight_base.json store_base.json
