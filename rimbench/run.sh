#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash rimbench/run.sh --workload wire_mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, data directories, span files) stays under
# .bench_build/ at the checkout root; nothing is fetched from the
# network (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/rimbench" && go build -o "$out/rimbench" .) >&2
cd "$root"
exec "$out/rimbench" -dir "$out" "$@"
