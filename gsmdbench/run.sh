#!/usr/bin/env bash
# Builds gsmd and the benchmark program from the checkout this is run in,
# then runs the benchmark with the given arguments:
#
#   bash gsmdbench/run.sh --workload serve-selective --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# gsmd's state directories all stay under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/gsmdbench"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/gsmd" ./cmd/gsmd
(cd gsmdbench && go build -o "$out/gsmdbench" .)
# Flush the build's writes first: set-up times gsmd's WAL fsyncs, which
# would otherwise queue behind a fresh build cache's writeback.
sync -f "$out"
exec "$out/gsmdbench" --gsmd "$out/gsmd" --dir "$out/run" "$@"
