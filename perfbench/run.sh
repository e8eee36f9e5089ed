#!/usr/bin/env bash
# Builds efdd and the benchmark from source, then runs one benchmark
# invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-binary-durable --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in
# the current directory (Go build cache, binaries, temporary data
# directories), so nothing outside the checkout is touched.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/efdd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/efdd and perfbench/ must be present)" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

# The builds are outside every timed phase; an unchanged tree is a
# build-cache hit.
go build -o "$out/efdd" ./cmd/efdd
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -efdd "$out/efdd" -work "$out" -root "$root" "$@"
