#!/bin/sh
# Repeats the test suites of the packages with goroutine-ordered
# startup and shutdown, each run a fresh process. `go test -count=N`
# reruns tests inside one process, where warmed state (listeners,
# pools, scheduler timing) hides ordering bugs a cold start exposes;
# separate processes do not.
#
# Usage: scripts/flake.sh [runs] [package ...]
#   runs defaults to 20; packages default to ./cmd/efdd ./efd/client
#   ./internal/server. Every package must pass every run. Output of the
#   first failing run of each package is printed.
set -eu

GO=${GO:-go}
runs=${1:-20}
[ $# -gt 0 ] && shift
[ $# -gt 0 ] || set -- ./cmd/efdd ./efd/client ./internal/server

root=$(pwd)
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT

status=0
for pkg in "$@"; do
	exe="$bin/$(echo "$pkg" | tr -c 'A-Za-z0-9\n' _).test"
	"$GO" test -c -o "$exe" "$pkg"
	passed=0
	shown=
	i=0
	while [ "$i" -lt "$runs" ]; do
		i=$((i + 1))
		# Tests read testdata relative to their package directory.
		if (cd "$root/$pkg" && "$exe" -test.count=1 -test.timeout=5m >"$bin/out" 2>&1); then
			passed=$((passed + 1))
		elif [ -z "$shown" ]; then
			shown=1
			echo "--- $pkg: run $i failed:"
			cat "$bin/out"
		fi
	done
	echo "$pkg: $passed/$runs passed"
	[ "$passed" -eq "$runs" ] || status=1
done
exit $status
