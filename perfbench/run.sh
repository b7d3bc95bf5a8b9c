#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it; arguments
# pass through (see perfbench/main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload lookahead --seed 42 --seconds 20 --trace 0
#
# Everything it writes — binary, Go build cache, temporary journals,
# span dumps — stays under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f synran.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root of a full synran checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
