#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the root of a gpclust checkout:
#
#   bash perfbench/run.sh --workload metagenome --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary,
# traces) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a gpclust checkout" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
