#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload rt-warm --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write (Go build cache, binary, result files, traces) stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must both exist)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
