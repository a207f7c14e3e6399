#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
#
#   bash wsbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash wsbench/run.sh compare BASE.out NEW.out
#
# Everything the build and the runs write stays below .bench_build/ in
# the checkout: the Go build cache, the binary and the checkpoint
# journals. The module proxy is off; the benchmark has no dependency
# beyond the repository and the standard library.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

out="$root/.bench_build/wsbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off

(cd "$here" && go build -buildvcs=false -o "$out/wsbench" .) >&2
exec "$out/wsbench" "$@"
