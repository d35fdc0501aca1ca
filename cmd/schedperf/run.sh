#!/usr/bin/env bash
# Builds the schedperf benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash cmd/schedperf/run.sh --workload paper-cold --seed 7 --seconds 15 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all stay
# under .bench_build at the repository root; nothing is fetched, so a tree
# without the repository's library packages fails to build and exits nonzero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-config" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/go-config" \
    GOPATH="$out/go-path" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go -C "$root/cmd/schedperf" build -o "$out/schedperf" .
exec "$out/schedperf" "$@"
