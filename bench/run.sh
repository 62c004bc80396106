#!/usr/bin/env bash
# Builds the host-performance benchmark (bench/hostbench) from source and
# runs it from the repository root with the given arguments, e.g.
#
#   bash bench/run.sh --workload spec-compute --seed 1 --seconds 38 --trace 0
#
# Everything the build and the run write stays under bench/out: the Go
# build cache, the binary, the results, and the toolchain's config
# directory (where it keeps telemetry), which HOME and XDG_CONFIG_HOME
# locate. The toolchain never fetches a module or another Go release, and
# ignores GOFLAGS or a go.work file inherited from the caller.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$bench/out"
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$bench" build -o "$out/hostbench" ./hostbench
cd "$bench/.."
exec "$out/hostbench" "$@"
