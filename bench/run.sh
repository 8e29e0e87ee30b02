#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build writes (binary, Go build cache, temp files, the
# toolchain's telemetry counters) stays under .bench_build/ in the
# checkout this script lives in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off
export XDG_CONFIG_HOME="$out/config"
go build -C "$here" -o "$out/fanstore-bench" .
exec "$out/fanstore-bench" "$@"
