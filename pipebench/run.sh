#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it
# with the given arguments, from the repository root:
#
#   bash pipebench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, Go config, temporary files)
# and the benchmark's scratch data stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/pipebench" .)
exec "$build/pipebench" "$@"
