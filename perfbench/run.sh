#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload serve-wire --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare BASE_DIR CHANGE_DIR
#
# Build caches, the binary, result records, span dumps and journals all
# stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" "$@"
