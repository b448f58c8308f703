#!/usr/bin/env bash
# Builds swbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#   bash cmd/swbench/swbench.sh --workload table1-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary build files, the go command's configuration
# directory (where it keeps telemetry counters) and the binary all live under
# .bench_build/ in the current directory, so a run writes nothing outside the
# checkout it measures.  swbench is its own module (cmd/swbench/go.mod) that
# builds against the enclosing repository through a replace directive; the
# build, and therefore the run, fails in a directory that holds only the
# benchmark.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/cmd/swbench" && go build -o "$build/bin/swbench" .)
exec "$build/bin/swbench" "$@"
