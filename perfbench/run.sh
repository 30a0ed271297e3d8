#!/usr/bin/env bash
# Builds the jxta simulator benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload peerview-converge --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every build artifact (compiler
# cache, binary) stays under .bench_build/ so the run touches nothing
# outside the checkout. The last line of standard output is the result
# object; see perfbench/README.md.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
export GOPROXY=off

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
