#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the checkout root:
#
#   bash benchmark/run.sh --workload fly-mem --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: Go's build cache, module cache, configuration and temporary
# files, the binary, and the run's database files (removed when the run
# ends).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/dynq-benchmark" .)
cd "$root"
# One CPU (README, "One CPU"): the first one this process may use.
pin=()
if command -v taskset >/dev/null; then
	cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
	pin=(taskset -c "$cpu")
fi
exec ${pin[@]+"${pin[@]}"} "$build/dynq-benchmark" "$@"
