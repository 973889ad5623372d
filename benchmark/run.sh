#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the checkout root:
#
#   bash benchmark/run.sh --workload trace_amr --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# and collector directories, span files) stays under .bench_build/ in
# the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/pilgrim-benchmark" .)
exec "$build/pilgrim-benchmark" --work "$build/work" "$@"
