#!/usr/bin/env bash
# Builds the gpunoc benchmark from the source of the checkout it is run in
# and runs one workload:
#
#   bash _gpunocbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Every build and run output (Go build
# cache, the benchmark binary, result files, spans, CPU profiles) goes under
# .bench_build/ in that directory; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
mkdir -p "$HOME"

go -C "$here" build -o "$out/gpunocbench" .
exec "$out/gpunocbench" -out "$out/results" "$@"
