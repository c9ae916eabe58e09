#!/usr/bin/env bash
# Builds the servers and the benchmark program from this checkout, then
# runs it with the given arguments. Run it from the repository root:
#
#	bash benchmark/run.sh --workload drift-train --seed 1 --seconds 10 --trace 0
#
# Every build output and cache stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/freeway-serve" ./cmd/freeway-serve
go build -o "$out/bin/freeway-router" ./cmd/freeway-router
(cd "$root/benchmark" && go build -o "$out/bin/freeway-bench" .)
exec "$out/bin/freeway-bench" -bin "$out/bin" "$@"
