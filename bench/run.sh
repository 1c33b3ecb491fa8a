#!/usr/bin/env bash
# Builds the HARL benchmark from source and runs it from the repository
# root. Every file the Go toolchain writes (build cache, module cache,
# telemetry, temp files, the binary) stays under .bench_build/ in the
# checkout.
#
#   bash bench/run.sh [-workload W] [-seed N] [-trace 0|1] [-out DIR] [-json FILE]
#   bash bench/run.sh -compare base.json[,more.json...] new.json[,more.json...]
#
# See bench/README.md for the workloads, the metrics and the output.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/harlbench" .)
cd "$root"
exec "$build/harlbench" "$@"
