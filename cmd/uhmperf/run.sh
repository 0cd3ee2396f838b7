#!/usr/bin/env bash
# Builds uhmperf from this checkout and runs it from the repository root,
# passing every argument through:
#
#   bash cmd/uhmperf/run.sh -workload all -seed 42 -o out.json
#
# uhmperf builds cmd/uhmd itself.  The Go build cache, module cache, Go's
# configuration and telemetry files, temporary files, binaries and run
# directories all stay under .bench_build/, so a run reads and writes nothing
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
out="$PWD/.bench_build/uhmperf"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C cmd/uhmperf build -o "$out/bin/uhmperf" .
exec "$out/bin/uhmperf" "$@"
