#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Build
# outputs and the go build cache stay inside the checkout (.bench_build/),
# so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/cycbench" .
exec "$out/cycbench" "$@"
