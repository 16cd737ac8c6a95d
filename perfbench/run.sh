#!/usr/bin/env bash
# Builds the benchmark and sprintd from this checkout's sources, then runs
# the benchmark with the given arguments (see perfbench/README.md).
# Everything the build and the runs leave behind stays in perfbench/.build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/.build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C "$here" -o "$out/perfbench" .
go build -C "$here" -o "$out/sprintd" sprintcon/cmd/sprintd
exec "$out/perfbench" -sprintd "$out/sprintd" -workdir "$out" "$@"
