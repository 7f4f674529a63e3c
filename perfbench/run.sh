#!/usr/bin/env bash
# Builds the benchmark and the ldl1d server from this checkout, then runs
# the benchmark with the given arguments (--workload, --seed, --seconds,
# --trace).  Run it from the repository root.  Build output, the Go build
# cache and generated inputs all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/ldl1d" ldl1/cmd/ldl1d) >&2
exec "$out/perfbench" --ldl1d "$out/ldl1d" --workdir "$out/work" "$@"
