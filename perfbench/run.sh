#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload rr-get --seed 1 --seconds 10 --trace 0
# Everything the build writes (binary, Go build cache, toolchain config)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
