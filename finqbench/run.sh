#!/usr/bin/env bash
# Builds finqbench from source and runs one workload. Run from the
# repository root:
#
#   bash finqbench/run.sh --workload enum-decide --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, and the traced runs' span dumps stay in
# .bench_build/ under the repository root; nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/spans" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off GOPROXY=off
(cd "$root/finqbench" && go build -o "$out/finqbench" .) >&2
exec "$out/finqbench" --spans-dir "$out/spans" "$@"
