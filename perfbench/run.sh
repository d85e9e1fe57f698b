#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload keepalive --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the Go tool's own config and telemetry
# files (HOME is redirected), the binary, and the result records.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/home" "${out}/gocache" "${out}/gomodcache" "${out}/tmp"

export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export XDG_CACHE_HOME="${out}/home/.cache"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off

# The build fails (and the script exits nonzero, printing no result) when
# the repository's sources are not beside the benchmark.
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)

cd "${root}"
exec "${out}/perfbench" --out "${out}/results" "$@"
