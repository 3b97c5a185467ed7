#!/usr/bin/env bash
# Builds oovrbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh --workload figures --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh compare A.jsonl B.jsonl
#   bash bench/run.sh pin > bench/expected.json
#
# Every file the Go toolchain writes (build cache, module cache, the binary)
# lands under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd bench && go build -buildvcs=false -o "$out/oovrbench" .)
exec "$out/oovrbench" "$@"
