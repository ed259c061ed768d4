#!/usr/bin/env bash
# Builds pfbench from source and runs it from the repository root.
#
#   bash bench/run.sh --workload dside-zoo --seed 1 --seconds 36 --trace 0
#   bash bench/run.sh -compare a1.json a2.json -- b1.json b2.json
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the repository root, so a run writes nothing outside
# the checkout. Outside a full checkout the build fails and so does this
# script, without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$out/pfbench" ./cmd/pfbench
cd "$root"
exec "$out/pfbench" "$@"
