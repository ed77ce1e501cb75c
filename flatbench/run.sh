#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash flatbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/flatbench" && go build -o "$out/flatbench" .) >&2
# Untimed preparation (generated worlds, deltas, reference answers) runs in
# its own process, so the measured process's peak RSS never includes it.
"$out/flatbench" -prepare "$@" >&2
exec "$out/flatbench" "$@"
