#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# scratch tables stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/work" "$@"
