#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash perfbench/run.sh --workload wear-ftl --seed 1 --seconds 10 --trace 0
#
# Everything the build and the traced run write stays under
# .bench_build/perfbench in the checkout (Go build cache, module cache
# and the toolchain's telemetry counters included).
# Without the repository around this directory the build fails, and so
# does the script, before any result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --outdir "$out" "$@"
