#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload label-cold --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and traced runs' span files live under
# .bench_build/perfbench in the checkout; the Go toolchain's own
# configuration and telemetry are redirected there too.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
  GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --repo "$root" --out "$out" "$@"
