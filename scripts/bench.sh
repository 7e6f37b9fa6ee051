#!/usr/bin/env bash
# bench.sh — run the benchmark suite and write BENCH_results.json
# (benchmark name -> ns/op, allocs/op, reported metrics), embedding the
# seed-commit baseline so every results file carries its reference point.
#
# Usage:
#   scripts/bench.sh            # engine + analysis benchmarks, 2s each
#   BENCH='.' scripts/bench.sh  # the full suite (slow: regenerates figures)
#   BENCHTIME=5s scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-BenchmarkEngine|BenchmarkAnalysisPipeline|BenchmarkDepsQuery|BenchmarkSequentialBaseline|BenchmarkService|BenchmarkStore|BenchmarkRouterRoute}"
BENCHTIME="${BENCHTIME:-2s}"
OUT="${OUT:-BENCH_results.json}"

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/benchjson" ./cmd/benchjson
go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" . ./internal/service ./internal/store ./internal/cluster |
  tee /dev/stderr |
  "$bin/benchjson" -o "$OUT" -baseline scripts/seed_baseline.json -go "$(go version | awk '{print $3}')"
echo "wrote $OUT" >&2
