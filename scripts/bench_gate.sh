#!/usr/bin/env bash
# bench_gate.sh — the benchmark-regression CI gate.
#
# Runs the engine, analysis and service benchmarks and compares them
# (via `benchjson -gate`) against the checked-in BENCH_results.json
# baseline: the gate fails if any gated benchmark's ns/op regresses by
# more than 25% or its allocs/op grows beyond its limit. Gated:
# BenchmarkEngine* (the simulator hot path, including
# BenchmarkEngineCapacitySweep: a capacity change must allocate what a
# fixed-capacity run does), BenchmarkAnalysisPipeline*
# (the labeling pipeline, exact-only and through the dependence
# ensemble), BenchmarkDepsQuery* (the dependence solver plus a sweep of
# its sink index — its allocs gate is exact, pinning the
# allocation-free query-path claim for both the exact solver and the
# ensemble chain), BenchmarkSequentialBaseline (the uniprocessor
# reference run) and the service benchmarks — BenchmarkServiceLabel*
# (the coalescing queue path plus the response-cache fast path)
# and BenchmarkServiceSimulateThroughput (the simulate path serving rows
# kept on the program-tier entry) —
# and the persistent-store benchmarks BenchmarkStore* (durable put,
# validated get, recovery scan), plus the router's routing hot path
# BenchmarkRouterRoute (ring walk + bounded-load pick, no network —
# gated exactly at 2 allocs/op so placement never grows a hidden
# allocation). BenchmarkServiceLabelDelta rides the BenchmarkServiceLabel
# prefix: the steady-state delta path (every unchanged region served
# from the fragment cache) is alloc-exact too, and so is
# BenchmarkServiceLabelUncached (the cold label path with no cache or
# fragment reuse, single caller). Allocation counts are
# machine-independent for the single-threaded benchmarks
# (BenchmarkServiceLabelSerial included), so their allocs gate is exact;
# the *Throughput service benchmarks run concurrent submitters whose
# per-op allocs depend on scheduling, and the BenchmarkStore* rows are
# fs-bound (directory listings and temp-file naming vary per kernel), so
# those get a 25% allocs allowance (benchjson -gate-alloc-slack). The
# ns/op threshold absorbs runner noise.
#
# Usage:
#   scripts/bench_gate.sh                  # gate against BENCH_results.json
#   BENCHTIME=2s scripts/bench_gate.sh     # steadier numbers
#   MAX_REGRESS=0.40 scripts/bench_gate.sh # looser ns/op threshold
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-BenchmarkEngine|BenchmarkAnalysisPipeline|BenchmarkDepsQuery|BenchmarkSequentialBaseline|BenchmarkService|BenchmarkStore|BenchmarkRouterRoute}"
BENCHTIME="${BENCHTIME:-1s}"
BASELINE="${BASELINE:-BENCH_results.json}"
MAX_REGRESS="${MAX_REGRESS:-0.25}"
PREFIXES="${PREFIXES:-BenchmarkEngine,BenchmarkAnalysisPipeline,BenchmarkDepsQuery,BenchmarkSequentialBaseline,BenchmarkServiceLabel,BenchmarkServiceSimulateThroughput,BenchmarkStore,BenchmarkRouterRoute}"
ALLOC_SLACK="${ALLOC_SLACK:-0.25}"

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/benchjson" ./cmd/benchjson
go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" . ./internal/service ./internal/store ./internal/cluster |
  tee /dev/stderr |
  "$bin/benchjson" -gate "$BASELINE" -gate-prefix "$PREFIXES" -gate-max-regress "$MAX_REGRESS" \
    -gate-alloc-slack "$ALLOC_SLACK" \
    -gate-alloc-slack-prefix "BenchmarkServiceLabelThroughput,BenchmarkServiceSimulateThroughput,BenchmarkStore"
