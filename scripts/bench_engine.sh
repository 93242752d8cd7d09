#!/usr/bin/env bash
# Rate-engine perf snapshot: records a solver churn scenario (checked
# against the textbook max-min reference), end-to-end engine walltimes with
# their solver effort, and the distance-analysis trajectory (exact sweep vs stratified sampled
# estimator up to the paper's 131,072-QFDB scale) to a JSON file.
# Usage: scripts/bench_engine.sh [output.json]   (default BENCH_engine.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_engine.json}"
# Criterion micro-benchmarks for the sweep kernels (human-readable only —
# the vendored criterion stub has no machine output).
cargo bench -q -p exaflow-bench --bench distance_sweep
cargo run --release -q -p exaflow-bench --bin engine_snapshot -- "$out"
