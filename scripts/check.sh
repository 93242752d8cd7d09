#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every long-running step runs under a hard timeout: a hung test (deadlocked
# worker pool, wedged child process) must fail the gate, not stall it.
TIMEOUT="timeout -k 30"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
$TIMEOUT 1800 cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
$TIMEOUT 1800 cargo test -q --workspace

# The workspace run above covers the default (auto = 1 thread, no pool);
# this pass makes `solver_threads: 0` resolve to a real pool.
echo "== engine equivalence with EXAFLOW_THREADS=2 (auto resolves to a pool)"
EXAFLOW_THREADS=2 $TIMEOUT 900 cargo test -q -p exaflow-suite --test engine_equiv

# The workspace run gives the tie-heavy replay churn the default 64 cases
# (tier-1 stays fast); the gate gives it real volume. Only strategies
# without a pinned `with_cases` follow the variable.
echo "== max-min replay churn with PROPTEST_CASES=512"
PROPTEST_CASES=512 $TIMEOUT 900 cargo test -q -p exaflow-sim --test proptest_maxmin_equiv

echo "== crash-safety gate: kill-and-resume, torn journals, retry/quarantine"
$TIMEOUT 900 cargo test -q -p exaflow-cli --test cli campaign

echo "== parallel distance sweep bit-identical with EXAFLOW_THREADS=1"
EXAFLOW_THREADS=1 $TIMEOUT 900 cargo test -q -p exaflow-suite --test tables table1_parallel_sweep

echo "== parallel distance sweep bit-identical with the default thread count"
$TIMEOUT 900 cargo test -q -p exaflow-suite --test tables table1_parallel_sweep

# One pass: the cache stores what `TopologySpec::build` returns, so it
# cannot change which routing code runs and crossing it with the engine
# pool size tests nothing new.
echo "== topology-cache differential gate"
$TIMEOUT 900 cargo test -q -p exaflow-suite --test topo_cache_equiv

echo "== cargo bench --no-run (benches must keep compiling)"
$TIMEOUT 1800 cargo bench --workspace --no-run

# `benchmark/` is a package of its own that the pipeline builds from this
# checkout; an API change that breaks it must fail here, not there.
# run.sh builds into the root target/, so the cargo steps share it.
echo "== frozen benchmark harness: build, unit tests, smoke run"
CARGO_TARGET_DIR="$PWD/target" $TIMEOUT 1800 \
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR="$PWD/target" $TIMEOUT 1800 \
  cargo test --release --offline --manifest-path benchmark/Cargo.toml
$TIMEOUT 900 bash benchmark/run.sh --smoke

echo "== tracing-off output is bit-identical to the pinned pre-tracing run"
cargo build -q --release -p exaflow-cli
$TIMEOUT 300 ./target/release/exaflow run scripts/golden_run_config.json \
  | grep -v '"wall_seconds"' \
  | diff -u scripts/golden_run_expected.json - \
  || { echo "untraced 'exaflow run' output drifted from scripts/golden_run_expected.json"; exit 1; }

echo "== paper-scale analyze: exact all-sources averages meet Table 1 (40 / 5.94)"
$TIMEOUT 300 ./target/release/exaflow analyze --scale 131072 --sources all 2>/dev/null \
  | python3 -c '
import json, sys
rows = json.load(sys.stdin)["rows"]
torus, fattree = rows[0]["stats"], rows[1]["stats"]
assert torus["exact"] and fattree["exact"], (torus["exact"], fattree["exact"])
assert abs(torus["average"] - 40.00030517810958) <= 1e-9, torus["average"]
assert torus["diameter"] == 80, torus["diameter"]
assert abs(fattree["average"] - 5.94) <= 0.05, fattree["average"]
assert fattree["diameter"] == 6, fattree["diameter"]
print("torus avg %.4f, fattree avg %.4f: exact, meets Table 1" % (torus["average"], fattree["average"]))
' || { echo "paper-scale analyze drifted from Table 1"; exit 1; }

echo "All checks passed."
