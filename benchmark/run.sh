#!/usr/bin/env bash
# Build the benchmark and run it. See README.md.
#
#   benchmark/run.sh                     every workload: end-to-end, then per-layer
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                        one run; the last line of stdout is its JSON result
#   benchmark/run.sh --smoke             every workload at 64-128 QFDBs, one repetition
#   benchmark/run.sh --selfcheck         two full sets on one build must agree within the bounds
#   benchmark/run.sh --bless             re-pin expected/<workload>.seed{1,2}.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
all_workloads=(heavy_random_1024 collectives_grid_2048 campaign_small_512 analyze_131072)

usage() {
    sed -n '2,9p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
    echo "options: [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke|--selfcheck|--bless]"
}

mode=run
workloads=("${all_workloads[@]}")
seed=1
traces=(0 1)
extra=()
while (($#)); do
    case "$1" in
        --workload) workloads=("${2:?--workload needs a name}"); shift 2 ;;
        --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
        --seconds) extra+=(--seconds "${2:?--seconds needs a number}"); shift 2 ;;
        --trace)
            if [[ "${2:-}" =~ ^[01]$ ]]; then traces=("$2"); shift 2; else traces=(1); shift; fi ;;
        --smoke | --selfcheck | --bless) mode="${1#--}"; shift ;;
        -h | --help) usage; exit 0 ;;
        *) echo "error: unexpected argument $1" >&2; usage >&2; exit 2 ;;
    esac
done

# The harness is its own package outside the root workspace; a relative
# CARGO_TARGET_DIR (the driver sets one) is relative to the caller's directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/exaflow-benchmark"

# Provenance recorded in every output. The harness itself pins
# EXAFLOW_THREADS=1 (see README.md, "Thread pinning").
BENCH_GIT_SHA="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V)"
export BENCH_GIT_SHA BENCH_RUSTC

# Every workload runs in a child process of its own, once per trace mode.
run_set() { # <out dir> [extra arguments]
    local out="$1" status=0
    shift
    for workload in "${workloads[@]}"; do
        for trace in "${traces[@]}"; do
            "$bin" --dir "$here" --out "$out" --workload "$workload" --seed "$seed" \
                --trace "$trace" ${extra[@]+"${extra[@]}"} "$@" || status=1
        done
    done
    return "$status"
}

case "$mode" in
    run) run_set "$here/out" ;;
    smoke) run_set "$here/out/smoke" --smoke ;;
    selfcheck)
        run_set "$here/out/selfcheck-a"
        run_set "$here/out/selfcheck-b"
        "$bin" --compare "$here/out/selfcheck-a" "$here/out/selfcheck-b" \
            --benchmark-json "$here/../BENCHMARK.json"
        ;;
    bless)
        for seed in 1 2; do
            for workload in "${workloads[@]}"; do
                "$bin" --dir "$here" --workload "$workload" --seed "$seed" --bless
            done
        done
        ;;
esac
