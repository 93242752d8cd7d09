#!/usr/bin/env bash
# Append one row to the checked-in perf history, BENCH_history.jsonl: run
# the frozen harness end to end (`benchmark/run.sh --trace 0`, seed 1) and
# record its four workloads x end-to-end metrics with the date, git sha,
# box and compiler. The harness is not touched; this only reads what it
# leaves in benchmark/out/.
# Usage: scripts/bench_history.sh [note]
set -euo pipefail
cd "$(dirname "$0")/.."

note="${1:-}"
# A run with failed operations exits non-zero; its row is still history.
status=0
bash benchmark/run.sh --trace 0 >&2 || status=$?

# The harness stamps HEAD; say so when the tree it built differs from it.
dirty=false
[[ -z "$(git status --porcelain -- . ':!BENCH_history.jsonl')" ]] || dirty=true

python3 - "$note" "$dirty" >>BENCH_history.jsonl <<'EOF'
import datetime, json, sys

note, dirty = sys.argv[1], sys.argv[2] == "true"
workloads = ["heavy_random_1024", "collectives_grid_2048", "campaign_small_512", "analyze_131072"]
runs = {w: json.load(open(f"benchmark/out/{w}.json")) for w in workloads}
first = runs[workloads[0]]
row = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "git_sha": first["git_sha"],
    "dirty": dirty,
    "nproc": first["nproc"],
    "rustc": first["rustc"],
    "seed": first["seed"],
    "note": note,
    "workloads": {
        w: {
            "wall_s": r["wall_s"],
            "cpu_s": r["cpu_s"],
            "peak_rss_mib": r["peak_rss_mib"],
            "setup_s": r["setup_s"],
            "failed_ops": r["failed_ops"],
            "attempted_ops": r["attempted_ops"],
        }
        for w, r in runs.items()
    },
}
print(json.dumps(row, separators=(",", ":")))
EOF
tail -n 1 BENCH_history.jsonl
exit "$status"
