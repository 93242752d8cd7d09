#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every long-running step runs under a hard timeout: a hung test (a wedged
# child process, a suite worker that never returns) must fail the gate, not
# stall it.
TIMEOUT="timeout -k 30"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
$TIMEOUT 1800 cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
$TIMEOUT 1800 cargo test -q --workspace

# Broken intra-doc links (a renamed or deleted item, a public page linking a
# private one) fail here. `--lib` because the CLI binary and the facade
# library are both named `exaflow` and would collide on one output page.
echo "== rustdoc (-D warnings)"
RUSTDOCFLAGS="-D warnings" $TIMEOUT 900 \
  cargo doc -q --no-deps --workspace --lib --offline --keep-going

# The vendored JSON parser sits outside the workspace; its unit tests
# (nesting cap included) run against the root target/.
echo "== vendored JSON parser unit tests"
CARGO_TARGET_DIR="$PWD/target" $TIMEOUT 900 \
  cargo test -q --offline --manifest-path vendor/serde_json/Cargo.toml

# The workspace run gives the tie-heavy replay churn the default 64 cases
# (tier-1 stays fast); the gate gives it real volume. Only strategies
# without a pinned `with_cases` follow the variable.
echo "== max-min replay churn with PROPTEST_CASES=512"
PROPTEST_CASES=512 $TIMEOUT 900 cargo test -q -p exaflow-sim --test proptest_maxmin_equiv

# The same volume for the engine's traced runs under random faults: every
# recompute at the textbook's rates, every trace oracle-clean.
echo "== faulted engine traces with PROPTEST_CASES=512"
PROPTEST_CASES=512 $TIMEOUT 900 cargo test -q -p exaflow-sim --test proptest_engine faulted_traces

# The same volume for the fault overlay's canonical-route properties.
echo "== fault-overlay routes with PROPTEST_CASES=512"
PROPTEST_CASES=512 $TIMEOUT 900 cargo test -q -p exaflow-topo --test proptest_faults

echo "== crash-safety gate: kill-and-resume, torn journals, typed per-entry errors"
$TIMEOUT 900 cargo test -q -p exaflow-cli --test cli campaign

# One pass: the cache stores what `TopologySpec::build` returns, so it
# cannot change which routing code runs.
echo "== topology cache: cached suites and campaigns vs a direct run per entry"
$TIMEOUT 900 cargo test -q -p exaflow-suite --test topo_cache_equiv

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

# Every artefact is deterministic: `exaflow reproduce` stdout and JSON must
# match the checked-in files byte for byte. fig2, fig3 and resilience (the
# random-cable-failure table, pinned as failure_resilience_output.txt) take
# no options, and any argument must be rejected with exit 2 rather than
# ignored; fig2 writes figure2/*.dot into its working directory, so all run
# in a scratch one, and its four drawings must match the copies pinned in
# scripts/fig2_expected/. table1 and table2 run at the paper's 131,072
# QFDBs (about a second each on two threads); fig4/fig5 at 128 QFDBs (a
# fraction of a second each) and at the default 2,048 (about 25 s together
# on two threads).
echo "== reproduce: fig2/fig3/resilience stdout, table1, table2, fig4/fig5 at 128 and 2,048 QFDBs are pinned"
FIGDIR="$(mktemp -d)"
trap 'rm -rf "$FIGDIR"' EXIT
EXAFLOW="$PWD/target/release/exaflow"
for a in fig2 fig3 resilience; do
  out="${a}_output.txt"
  if [ "$a" = resilience ]; then out=failure_resilience_output.txt; fi
  (cd "$FIGDIR" && $TIMEOUT 60 "$EXAFLOW" reproduce $a) \
    | diff -u "$out" - \
    || { echo "reproduce $a output drifted from $out"; exit 1; }
  code=0
  (cd "$FIGDIR" && $TIMEOUT 60 "$EXAFLOW" reproduce $a --json x.json) 2>/dev/null || code=$?
  [ "$code" -eq 2 ] || { echo "reproduce $a --json x.json exited $code, want 2"; exit 1; }
done
diff -r scripts/fig2_expected "$FIGDIR/figure2" \
  || { echo "reproduce fig2 drawings drifted from scripts/fig2_expected/"; exit 1; }
for a in table1 table2; do
  $TIMEOUT 300 "$EXAFLOW" reproduce $a --threads 2 --json "$FIGDIR/$a.json" 2>/dev/null \
    | diff -u "${a}_output.txt" - \
    || { echo "reproduce $a output drifted from ${a}_output.txt"; exit 1; }
  cmp "${a}_results.json" "$FIGDIR/$a.json" \
    || { echo "reproduce $a JSON drifted from ${a}_results.json"; exit 1; }
done
for a in fig4 fig5; do
  $TIMEOUT 300 "$EXAFLOW" reproduce $a --scale 128 --threads 1 --json "$FIGDIR/$a.json" \
    >/dev/null 2>&1
  cmp "${a}_128_results.json" "$FIGDIR/$a.json" \
    || { echo "reproduce $a --scale 128 drifted from ${a}_128_results.json"; exit 1; }
  $TIMEOUT 600 "$EXAFLOW" reproduce $a --threads 2 --json "$FIGDIR/$a.json" 2>/dev/null \
    | diff -u "${a}_output.txt" - \
    || { echo "reproduce $a output drifted from ${a}_output.txt"; exit 1; }
  cmp "${a}_results.json" "$FIGDIR/$a.json" \
    || { echo "reproduce $a JSON drifted from ${a}_results.json"; exit 1; }
done

# Hostile input: every file of a generated corpus, fed to every command
# that reads JSON, must end in a typed error (exit 1-3) well inside a
# timeout — never a hang (124) and never a signal (a stack overflow
# aborts with 134).
echo "== malformed input: every command exits 1-3, never on a signal"
CORPUS="$(mktemp -d)"
trap 'rm -rf "$FIGDIR" "$CORPUS"' EXIT
mkdir "$CORPUS/bad"
python3 - "$CORPUS" <<'PY'
import os, random, sys
root = sys.argv[1]
def write(name, data):
    with open(os.path.join(root, name), "wb") as f:
        f.write(data.encode() if isinstance(data, str) else data)
config = ('{"topology": {"topology": "torus", "dims": [4, 4]}, '
          '"workload": {"workload": "reduce", "tasks": 8, "bytes": 1024}')
write("suite.json", "[" + config + "}]")
write("bad/deep.json", "[" * 2_000_000)
write("bad/truncated.json", config[:-20])
write("bad/empty.json", "")
write("bad/random.bin", random.Random(7).randbytes(4096))
write("bad/negative_rate.json", config + ', "sim": {"injection_bps": -1.0, '
      '"ejection_bps": 1e10, "batch_epsilon": 1e-9, "record_flow_times": false}}')
write("bad/latency.json", config + ', "sim": {"injection_bps": 1e10, '
      '"ejection_bps": 1e10, "batch_epsilon": 1e-9, "per_hop_latency_s": 1e-6}}')
write("bad/null_rate.json", config + ', "sim": {"injection_bps": null, '
      '"ejection_bps": 1e10, "batch_epsilon": 1e-9}}')
write("bad/removed_family.json", config.replace('"torus", "dims": [4, 4]',
      '"dragonfly", "groups": 5, "a": 2, "p": 1, "h": 2') + "}")
PY
JOURNAL="$CORPUS/bad/journal.jsonl"
$TIMEOUT 60 $EXAFLOW sweep "$CORPUS/suite.json" --journal "$JOURNAL" >/dev/null 2>&1
printf 'not a journal line\n{"fingerprint": "torn' >>"$JOURNAL"
expect_typed_error() {
  local code=0
  timeout -k 5 60 "$@" >/dev/null 2>&1 || code=$?
  if [ "$code" -lt 1 ] || [ "$code" -gt 3 ]; then
    echo "exit $code, want 1-3: $*"
    exit 1
  fi
}
for f in "$CORPUS"/bad/*; do
  for cmd in run sweep resilience topo; do
    expect_typed_error $EXAFLOW "$cmd" "$f"
  done
  expect_typed_error $EXAFLOW sweep "$f" --journal "$JOURNAL" --resume
done
expect_typed_error $EXAFLOW sweep "$CORPUS/suite.json" --journal "$JOURNAL" --resume
# A suite entry runs once: --retries is an unknown option, a usage error.
err="$($TIMEOUT 60 $EXAFLOW sweep "$CORPUS/suite.json" --retries 2 2>&1 >/dev/null)" && code=0 || code=$?
[ "$code" -eq 1 ] && grep -q "unknown option '--retries'" <<<"$err" \
  || { echo "'exaflow sweep --retries 2' exited $code, want 1 naming the unknown option: $err"; exit 1; }
echo "$(ls "$CORPUS/bad" | wc -l) malformed files x 5 commands: typed errors only"
# The negative rate is that file's only defect, so the error must name it.
err="$($TIMEOUT 60 $EXAFLOW run "$CORPUS/bad/negative_rate.json" 2>&1 >/dev/null || true)"
grep -q injection_bps <<<"$err" \
  || { echo "'exaflow run' on a negative injection rate does not name injection_bps: $err"; exit 1; }
# A value of the wrong type fails to parse, and the error must name its key.
err="$($TIMEOUT 60 $EXAFLOW run "$CORPUS/bad/null_rate.json" 2>&1 >/dev/null || true)"
grep -q injection_bps <<<"$err" \
  || { echo "'exaflow run' on a null injection rate does not name injection_bps: $err"; exit 1; }
# The engine has no head-latency model: a non-zero latency key is rejected
# by name rather than ignored.
err="$($TIMEOUT 60 $EXAFLOW run "$CORPUS/bad/latency.json" 2>&1 >/dev/null || true)"
grep -q per_hop_latency_s <<<"$err" \
  || { echo "'exaflow run' on a per-hop latency does not name per_hop_latency_s: $err"; exit 1; }
# A family outside the study fails to parse, and the error must name it.
err="$($TIMEOUT 60 $EXAFLOW run "$CORPUS/bad/removed_family.json" 2>&1 >/dev/null || true)"
grep -q dragonfly <<<"$err" \
  || { echo "'exaflow run' on a dragonfly config does not name dragonfly: $err"; exit 1; }

echo "== paper-scale analyze: exact all-sources Table 1 (40 / 5.94, pinned (2,4) hybrid cells)"
$TIMEOUT 300 ./target/release/exaflow analyze --scale 131072 --sources all --hybrids 2>/dev/null \
  | python3 -c '
import json, sys
rows = json.load(sys.stdin)["rows"]
torus, fattree, tree, ghc = (row["stats"] for row in rows)
assert all(row["stats"]["exact"] for row in rows), [row["stats"]["exact"] for row in rows]
assert abs(torus["average"] - 40.00030517810958) <= 1e-9, torus["average"]
assert torus["diameter"] == 80, torus["diameter"]
assert abs(fattree["average"] - 5.94) <= 0.05, fattree["average"]
assert fattree["diameter"] == 6, fattree["diameter"]
cell = next(row for row in json.load(open("table1_results.json")) if (row["t"], row["u"]) == (2, 4))
for name, stats, key in (("NestTree(t=2,u=4)", tree, "tree"), ("NestGHC(t=2,u=4)", ghc, "ghc")):
    assert abs(stats["average"] - cell["avg_" + key]) <= 1e-9, (name, stats["average"], cell["avg_" + key])
    assert stats["diameter"] == cell["diam_" + key], (name, stats["diameter"], cell["diam_" + key])
print("torus avg %.4f, fattree avg %.4f: exact, meets Table 1; NestTree %.4f, NestGHC %.4f: the pinned (2,4) cells"
      % (torus["average"], fattree["average"], tree["average"], ghc["average"]))
' || { echo "paper-scale analyze drifted from Table 1"; exit 1; }

echo "All checks passed."
