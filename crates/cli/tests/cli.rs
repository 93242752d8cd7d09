//! End-to-end tests of the `exaflow` command-line binary.

use std::process::{Command, Stdio};

fn exaflow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exaflow"))
}

#[test]
fn help_prints_usage() {
    let out = exaflow().arg("help").output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exaflow run"));
}

#[test]
fn sample_lists_and_prints() {
    let out = exaflow().arg("sample").output().unwrap();
    assert!(out.status.success());
    let list = String::from_utf8_lossy(&out.stdout);
    assert!(list.contains("allreduce-nestghc"));
    let out = exaflow()
        .args(["sample", "sweep3d-torus"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"topology\": \"torus\""));
}

#[test]
fn unknown_sample_fails() {
    let out = exaflow().args(["sample", "nope"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn run_from_stdin_outputs_json_result() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            br#"{"topology": {"topology": "torus", "dims": [4, 4]},
                "workload": {"workload": "reduce", "tasks": 8, "bytes": 1024}}"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON result");
    assert_eq!(body["workload"], "Reduce");
    assert_eq!(body["flows"], 7);
    assert!(body["makespan_seconds"].as_f64().unwrap() > 0.0);
}

#[test]
fn run_with_trace_writes_oracle_clean_jsonl_and_metrics() {
    use std::io::Write;
    let trace_path =
        std::env::temp_dir().join(format!("exaflow-trace-{}.jsonl", std::process::id()));
    let mut child = exaflow()
        .args(["run", "-", "--trace", trace_path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            br#"{"topology": {"topology": "torus", "dims": [4, 4]},
                "workload": {"workload": "all_reduce", "tasks": 16, "bytes": 65536}}"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The result gains the kind-tagged metrics block when tracing is on.
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON result");
    assert_eq!(body["metrics"]["kind"], "sim_metrics");
    assert!(body["metrics"]["rate_recomputes"].as_u64().unwrap() > 0);
    assert_eq!(
        body["metrics"]["flows_finished"].as_u64(),
        body["flows"].as_u64()
    );

    // The trace file is valid JSONL and satisfies the replay oracle.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    std::fs::remove_file(&trace_path).ok();
    let events = exaflow::sim::parse_jsonl(&text).expect("trace parses as JSONL");
    let summary = exaflow::sim::check_trace(&events).expect("trace passes the oracle");
    assert_eq!(summary.flows_finished, body["flows"].as_u64().unwrap());
    assert_eq!(summary.flows_skipped, 0);
    // Max-min fills some resource: the oracle's own utilisation replay.
    assert!(
        summary.max_utilization > 0.99,
        "{}",
        summary.max_utilization
    );
}

#[test]
fn run_without_trace_emits_no_metrics_key() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            br#"{"topology": {"topology": "torus", "dims": [4, 4]},
                "workload": {"workload": "reduce", "tasks": 8, "bytes": 1024}}"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    // Tracing off must leave the result document byte-compatible with
    // pre-tracing output: not even a `"metrics": null` placeholder.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("metrics"), "stdout: {text}");
}

#[test]
fn run_rejects_unknown_flag() {
    use std::io::Write;
    // After the path, and before it: an unknown `--` argument is named as
    // an option, never taken for the path or blamed on its value.
    for args in [&["-", "--frobnicate"][..], &["--threads", "2", "-"]] {
        let mut child = exaflow()
            .arg("run")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // The child rejects the flag without reading stdin, so it may
        // already have exited: a broken pipe here is expected, not a
        // failure.
        let _ = child.stdin.as_mut().unwrap().write_all(b"{}");
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(
            err.contains(&format!("error: unknown option '{flag}'")),
            "{args:?}: stderr: {err}"
        );
    }
}

#[test]
fn run_rejects_bad_config() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"{ nonsense")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn run_prints_structured_error_json() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Well-formed JSON, inconsistent experiment: 64 tasks on 16 endpoints.
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            br#"{"topology": {"topology": "torus", "dims": [4, 4]},
                "workload": {"workload": "all_reduce", "tasks": 64, "bytes": 1024}}"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    // stdout carries the typed error as JSON, matchable on `error.kind`.
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid error JSON");
    assert_eq!(body["error"]["kind"], "too_many_tasks");
    assert_eq!(body["error"]["tasks"], 64);
    assert_eq!(body["error"]["endpoints"], 16);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("64 tasks"), "stderr: {err}");
}

#[test]
fn run_reports_invalid_sim_config_kind() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["run", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // A negative NIC rate is caught at the JSON boundary by the SimConfig
    // deserializer and reported as a parse error naming the field.
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            br#"{"topology": {"topology": "torus", "dims": [4, 4]},
                "workload": {"workload": "reduce", "tasks": 8, "bytes": 1024},
                "sim": {"injection_bps": -5.0, "ejection_bps": 1e10,
                        "batch_epsilon": 1e-9, "route_cache_cap": 1024}}"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("injection_bps"), "stderr: {err}");
}

/// Two million `[` used to recurse the parser into a stack overflow that
/// aborted the process. Every command that reads a JSON file must now
/// stop at the nesting cap with a parse error and exit 1.
#[test]
fn deeply_nested_json_is_a_parse_error_in_every_command() {
    let path = tmpfile("deep.json");
    std::fs::write(&path, "[".repeat(2_000_000)).unwrap();
    let file = path.to_str().unwrap();
    for args in [
        ["run", file],
        ["sweep", file],
        ["resilience", file],
        ["topo", file],
    ] {
        let out = exaflow().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error: parse"), "{args:?}: {err}");
        assert!(err.contains("nested deeper than 128"), "{args:?}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn topo_reports_stats() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["topo", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            br#"{"topology": {"topology": "fattree", "k": 4, "n": 2},
                "workload": {"workload": "reduce", "tasks": 8, "bytes": 1}}"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("16 endpoints"));
    assert!(body.contains("diameter 4"));
}

/// Shape of the `exaflow sweep` stdout document, for round-tripping.
#[derive(serde::Deserialize)]
struct Sweep {
    results: Vec<Result<exaflow::ExperimentResult, exaflow::ExperimentError>>,
    report: exaflow::SuiteReport,
}

const SWEEP_SUITE: &str = r#"[
  {"topology": {"topology": "torus", "dims": [4, 4]},
   "workload": {"workload": "all_reduce", "tasks": 8, "bytes": 65536}},
  {"topology": {"topology": "torus", "dims": [4, 4]},
   "workload": {"workload": "all_reduce", "tasks": 64, "bytes": 65536}},
  {"topology": {"topology": "fattree", "k": 4, "n": 2},
   "workload": {"workload": "reduce", "tasks": 16, "bytes": 65536}}
]"#;

#[test]
fn sweep_runs_suite_from_file() {
    let path = std::env::temp_dir().join(format!("exaflow-sweep-{}.json", std::process::id()));
    std::fs::write(&path, SWEEP_SUITE).unwrap();
    let out = exaflow()
        .args(["sweep", path.to_str().unwrap(), "--threads", "2"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    // One entry ends in a typed error, so the sweep exits 3 — scripted
    // callers see the partial failure without scraping stderr.
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The printed document round-trips into results + suite metrics.
    let sweep: Sweep = serde_json::from_slice(&out.stdout).expect("valid sweep JSON");
    assert_eq!(sweep.results.len(), 3);
    assert!(sweep.results[0].is_ok());
    // 64 tasks don't fit a 16-endpoint torus: a typed Err entry, not an
    // abort.
    let err = sweep.results[1].as_ref().unwrap_err();
    assert!(
        matches!(
            err,
            exaflow::ExperimentError::TooManyTasks {
                tasks: 64,
                endpoints: 16,
                ..
            }
        ),
        "unexpected error: {err:?}"
    );
    assert!(err.to_string().contains("64 tasks"), "{err}");
    assert!(sweep.results[2].is_ok());
    assert_eq!(sweep.report.experiments, 3);
    assert_eq!(sweep.report.succeeded, 2);
    assert_eq!(sweep.report.failed, 1);
    assert_eq!(sweep.report.threads, 2);
    assert_eq!(sweep.report.per_experiment_wall_seconds.len(), 3);

    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("2/3 experiments succeeded"), "stderr: {err}");
}

#[test]
fn sweep_with_metrics_aggregates_into_suite_report() {
    let path = std::env::temp_dir().join(format!("exaflow-sweepm-{}.json", std::process::id()));
    std::fs::write(&path, SWEEP_SUITE).unwrap();
    let out = exaflow()
        .args([
            "sweep",
            path.to_str().unwrap(),
            "--metrics",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(3)); // the oversubscribed entry still errors
    let sweep: Sweep = serde_json::from_slice(&out.stdout).expect("valid sweep JSON");
    // Each successful experiment carries its own metrics snapshot...
    for res in sweep.results.iter().flatten() {
        let m = res.metrics.as_ref().expect("per-experiment metrics");
        assert_eq!(m.flows_finished, res.flows);
    }
    // ...and the suite report rolls them up.
    let rollup = sweep.report.metrics.expect("suite metrics rollup");
    assert_eq!(rollup.experiments_with_metrics, 2);
    let total: u64 = sweep.results.iter().flatten().map(|r| r.flows).sum();
    assert_eq!(rollup.flows_finished, total);
    assert!(rollup.rate_recomputes > 0);

    // Without --metrics the same suite emits no metrics at all.
    std::fs::write(&path, SWEEP_SUITE).unwrap();
    let out = exaflow()
        .args(["sweep", path.to_str().unwrap(), "--threads", "2"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!String::from_utf8_lossy(&out.stdout).contains("metrics"));
}

#[test]
fn sweep_over_requested_failures_is_a_typed_error() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["sweep", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // 50 cable failures cannot be applied to a 4x4 torus (32 cables, and
    // the last link of a node is never removed). That is an inconsistent
    // spec, not a best-effort request: the entry fails with a typed
    // `invalid_failures` error and the sweep exits non-zero.
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            br#"[{"topology": {"topology": "torus", "dims": [4, 4]},
                 "workload": {"workload": "reduce", "tasks": 1, "bytes": 1},
                 "failures": {"count": 50, "seed": 9}}]"#,
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sweep: Sweep = serde_json::from_slice(&out.stdout).expect("valid sweep JSON");
    let err = sweep.results[0].as_ref().unwrap_err();
    assert!(
        matches!(err, exaflow::ExperimentError::InvalidFailures { .. }),
        "unexpected error: {err:?}"
    );
    assert!(err.to_string().contains("50"), "{err}");
    assert_eq!(sweep.report.failed, 1);
}

#[test]
fn sweep_rejects_malformed_json() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["sweep", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"[{ nonsense")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parse suite"), "stderr: {err}");
}

#[test]
fn sweep_empty_suite_succeeds() {
    use std::io::Write;
    let mut child = exaflow()
        .args(["sweep", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"[]").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let sweep: Sweep = serde_json::from_slice(&out.stdout).expect("valid sweep JSON");
    assert!(sweep.results.is_empty());
    assert_eq!(sweep.report.experiments, 0);
}

#[test]
fn sweep_rejects_bad_thread_count() {
    let out = exaflow()
        .args(["sweep", "-", "--threads", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads"), "stderr: {err}");
}

#[test]
fn sweep_rejects_unknown_option_before_the_path() {
    let out = exaflow()
        .args(["sweep", "--journl", "j.jsonl", "-"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: unknown option '--journl'"),
        "stderr: {err}"
    );
}

const RESILIENCE_SPEC: &str = r#"{
  "base": {"topology": {"topology": "torus", "dims": [4, 4]},
           "workload": {"workload": "all_reduce", "tasks": 16, "bytes": 65536}},
  "fault_rates_per_s": [0.0, 200.0],
  "policies": ["reroute_resume", "skip_unreachable"],
  "replicas": 2,
  "seed": 7
}"#;

fn run_resilience(spec: &str, extra: &[&str]) -> std::process::Output {
    use std::io::Write;
    let mut args = vec!["resilience", "-"];
    args.extend_from_slice(extra);
    let mut child = exaflow()
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(spec.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn resilience_runs_campaign_and_prints_kind_tagged_report() {
    let out = run_resilience(RESILIENCE_SPEC, &["--threads", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid resilience JSON");
    assert_eq!(body["kind"], "resilience_campaign");
    let report = &body["report"];
    assert_eq!(report["total_runs"], 8); // 2 rates x 2 policies x 2 replicas
    assert_eq!(report["failed_runs"], 0);
    assert!(report["baseline_makespan_seconds"].as_f64().unwrap() > 0.0);
    let cells = report["cells"].as_array().unwrap();
    assert_eq!(cells.len(), 4);
    // Zero-rate cells reproduce the baseline exactly.
    for cell in cells.iter().filter(|c| c["fault_rate_per_s"] == 0.0) {
        assert_eq!(cell["inflation_mean"], 1.0, "{cell:?}");
        assert_eq!(cell["delivered_flow_fraction"], 1.0, "{cell:?}");
        assert_eq!(cell["mean_fault_events"], 0.0, "{cell:?}");
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("8 runs"), "stderr: {err}");
}

#[test]
fn resilience_output_is_identical_across_thread_counts() {
    let serial = run_resilience(RESILIENCE_SPEC, &["--threads", "1"]);
    let parallel = run_resilience(RESILIENCE_SPEC, &["--threads", "8"]);
    assert!(serial.status.success());
    assert!(parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "campaign stdout must be bit-identical across thread counts"
    );
}

#[test]
fn resilience_rejects_invalid_campaign_with_typed_error() {
    // replicas: 0 is caught by campaign validation, not serde.
    let spec = r#"{
      "base": {"topology": {"topology": "torus", "dims": [4, 4]},
               "workload": {"workload": "reduce", "tasks": 8, "bytes": 1024}},
      "fault_rates_per_s": [1.0],
      "replicas": 0,
      "seed": 1
    }"#;
    let out = run_resilience(spec, &[]);
    assert_eq!(out.status.code(), Some(1));
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid error JSON");
    assert_eq!(body["error"]["kind"], "invalid_campaign");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("replicas"), "stderr: {err}");
}

#[test]
fn resilience_rejects_malformed_json() {
    let out = run_resilience("{ nonsense", &[]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parse campaign"), "stderr: {err}");
}

#[test]
fn unknown_command_exits_2() {
    let out = exaflow().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// `reproduce` usage errors exit 2: a missing or unknown artefact,
/// `--threads 0`, and any option on the option-less Figures 2 and 3.
#[test]
fn reproduce_usage_errors_exit_2() {
    for args in [
        &["reproduce"][..],
        &["reproduce", "fig6"],
        &["reproduce", "table2", "--threads", "0"],
        &["reproduce", "fig4", "--scale", "100"],
        &["reproduce", "fig4", "--journal", "j.jsonl"],
        &["reproduce", "fig2", "--threads", "2"],
        &["reproduce", "fig3", "--json", "x.json"],
        &["reproduce", "fig2", "--help"],
    ] {
        let out = exaflow().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn reproduce_help_prints_usage_and_exits_0() {
    for args in [
        &["reproduce", "--help"][..],
        &["reproduce", "fig4", "-h"],
        &["reproduce", "table1", "--scale", "512", "--help"],
    ] {
        let out = exaflow().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("exaflow reproduce <fig2|"), "{args:?}: {err}");
    }
}

#[test]
fn reproduce_fig4_prints_six_panels() {
    let out = exaflow()
        .args(["reproduce", "fig4", "--scale", "64", "--threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("(normalised to Fattree; 64 QFDBs)").count(), 6);
}

#[test]
fn reproduce_table2_writes_rows_that_parse() {
    let path = tmpfile("table2.json");
    let out = exaflow()
        .args(["reproduce", "table2", "--scale", "512", "--json"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<serde_json::Value> =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(rows.len(), 12, "one row per (t, u)");
    for row in &rows {
        assert!(row["built_switches_tree"].as_u64().unwrap() > 0, "{row:?}");
        assert!(row["cost_pct_ghc"].as_f64().unwrap() > 0.0, "{row:?}");
    }
    std::fs::remove_file(&path).ok();
}

// --------------------------------------------------------------------------
// Crash-safe campaign tests (journaling, typed errors, kill-and-resume). All
// named `campaign_*` so the check script can gate on them as a group.
// --------------------------------------------------------------------------

/// A sweep whose entries each take on the order of a second in a debug
/// build: slow enough that a kill lands mid-campaign, fast enough for CI.
/// Seeds differ so every entry has a distinct journal fingerprint.
fn slow_suite_json(entries: usize) -> String {
    let configs: Vec<String> = (0..entries)
        .map(|i| {
            format!(
                r#"{{"topology": {{"topology": "torus", "dims": [12, 12]}},
                    "workload": {{"workload": "unstructured_app", "tasks": 144,
                                  "flows_per_task": 10, "bytes": 1048576, "seed": {}}}}}"#,
                i + 1
            )
        })
        .collect();
    format!("[{}]", configs.join(","))
}

fn tmpfile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("exaflow-cli-{tag}-{}", std::process::id()))
}

/// Strip every wall-clock-derived field from a sweep document, leaving
/// only the deterministic surface (results, counters, report tallies).
/// `threads` goes too: it echoes the invocation's `--threads`, and the
/// resume runs here deliberately use a different pool size to prove the
/// report does not depend on it.
fn scrub_wall_fields(v: &serde_json::Value) -> serde_json::Value {
    use serde_json::{Map, Value};
    match v {
        Value::Object(map) => {
            let mut out = Map::new();
            for (k, val) in map.iter() {
                let wall_derived = matches!(
                    k.as_str(),
                    "wall_seconds"
                        | "experiment_wall_seconds"
                        | "events_per_second"
                        | "per_experiment_wall_seconds"
                        | "solver_seconds_total"
                        | "threads"
                );
                if !wall_derived {
                    out.insert(k.clone(), scrub_wall_fields(val));
                }
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(scrub_wall_fields).collect()),
        leaf => leaf.clone(),
    }
}

fn scrubbed(stdout: &[u8]) -> String {
    let v: serde_json::Value = serde_json::from_slice(stdout).expect("valid sweep JSON");
    serde_json::to_string(&scrub_wall_fields(&v)).unwrap()
}

fn count_complete_lines(path: &std::path::Path) -> usize {
    std::fs::read_to_string(path)
        .map(|text| text.matches('\n').count())
        .unwrap_or(0)
}

/// The tentpole end-to-end scenario: SIGKILL a journaled sweep mid-flight,
/// resume it, and require the deterministic report surface to be identical
/// to an uninterrupted run's.
#[test]
fn campaign_kill_and_resume_reconstructs_the_report() {
    let suite_path = tmpfile("kill-suite.json");
    let journal_path = tmpfile("kill-journal.jsonl");
    std::fs::write(&suite_path, slow_suite_json(6)).unwrap();

    // Reference: the same sweep, uninterrupted (journal to a throwaway).
    let ref_journal = tmpfile("kill-ref-journal.jsonl");
    let reference = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "1"])
        .args(["--journal", ref_journal.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        reference.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    assert_eq!(count_complete_lines(&ref_journal), 6);

    // Victim: kill it the moment the journal shows completed entries but
    // before the campaign can possibly have finished.
    let mut child = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "1"])
        .args(["--journal", journal_path.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while count_complete_lines(&journal_path) < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "journal never gained a complete line"
        );
        if child.try_wait().unwrap().is_some() {
            break; // finished before we could kill it; resume still works
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill().ok(); // SIGKILL on unix: no cleanup, no flushing
    child.wait().unwrap();
    let survived = count_complete_lines(&journal_path);
    assert!(
        survived >= 1,
        "at least one outcome must have been journaled before the kill"
    );

    // Resume and compare against the uninterrupted run.
    let resumed = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "2"])
        .args(["--journal", journal_path.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(count_complete_lines(&journal_path), 6, "journal healed");
    assert_eq!(
        scrubbed(&resumed.stdout),
        scrubbed(&reference.stdout),
        "resumed report must match the uninterrupted run on every \
         deterministic field"
    );

    for p in [&suite_path, &journal_path, &ref_journal] {
        std::fs::remove_file(p).ok();
    }
}

/// A journal whose final line was torn by a crash mid-write must resume
/// cleanly: the torn line is discarded, its experiment re-runs, and the
/// report still matches an uninterrupted run.
#[test]
fn campaign_torn_journal_resumes_cleanly() {
    let suite_path = tmpfile("torn-suite.json");
    let journal_path = tmpfile("torn-journal.jsonl");
    std::fs::write(&suite_path, SWEEP_SUITE).unwrap();

    let reference = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "1"])
        .args(["--journal", journal_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), Some(3)); // one TooManyTasks entry
    assert_eq!(count_complete_lines(&journal_path), 3);

    // Tear the final line as an interrupted write would.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    std::fs::write(&journal_path, &text[..text.len() - 23]).unwrap();

    let resumed = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "2"])
        .args(["--journal", journal_path.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert_eq!(resumed.status.code(), Some(3));
    assert_eq!(count_complete_lines(&journal_path), 3, "journal healed");
    assert_eq!(scrubbed(&resumed.stdout), scrubbed(&reference.stdout));

    std::fs::remove_file(&suite_path).ok();
    std::fs::remove_file(&journal_path).ok();
}

/// Sim object with every required field at the workspace defaults, ready
/// for extra budget fields.
fn sim_json(extra: &str) -> String {
    format!(
        r#"{{"injection_bps": 1e10, "ejection_bps": 1e10, "batch_epsilon": 1e-9,
            "route_cache_cap": 4096{}{extra}}}"#,
        if extra.is_empty() { "" } else { ", " }
    )
}

/// `exaflow sweep - <extra>` with `suite` on stdin.
fn sweep_stdin(suite: &str, extra: &[&str]) -> std::process::Output {
    use std::io::Write;
    let mut child = exaflow()
        .args(["sweep", "-"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(suite.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

/// An exhausted event budget is a typed per-entry error: exit 3 (failed).
#[test]
fn campaign_event_budget_is_a_typed_error() {
    let suite = format!(
        r#"[{{"topology": {{"topology": "torus", "dims": [4, 4]}},
             "workload": {{"workload": "all_reduce", "tasks": 16, "bytes": 65536}},
             "sim": {}}}]"#,
        sim_json(r#""max_events": 3"#)
    );
    let out = sweep_stdin(&suite, &[]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let err = &body["results"][0]["Err"];
    assert_eq!(err["kind"], "sim");
    assert_eq!(err["sim"]["kind"], "budget_exhausted");
    assert_eq!(err["sim"]["max_events"], 3);
}

/// A wall-clock deadline overrun is a typed per-entry error like any
/// other: the entry runs once, its neighbour is unaffected, and the sweep
/// exits 3.
#[test]
fn campaign_deadline_overrun_is_a_typed_error() {
    let suite = format!(
        r#"[{{"topology": {{"topology": "torus", "dims": [4, 4]}},
             "workload": {{"workload": "all_reduce", "tasks": 16, "bytes": 65536}},
             "sim": {}}},
           {{"topology": {{"topology": "torus", "dims": [4, 4]}},
             "workload": {{"workload": "all_reduce", "tasks": 8, "bytes": 65536}}}}]"#,
        sim_json(r#""max_wall_s": 1e-12"#)
    );
    let out = sweep_stdin(&suite, &["--threads", "1"]);
    let err_text = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {err_text}");
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let err = &body["results"][0]["Err"];
    assert_eq!(err["kind"], "sim");
    assert_eq!(err["sim"]["kind"], "deadline_exceeded");
    assert!(
        body["results"][1]["Ok"].as_object().is_some(),
        "neighbour unaffected"
    );
    assert_eq!(body["report"]["failed"], 1);
    assert!(err_text.contains("experiment 0:"), "stderr: {err_text}");
}

/// Resilience reports carry no wall-clock fields, so a resumed campaign
/// must reproduce the uninterrupted stdout *byte for byte* — both from a
/// complete journal and from one torn mid-line.
#[test]
fn campaign_resilience_resume_is_bit_identical() {
    let journal_path = tmpfile("res-journal.jsonl");
    let jflag = journal_path.to_str().unwrap().to_owned();

    let reference = run_resilience(RESILIENCE_SPEC, &["--threads", "2", "--journal", &jflag]);
    assert!(
        reference.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    // baseline + 2 rates x 2 policies x 2 replicas
    assert_eq!(count_complete_lines(&journal_path), 9);

    // Complete journal: pure replay.
    let resumed = run_resilience(
        RESILIENCE_SPEC,
        &["--threads", "1", "--journal", &jflag, "--resume"],
    );
    assert!(resumed.status.success());
    assert_eq!(
        resumed.stdout, reference.stdout,
        "replay must be bit-identical"
    );

    // Torn journal: drop the tail mid-line, resume re-runs the remainder.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let fourth_newline = text
        .match_indices('\n')
        .nth(3)
        .map(|(i, _)| i)
        .expect("at least four journal lines");
    std::fs::write(&journal_path, &text[..fourth_newline + 9]).unwrap();
    let resumed = run_resilience(
        RESILIENCE_SPEC,
        &["--threads", "4", "--journal", &jflag, "--resume"],
    );
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout, reference.stdout,
        "torn-journal resume must be bit-identical"
    );
    assert_eq!(count_complete_lines(&journal_path), 9, "journal healed");

    std::fs::remove_file(&journal_path).ok();
}

/// `--resume` without `--journal` is a usage error, for sweep and
/// resilience alike.
#[test]
fn campaign_resume_requires_a_journal() {
    for cmd in ["sweep", "resilience"] {
        let out = exaflow().args([cmd, "-", "--resume"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--journal"), "{cmd} stderr: {err}");
    }
}

/// Mid-journal corruption (not a torn tail) must fail loudly instead of
/// silently shortening the campaign.
#[test]
fn campaign_corrupt_journal_is_a_loud_error() {
    let suite_path = tmpfile("corrupt-suite.json");
    let journal_path = tmpfile("corrupt-journal.jsonl");
    std::fs::write(&suite_path, SWEEP_SUITE).unwrap();
    std::fs::write(&journal_path, "{\"garbage\": true}\n{\"more\": 1}\n").unwrap();

    let out = exaflow()
        .args(["sweep", suite_path.to_str().unwrap()])
        .args(["--journal", journal_path.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("journal"), "stderr: {err}");

    std::fs::remove_file(&suite_path).ok();
    std::fs::remove_file(&journal_path).ok();
}

// --------------------------------------------------------------------------
// Topology-cache tests: the shared cache must be invisible on stdout
// (reports independent of who built each topology) and visible only on
// stderr. Named `campaign_*` so the check script gates them with the
// crash-safety group.
// --------------------------------------------------------------------------

/// A sweep built to exercise the cache: six entries over two topology
/// specs, including full-population spellings that must share a cache key.
const CACHED_SWEEP: &str = r#"[
  {"topology": {"topology": "torus", "dims": [4, 4]},
   "workload": {"workload": "all_reduce", "tasks": 16, "bytes": 65536}},
  {"topology": {"topology": "torus", "dims": [4, 4]},
   "workload": {"workload": "reduce", "tasks": 8, "bytes": 65536}},
  {"topology": {"topology": "torus", "dims": [4, 4]},
   "workload": {"workload": "unstructured_app", "tasks": 8,
                "flows_per_task": 2, "bytes": 65536, "seed": 3},
   "failures": {"count": 1, "seed": 3}},
  {"topology": {"topology": "fattree", "k": 4, "n": 2},
   "workload": {"workload": "reduce", "tasks": 16, "bytes": 65536}},
  {"topology": {"topology": "fattree", "k": 4, "n": 2, "endpoints": 16},
   "workload": {"workload": "reduce", "tasks": 16, "bytes": 65536}},
  {"topology": {"topology": "torus", "dims": [4, 4]},
   "workload": {"workload": "all_reduce", "tasks": 16, "bytes": 131072}}
]"#;

/// Sweep stdout must be bit-identical (after wall-clock scrubbing) serial
/// and 8-way, whichever worker builds each topology; the cache announces
/// itself only on stderr.
#[test]
fn campaign_sweep_topo_cache_is_invisible_on_stdout() {
    let suite_path = tmpfile("topocache-suite.json");
    std::fs::write(&suite_path, CACHED_SWEEP).unwrap();
    let runs: Vec<_> = ["1", "8"]
        .into_iter()
        .map(|threads| {
            let out = exaflow()
                .args(["sweep", suite_path.to_str().unwrap(), "--threads", threads])
                .output()
                .unwrap();
            assert!(out.status.success(), "threads {threads}");
            // 6 entries, 2 distinct topologies: the fattree full-population
            // spellings normalize onto one key, so 2 misses and 4 hits. A
            // serial sweep runs the entries grouped by topology and frees
            // each topology after its group: one resident at a time.
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains("topology cache 4 hit(s), 2 miss(es), at most "),
                "threads {threads}: stderr: {err}"
            );
            if threads == "1" {
                assert!(err.contains("at most 1 resident"), "stderr: {err}");
            }
            scrubbed(&out.stdout)
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "sweep stdout must not depend on which worker built a topology"
    );
    std::fs::remove_file(&suite_path).ok();
}

/// Satellite of the crash-safety story: SIGKILL a sweep running with a
/// *warm* cache, resume in a new process (cold cache), and require the
/// deterministic report surface to match an uninterrupted run — the
/// journal layer and the cache layer must not interfere.
#[test]
fn campaign_kill_warm_cache_resume_cold_reconstructs_the_report() {
    let suite_path = tmpfile("topocache-kill-suite.json");
    let journal_path = tmpfile("topocache-kill-journal.jsonl");
    std::fs::write(&suite_path, slow_suite_json(4)).unwrap();

    // Reference: uninterrupted.
    let ref_journal = tmpfile("topocache-kill-ref-journal.jsonl");
    let reference = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "1"])
        .args(["--journal", ref_journal.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        reference.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Victim: warm cache, killed once the journal has entries.
    let mut child = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "1"])
        .args(["--journal", journal_path.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while count_complete_lines(&journal_path) < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "journal never gained a complete line"
        );
        if child.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill().ok();
    child.wait().unwrap();

    // Resume in a new process: cold rebuilds, same results.
    let resumed = exaflow()
        .args(["sweep", suite_path.to_str().unwrap(), "--threads", "2"])
        .args(["--journal", journal_path.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(count_complete_lines(&journal_path), 4, "journal healed");
    assert_eq!(
        scrubbed(&resumed.stdout),
        scrubbed(&reference.stdout),
        "cold-cache resume must match the uninterrupted run"
    );

    for p in [&suite_path, &journal_path, &ref_journal] {
        std::fs::remove_file(p).ok();
    }
}

/// Each entry runs once: `--retries` is an unknown option, a usage error.
#[test]
fn campaign_rejects_retries_as_an_unknown_option() {
    let suite_path = tmpfile("retries-suite.json");
    std::fs::write(&suite_path, CACHED_SWEEP).unwrap();
    let out = exaflow()
        .args(["sweep", suite_path.to_str().unwrap()])
        .args(["--retries", "2"])
        .output()
        .unwrap();
    std::fs::remove_file(&suite_path).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("unknown option '--retries'"), "stderr: {err}");
}

#[test]
fn analyze_emits_kind_tagged_report() {
    let out = exaflow()
        .args([
            "analyze",
            "--scale",
            "256",
            "--sources",
            "16",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    assert_eq!(body["kind"], "distance_analysis");
    assert_eq!(body["scale_qfdbs"], 256);
    assert_eq!(body["requested_sources"], 16);
    let rows = body["rows"].as_array().unwrap();
    assert_eq!(rows.len(), 2, "torus + fattree by default");
    for row in rows {
        assert_eq!(row["stats"]["exact"].as_bool(), Some(false));
        assert!(row["stats"]["confidence_95"].as_f64().is_some());
    }
}

#[test]
fn analyze_all_sources_is_exact_and_thread_invariant() {
    let run = |threads: &str| {
        let out = exaflow()
            .args([
                "analyze",
                "--scale",
                "64",
                "--threads",
                threads,
                "--hybrids",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let body: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        body
    };
    let a = run("1");
    let b = run("4");
    // The thread count itself is recorded in the report, so compare the
    // measurement rows for bit-identity rather than the whole document.
    assert_eq!(
        a["rows"], b["rows"],
        "rows must be identical at every thread count"
    );
    let rows = a["rows"].as_array().unwrap();
    assert_eq!(rows.len(), 4, "--hybrids adds NestTree and NestGHC");
    for row in rows {
        assert_eq!(row["stats"]["exact"].as_bool(), Some(true));
        assert!(
            row["stats"]["stderr"].is_null(),
            "exact rows carry no stderr"
        );
    }
}

#[test]
fn analyze_rejects_bad_scale() {
    let out = exaflow()
        .args(["analyze", "--scale", "100"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("power of two"));
}

/// A reader that closes stdout before the result is written
/// (`exaflow run c.json | head -1` once `head` has exited) ends the
/// command quietly: no panic, no backtrace.
#[test]
fn closed_stdout_ends_quietly() {
    use std::io::Write;
    let cfg = r#"{"topology": {"topology": "torus", "dims": [4, 4]},
                  "workload": {"workload": "reduce", "tasks": 8, "bytes": 1024}}"#;
    for (args, input) in [
        (["run", "-"], cfg.to_string()),
        (["sweep", "-"], format!("[{cfg}]")),
    ] {
        let mut child = exaflow()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // The config is read before anything is printed, so closing the
        // read end first makes the write fail every time.
        drop(child.stdout.take());
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(input.as_bytes()).unwrap();
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("Broken pipe"), "{args:?}: {err}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
    }
}
