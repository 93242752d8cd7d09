//! Golden regression suite: the checked-in paper artefacts
//! (`table1_results.json`, `fig4_results.json`, `fig5_results.json`) are
//! pinned against freshly computed values, so performance work on the
//! engine cannot silently shift the reproduced numbers.
//!
//! Full regeneration of every figure takes minutes; each test therefore
//! recomputes a representative, deterministic slice at the exact
//! parameters the generator bins used and compares it tolerance-aware
//! (relative 1e-9 — the pipeline is deterministic, the slack only covers
//! printing round-trips) with a readable diff on mismatch.

use exaflow::prelude::*;
use exaflow_bench::figure_panel;
use serde_json::Value;
use std::path::Path;

const REL_TOL: f64 = 1e-9;

fn load(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("golden file {name} is not JSON: {e}"))
}

fn numbers_match(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Recursively diff `got` against `want`, collecting human-readable
/// mismatch lines (`path: got X, pinned Y`).
fn diff(got: &Value, want: &Value, path: &str, out: &mut Vec<String>) {
    match (got, want) {
        (Value::Number(g), Value::Number(w)) => {
            let (g, w) = (g.as_f64(), w.as_f64());
            if !numbers_match(g, w) {
                out.push(format!("{path}: got {g:.17e}, pinned {w:.17e}"));
            }
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                out.push(format!("{path}: length {} vs pinned {}", g.len(), w.len()));
                return;
            }
            for (i, (gi, wi)) in g.iter().zip(w).enumerate() {
                diff(gi, wi, &format!("{path}[{i}]"), out);
            }
        }
        (Value::Object(g), Value::Object(w)) => {
            for (key, gv) in g.iter() {
                match w.get(key) {
                    Some(wv) => diff(gv, wv, &format!("{path}.{key}"), out),
                    None => out.push(format!("{path}.{key}: not in pinned file")),
                }
            }
            for (key, _) in w.iter() {
                if g.get(key).is_none() {
                    out.push(format!("{path}.{key}: missing from recomputation"));
                }
            }
        }
        _ if got == want => {}
        _ => out.push(format!("{path}: got {got:?}, pinned {want:?}")),
    }
}

fn assert_matches_pinned(got: Value, want: &Value, what: &str) {
    let mut mismatches = Vec::new();
    diff(&got, want, what, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "{what} drifted from its golden file ({} mismatch(es)):\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

fn threads() -> Option<usize> {
    std::thread::available_parallelism().ok().map(|n| n.get())
}

/// The trace schema itself is a pinned artefact: `golden_trace.jsonl`
/// holds the event stream of a fixed scenario (ring of 6; a dependency
/// chain plus a concurrent flow; a mid-run duplex cut and repair under
/// resume recovery). Any change to event ordering, field naming, or float
/// formatting shows up as a line diff here. Regenerate deliberately with
/// `EXAFLOW_BLESS=1 cargo test --test golden golden_trace`.
#[test]
fn golden_trace_is_pinned_line_for_line() {
    let topo = Torus::new(&[6]);
    let mut b = FlowDagBuilder::new();
    let head = b.add_flow(NodeId(0), NodeId(3), 1 << 20, &[]);
    b.add_flow(NodeId(3), NodeId(0), 1 << 20, &[head]);
    b.add_flow(NodeId(1), NodeId(4), 1 << 19, &[]);
    let dag = b.build();
    let sim = Simulator::new(&topo);
    let baseline = sim.run(&dag).unwrap().makespan_seconds;
    let net = topo.network();
    let mut events = Vec::new();
    for (a, b) in [(1u32, 2u32), (2, 1)] {
        let link = net.find_physical_link(NodeId(a), NodeId(b)).unwrap().0;
        events.push(FaultEvent {
            time_s: baseline * 0.3,
            link,
            action: FaultAction::Down,
        });
        events.push(FaultEvent {
            time_s: baseline * 0.6,
            link,
            action: FaultAction::Up,
        });
    }
    let schedule = FaultSchedule::new(events).unwrap();

    let mut sink = VecSink::new();
    sim.run_with(
        &dag,
        &schedule,
        RecoveryPolicy::RerouteResume,
        Some(&mut sink),
    )
    .unwrap();
    let events = sink.into_events();
    // The scenario must exercise the full event vocabulary minus skips.
    let summary = check_trace_with_topology(&events, &topo).unwrap();
    assert_eq!(summary.flows_finished, 3);
    assert!(summary.reroutes >= 1, "the cut never forced a detour");

    let got: Vec<String> = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden_trace.jsonl");
    if std::env::var_os("EXAFLOW_BLESS").is_some() {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        return;
    }
    let pinned_text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden trace {} unreadable: {e}", path.display()));
    // The pinned bytes must round-trip through the parser and the oracle.
    let pinned_events = parse_jsonl(&pinned_text).unwrap();
    check_trace(&pinned_events).unwrap();
    let pinned: Vec<&str> = pinned_text.lines().collect();
    assert_eq!(
        got.len(),
        pinned.len(),
        "trace has {} events, golden file has {} lines",
        got.len(),
        pinned.len()
    );
    for (i, (g, w)) in got.iter().zip(&pinned).enumerate() {
        assert_eq!(
            g,
            w,
            "golden trace line {} drifted:\n  got    {g}\n  pinned {w}",
            i + 1
        );
    }
}

/// Table 1, row (t=2, u=8) at the paper's full 131 072-QFDB scale, as
/// `crates/bench/src/bin/table1.rs` computes it: the exact sweep over all
/// sources. The NestTree half counts in milliseconds; the NestGHC half
/// and the rest of the grid take seconds a row and are pinned by
/// `tests/tier2_scale.rs::paper_scale_table1_grid_matches_pinned`.
#[test]
fn table1_row_2_8_matches_pinned() {
    let pinned = load("table1_results.json");
    let row = pinned
        .as_array()
        .expect("table1_results.json: array of rows")
        .iter()
        .find(|r| r["t"] == 2 && r["u"] == 8)
        .expect("table1_results.json: row (2,8)");

    let topo = SystemScale::PAPER
        .nested_spec(UpperTierKind::Fattree, 2, 8)
        .unwrap()
        .build()
        .unwrap();
    let stats = distance_sweep(topo.as_ref(), 1);
    assert!(stats.exact);
    let pinned = |key: &str| row[key].as_f64().expect("numeric cell");
    assert!(
        numbers_match(stats.average, pinned("avg_tree")),
        "NestTree(2,8) average: got {:.17e}, pinned {:.17e}",
        stats.average,
        pinned("avg_tree")
    );
    assert_eq!(stats.diameter as f64, pinned("diam_tree"));
}

/// Figure 4, AllReduce panel at the default 2048-QFDB simulation scale —
/// the heavy workload most sensitive to the rate engine (11 recursive-
/// doubling rounds across every topology family).
#[test]
fn fig4_allreduce_panel_matches_pinned() {
    let pinned = load("fig4_results.json");
    let scale = SystemScale::DEFAULT_SIM;
    let workload = WorkloadSpec::AllReduce {
        tasks: scale.qfdbs as usize,
        bytes: presets::MIB,
    };
    let panel = figure_panel(scale, &workload, threads()).unwrap();
    assert_matches_pinned(
        serde_json::to_value(&panel).unwrap(),
        &pinned["AllReduce"],
        "fig4 AllReduce panel",
    );
}

/// Figure 5, Reduce panel at the default 2048-QFDB simulation scale — the
/// ejection-serialised workload whose topology-insensitivity is a headline
/// claim of the paper.
#[test]
fn fig5_reduce_panel_matches_pinned() {
    let pinned = load("fig5_results.json");
    let scale = SystemScale::DEFAULT_SIM;
    let workload = WorkloadSpec::Reduce {
        tasks: scale.qfdbs as usize,
        bytes: 64 << 10,
    };
    let panel = figure_panel(scale, &workload, threads()).unwrap();
    assert_matches_pinned(
        serde_json::to_value(&panel).unwrap(),
        &pinned["Reduce"],
        "fig5 Reduce panel",
    );
}
