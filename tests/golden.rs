//! Golden regression suite: the checked-in paper artefacts
//! (`table1_results.json`, `fig4_results.json`, `fig5_results.json`) are
//! pinned against freshly computed values, so performance work on the
//! engine cannot silently shift the reproduced numbers.
//!
//! Each test recomputes a deterministic slice through the functions
//! `exaflow reproduce` calls (two 2,048-QFDB panels, and all eleven
//! panels at 128 QFDBs) and compares it tolerance-aware (relative 1e-9 — the
//! pipeline is deterministic, the slack only covers printing round-trips)
//! with a readable diff on mismatch. The full 2,048-QFDB grid is pinned by
//! `tests/tier2_scale.rs`.

use common::{assert_figures_match, assert_matches_pinned, load, numbers_match};
use exaflow::prelude::*;
use exaflow::reproduce::figure;
use std::path::Path;
use FaultAction::{Down, Up};
use RecoveryPolicy::{RerouteRestart, RerouteResume, SkipUnreachable};

mod common;

/// Every link `a → b` of `pairs` goes down (or up) at `time_s`.
fn links(net: &Network, time_s: f64, action: FaultAction, pairs: &[(u32, u32)]) -> Vec<FaultEvent> {
    let link = |(a, b): (u32, u32)| net.find_link(NodeId(a), NodeId(b)).unwrap().0;
    let event = |&pair: &(u32, u32)| FaultEvent {
        time_s,
        link: link(pair),
        action,
    };
    pairs.iter().map(event).collect()
}

/// Run `dag` once per `(policy, faults)` with a sink, check each trace
/// against the oracle, and return the traces in run order.
fn traced(
    sim: &Simulator,
    topo: &dyn Topology,
    dag: &FlowDag,
    runs: Vec<(RecoveryPolicy, Vec<FaultEvent>)>,
) -> Vec<(Vec<TraceEvent>, TraceSummary)> {
    runs.into_iter()
        .map(|(policy, faults)| {
            let schedule = FaultSchedule::new(faults).unwrap();
            let mut sink = VecSink::new();
            sim.run_with(dag, &schedule, policy, Some(&mut sink))
                .unwrap();
            let events = sink.into_events();
            let summary = check_trace_with_topology(&events, topo).unwrap();
            (events, summary)
        })
        .collect()
}

/// Ring of 6; a dependency chain plus a concurrent flow; a mid-run duplex
/// cut and repair under resume recovery.
fn ring_cut_and_repair() -> Vec<(Vec<TraceEvent>, TraceSummary)> {
    let topo = Torus::new(&[6]);
    let mut b = FlowDagBuilder::new();
    let head = b.add_flow(NodeId(0), NodeId(3), 1 << 20, &[]);
    b.add_flow(NodeId(3), NodeId(0), 1 << 20, &[head]);
    b.add_flow(NodeId(1), NodeId(4), 1 << 19, &[]);
    let dag = b.build();
    let sim = Simulator::new(&topo);
    let baseline = sim.run(&dag).unwrap().makespan_seconds;
    let (net, cable) = (topo.network(), [(1, 2), (2, 1)]);
    let mut faults = links(net, baseline * 0.3, Down, &cable);
    faults.extend(links(net, baseline * 0.6, Up, &cable));
    let runs = traced(&sim, &topo, &dag, vec![(RerouteResume, faults)]);
    let summary = &runs[0].1;
    assert_eq!(summary.flows_finished, 3);
    assert!(summary.reroutes >= 1, "the cut never forced a detour");
    runs
}

/// 4×4 torus under the fluid model. Cut A (300 µs) downs the duplex link
/// 1–5, crossed by flow 0 and flow 2, both transferring. Cut B (330 µs)
/// downs every link into node 10: flows 3 and 4 are transferring toward
/// it, and flow 5, released by flow 3's drop, activates toward it. Run
/// once under restart with cut A, once under skip with both cuts.
fn recovery_reroute_and_skip() -> Vec<(Vec<TraceEvent>, TraceSummary)> {
    let topo = Torus::new(&[4, 4]);
    let mut b = FlowDagBuilder::new();
    b.add_flow(NodeId(0), NodeId(5), 1 << 20, &[]);
    let short = b.add_flow(NodeId(12), NodeId(13), 64 << 10, &[]);
    b.add_flow(NodeId(1), NodeId(9), 1 << 20, &[short]);
    let toward_10 = b.add_flow(NodeId(11), NodeId(10), 1 << 20, &[]);
    b.add_flow(NodeId(15), NodeId(10), 1 << 20, &[short]);
    b.add_flow(NodeId(3), NodeId(10), 1 << 20, &[toward_10]);
    let dag = b.build();
    let net = topo.network();
    let cut_a = links(net, 3.0e-4, Down, &[(1, 5), (5, 1)]);
    let mut both = cut_a.clone();
    both.extend(links(
        net,
        3.3e-4,
        Down,
        &[(9, 10), (11, 10), (6, 10), (14, 10)],
    ));
    let runs = vec![(RerouteRestart, cut_a), (SkipUnreachable, both)];
    let runs = traced(&Simulator::new(&topo), &topo, &dag, runs);
    let (restart, skip) = (&runs[0].1, &runs[1].1);
    assert_eq!((restart.flows_finished, restart.reroutes), (6, 2));
    assert_eq!((skip.flows_finished, skip.flows_skipped), (3, 3));
    let restarted =
        |e: &TraceEvent| matches!(e, TraceEvent::RerouteTaken { restarted, .. } if *restarted);
    assert!(runs[0].0.iter().any(restarted), "no active flow restarted");
    let skip_run = &runs[1].0;
    let started = |f: u32| {
        let is = |e: &TraceEvent| matches!(e, TraceEvent::FlowStarted { flow, .. } if *flow == f);
        skip_run.iter().any(is)
    };
    let skipped = |f: u32| skip_run.contains(&TraceEvent::FlowSkipped { t: 3.3e-4, flow: f });
    let transferring = [3, 4].into_iter().all(|f| started(f) && skipped(f));
    assert!(transferring, "flows 3 and 4 were not skipped mid-transfer");
    assert!(
        skipped(5) && !started(5),
        "flow 5 did not activate into the partition"
    );
    runs
}

/// The trace schema itself is a pinned artefact: each `golden_trace*.jsonl`
/// holds the event streams of a fixed scenario, one run after another.
/// Any change to event ordering, field naming, or float formatting shows
/// up as a line diff here. Regenerate deliberately with
/// `EXAFLOW_BLESS=1 cargo test --test golden golden_trace`.
#[test]
fn golden_trace_is_pinned_line_for_line() {
    type Scenario = fn() -> Vec<(Vec<TraceEvent>, TraceSummary)>;
    let scenarios: [(&str, Scenario); 2] = [
        ("golden_trace.jsonl", ring_cut_and_repair),
        ("golden_trace_recovery.jsonl", recovery_reroute_and_skip),
    ];
    for (file, scenario) in scenarios {
        let got: Vec<String> = scenario()
            .iter()
            .flat_map(|(events, _)| events)
            .map(|e| serde_json::to_string(e).unwrap())
            .collect();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        if std::env::var_os("EXAFLOW_BLESS").is_some() {
            std::fs::write(&path, got.join("\n") + "\n").unwrap();
            continue;
        }
        let pinned_text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden trace {} unreadable: {e}", path.display()));
        // The pinned bytes must round-trip through the parser and the
        // oracle, one run (header onwards) at a time.
        let pinned_events = parse_jsonl(&pinned_text).unwrap();
        let starts: Vec<usize> = (0..pinned_events.len())
            .filter(|&i| matches!(pinned_events[i], TraceEvent::RunStarted { .. }))
            .chain([pinned_events.len()])
            .collect();
        for run in starts.windows(2) {
            check_trace(&pinned_events[run[0]..run[1]]).unwrap();
        }
        let pinned: Vec<&str> = pinned_text.lines().collect();
        let line = |i: usize| (got.get(i).map(String::as_str), pinned.get(i).copied());
        if let Some(i) = (0..got.len().max(pinned.len())).find(|&i| line(i).0 != line(i).1) {
            let (g, w) = line(i);
            panic!(
                "{file} line {} drifted:\n  got    {g:?}\n  pinned {w:?}",
                i + 1
            );
        }
    }
}

/// Table 1, row (t=2, u=8) at the paper's full 131 072-QFDB scale, as
/// `exaflow reproduce table1` computes it: the exact sweep over all
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

/// The `name` panel of a figure at the default 2048-QFDB simulation scale,
/// run with the figure's own preset workload, against its entry in `file`.
fn assert_panel_matches(file: &str, workloads: Vec<WorkloadSpec>, name: &str) {
    let workload = workloads.into_iter().find(|w| w.name() == name).unwrap();
    let panel = &figure(SystemScale::DEFAULT_SIM, &[workload], None).unwrap()[0];
    let what = format!("{file} {name} panel");
    assert_matches_pinned(
        serde_json::to_value(panel).unwrap(),
        &load(file)[name],
        &what,
    );
}

/// Figure 4, AllReduce panel — the heavy workload most sensitive to the
/// rate engine (11 recursive-doubling rounds across every topology family).
#[test]
fn fig4_allreduce_panel_matches_pinned() {
    let workloads = presets::heavy_workloads(SystemScale::DEFAULT_SIM);
    assert_panel_matches("fig4_results.json", workloads, "AllReduce");
}

/// Figure 5, Reduce panel — the ejection-serialised workload whose
/// topology-insensitivity is a headline claim of the paper.
#[test]
fn fig5_reduce_panel_matches_pinned() {
    let workloads = presets::light_workloads(SystemScale::DEFAULT_SIM);
    assert_panel_matches("fig5_results.json", workloads, "Reduce");
}

/// Every Fig 4 and Fig 5 panel at 128 QFDBs, the 18-topology grid of each,
/// against `fig{4,5}_128_results.json`. Regenerate with `exaflow reproduce
/// fig4 --scale 128 --threads 1 --json fig4_128_results.json` (and the
/// same for `fig5`).
#[test]
fn every_fig45_panel_at_128_qfdbs_matches_pinned() {
    let scale = SystemScale::new(128).unwrap();
    let files = ["fig4_128_results.json", "fig5_128_results.json"];
    assert_figures_match(scale, files, None);
}
