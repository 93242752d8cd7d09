//! Property tests for the flow engine: physical sanity bounds and
//! determinism on random DAGs, and traced runs under random fault
//! schedules held to the trace oracle and, at every recompute, to the
//! textbook water-fill (the solver's own max-min properties are
//! `proptest_maxmin.rs`).

use exaflow_netgraph::NodeId;
use exaflow_sim::trace_check::check_rates_against_textbook;
use exaflow_sim::{
    check_trace_with_topology, FaultAction, FaultEvent, FaultSchedule, FlowDag, FlowDagBuilder,
    FlowId, RecoveryPolicy, SimConfig, Simulator, TraceEvent, VecSink,
};
use exaflow_topo::{Topology, Torus};
use proptest::prelude::*;

/// Random DAG: flows with random endpoints/sizes; each flow may depend on
/// up to two earlier flows.
fn random_dag(eps: u32) -> impl Strategy<Value = Vec<(u32, u32, u64, Vec<usize>)>> {
    prop::collection::vec(
        (
            0..eps,
            0..eps,
            1u64..1_000_000,
            prop::collection::vec(any::<usize>(), 0..3),
        ),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn makespan_within_physical_bounds(flows in random_dag(16)) {
        let topo = Torus::new(&[4, 4]);
        let rate = 10e9;
        let dag = build_dag(&flows);
        let report = Simulator::new(&topo).run(&dag).unwrap();

        // Upper bound: fully serial execution of every flow at line rate.
        let serial: f64 = flows
            .iter()
            .map(|(s, d, bytes, _)| if s == d { 0.0 } else { *bytes as f64 * 8.0 / rate })
            .sum();
        prop_assert!(report.makespan_seconds <= serial * (1.0 + 1e-9) + 1e-15);

        // Lower bound: the largest single network flow at line rate.
        let widest: f64 = flows
            .iter()
            .map(|(s, d, bytes, _)| if s == d { 0.0 } else { *bytes as f64 * 8.0 / rate })
            .fold(0.0, f64::max);
        prop_assert!(report.makespan_seconds >= widest * (1.0 - 1e-9));
    }

    #[test]
    fn engine_deterministic(flows in random_dag(16)) {
        let topo = Torus::new(&[4, 4]);
        let dag = build_dag(&flows);
        let a = Simulator::new(&topo).run(&dag).unwrap();
        let b2 = Simulator::new(&topo).run(&dag).unwrap();
        prop_assert_eq!(a.makespan_seconds, b2.makespan_seconds);
        prop_assert_eq!(a.events, b2.events);
    }

    #[test]
    fn completion_times_monotone_along_dependencies(flows in random_dag(12)) {
        let topo = Torus::new(&[4, 3]);
        let mut b = FlowDagBuilder::new();
        let mut dep_pairs = Vec::new();
        for (i, (s, d, bytes, deps)) in flows.iter().enumerate() {
            let deps: Vec<FlowId> = deps
                .iter()
                .filter(|_| i > 0)
                .map(|&x| FlowId((x % i) as u32))
                .collect();
            for &p in &deps {
                dep_pairs.push((p, FlowId(i as u32)));
            }
            b.add_flow(NodeId(*s), NodeId(*d), *bytes, &deps);
        }
        let dag = b.build();
        let mut sink = VecSink::new();
        Simulator::new(&topo)
            .run_with(&dag, &FaultSchedule::empty(), RecoveryPolicy::default(), Some(&mut sink))
            .unwrap();
        let mut times = vec![f64::NAN; flows.len()];
        for ev in sink.into_events() {
            if let TraceEvent::FlowFinished { t, flow } = ev {
                times[flow as usize] = t;
            }
        }
        for (pred, succ) in dep_pairs {
            prop_assert!(
                times[pred.index()] <= times[succ.index()] + 1e-15,
                "dep finished after dependent"
            );
        }
    }

    #[test]
    fn batching_epsilon_bounds_error(flows in random_dag(16)) {
        let topo = Torus::new(&[4, 4]);
        let dag = build_dag(&flows);
        let run = |eps: f64| {
            let cfg = SimConfig { batch_epsilon: eps, ..SimConfig::default() };
            Simulator::with_config(&topo, cfg).run(&dag).unwrap().makespan_seconds
        };
        let exact = run(0.0);
        let loose = run(1e-6);
        // A loose epsilon can only shorten flows (they retire early), and by
        // no more than a per-event epsilon factor; with a tiny epsilon the
        // results must agree to ~1e-4 relative.
        prop_assert!((exact - loose).abs() <= exact * 1e-4 + 1e-12, "{exact} vs {loose}");
    }
}

/// `random_dag`'s flows as a DAG: each dependency index wraps onto an
/// earlier flow.
fn build_dag(flows: &[(u32, u32, u64, Vec<usize>)]) -> FlowDag {
    let mut b = FlowDagBuilder::new();
    for (i, (s, d, bytes, deps)) in flows.iter().enumerate() {
        let deps: Vec<FlowId> = deps
            .iter()
            .filter(|_| i > 0)
            .map(|&x| FlowId((x % i) as u32))
            .collect();
        b.add_flow(NodeId(*s), NodeId(*d), *bytes, &deps);
    }
    b.build()
}

/// Random link transitions: `(time in µs, link, down)`, the link index
/// wrapping onto the topology's links. Times span the first ~2 ms, about
/// as long as a few of `random_dag`'s flows take at line rate.
fn fault_events() -> impl Strategy<Value = Vec<(u64, u32, bool)>> {
    prop::collection::vec((0u64..2_000, any::<u32>(), any::<bool>()), 0..16)
}

// No pinned case count: `PROPTEST_CASES` sets the volume (64 by default;
// `scripts/check.sh` runs 512).
proptest! {
    /// Every rate the engine hands out, copied into the active set inside
    /// the earliest-completion scan and advanced in the walk that flags
    /// the batch, is the textbook's, through link cuts, repairs, reroutes
    /// and skipped flows; and the whole trace passes the topology-backed
    /// oracle: byte conservation, capacities, max-min fairness,
    /// skip-unreachability and canonical routes.
    #[test]
    fn faulted_traces_pass_the_oracle_and_match_the_textbook(
        flows in random_dag(8),
        faults in fault_events(),
    ) {
        // A ring: one cut forces a detour, two can cut a node off.
        let topo = Torus::new(&[8]);
        let links = topo.network().num_links() as u32;
        let events = faults
            .iter()
            .map(|&(us, link, down)| FaultEvent {
                time_s: us as f64 * 1e-6,
                link: link % links,
                action: if down { FaultAction::Down } else { FaultAction::Up },
            })
            .collect();
        let schedule = FaultSchedule::new(events).unwrap();
        let mut sink = VecSink::new();
        let report = Simulator::new(&topo)
            .run_with(
                &build_dag(&flows),
                &schedule,
                RecoveryPolicy::SkipUnreachable,
                Some(&mut sink),
            )
            .unwrap();
        let trace = sink.into_events();
        let summary = check_trace_with_topology(&trace, &topo);
        prop_assert!(summary.is_ok(), "oracle: {}", summary.unwrap_err());
        prop_assert_eq!(summary.unwrap().flows_skipped, report.skipped_flows);
        let rates = check_rates_against_textbook(&trace);
        prop_assert!(rates.is_ok(), "textbook: {}", rates.unwrap_err());
    }
}
