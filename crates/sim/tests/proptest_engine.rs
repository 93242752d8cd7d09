//! Property tests for the flow engine: physical sanity bounds and
//! determinism on random DAGs (the solver's own max-min properties are
//! `proptest_maxmin.rs`).

use exaflow_netgraph::NodeId;
use exaflow_sim::{
    FaultSchedule, FlowDagBuilder, FlowId, RecoveryPolicy, SimConfig, Simulator, VecSink,
};
use exaflow_topo::Torus;
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
        let mut b = FlowDagBuilder::new();
        for (i, (s, d, bytes, deps)) in flows.iter().enumerate() {
            let deps: Vec<FlowId> = deps
                .iter()
                .filter(|_| i > 0)
                .map(|&x| FlowId((x % i) as u32))
                .collect();
            b.add_flow(NodeId(*s), NodeId(*d), *bytes, &deps);
        }
        let dag = b.build();
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
        let mut b = FlowDagBuilder::new();
        for (i, (s, d, bytes, deps)) in flows.iter().enumerate() {
            let deps: Vec<FlowId> = deps
                .iter()
                .filter(|_| i > 0)
                .map(|&x| FlowId((x % i) as u32))
                .collect();
            b.add_flow(NodeId(*s), NodeId(*d), *bytes, &deps);
        }
        let dag = b.build();
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
        let cfg = SimConfig { record_flow_times: true, ..SimConfig::default() };
        let report = Simulator::with_config(&topo, cfg).run(&dag).unwrap();
        let times = report.completion_times.unwrap();
        for (pred, succ) in dep_pairs {
            prop_assert!(
                times[pred.index()] <= times[succ.index()] + 1e-15,
                "dep finished after dependent"
            );
        }
    }

    /// The worker pool is invisible in results: random DAGs on a
    /// 64-endpoint torus (large enough to cross the parallel-solve and
    /// route-prefetch thresholds on bigger cases) produce event-for-event
    /// identical traces and bit-identical completion times at every
    /// thread count.
    #[test]
    fn thread_counts_trace_identically(flows in random_dag(64)) {
        let topo = Torus::new(&[8, 8]);
        let mut b = FlowDagBuilder::new();
        for (i, (s, d, bytes, deps)) in flows.iter().enumerate() {
            let deps: Vec<FlowId> = deps
                .iter()
                .filter(|_| i > 0)
                .map(|&x| FlowId((x % i) as u32))
                .collect();
            b.add_flow(NodeId(*s), NodeId(*d), *bytes, &deps);
        }
        let dag = b.build();
        let run = |threads: usize| {
            let cfg = SimConfig {
                solver_threads: threads,
                record_flow_times: true,
                ..SimConfig::default()
            };
            let mut sink = VecSink::new();
            let report = Simulator::with_config(&topo, cfg)
                .run_with(&dag, &FaultSchedule::empty(), RecoveryPolicy::default(), Some(&mut sink))
                .unwrap();
            (report, sink.into_events())
        };
        let (reference, ref_events) = run(1);
        let ref_times = reference.completion_times.as_ref().unwrap();
        for threads in [2, 8] {
            let (report, events) = run(threads);
            prop_assert_eq!(&events, &ref_events, "threads={}", threads);
            prop_assert_eq!(
                report.makespan_seconds.to_bits(),
                reference.makespan_seconds.to_bits(),
                "threads={}", threads
            );
            let times = report.completion_times.as_ref().unwrap();
            for (f, (t, r)) in times.iter().zip(ref_times).enumerate() {
                prop_assert!(
                    t.to_bits() == r.to_bits(),
                    "threads={threads}, flow {f}: {t:e} != {r:e}"
                );
            }
            prop_assert_eq!(report.maxmin_iterations, reference.maxmin_iterations);
        }
    }

    #[test]
    fn batching_epsilon_bounds_error(flows in random_dag(16)) {
        let topo = Torus::new(&[4, 4]);
        let mut b = FlowDagBuilder::new();
        for (i, (s, d, bytes, deps)) in flows.iter().enumerate() {
            let deps: Vec<FlowId> = deps
                .iter()
                .filter(|_| i > 0)
                .map(|&x| FlowId((x % i) as u32))
                .collect();
            b.add_flow(NodeId(*s), NodeId(*d), *bytes, &deps);
        }
        let dag = b.build();
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
