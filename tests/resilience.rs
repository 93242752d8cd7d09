//! End-to-end resilience coverage: mid-run fault injection through the
//! public facade — empty schedules are exact no-ops, the four recovery
//! policies produce distinct outcomes on crafted fault scenarios, and a
//! Monte-Carlo campaign is bit-deterministic across worker-thread counts.

use exaflow::prelude::*;
use exaflow::sim::FaultSchedule;

fn duplex(topo: &dyn Topology, a: u32, b: u32) -> [u32; 2] {
    let net = topo.network();
    [
        net.find_physical_link(NodeId(a), NodeId(b)).unwrap().0,
        net.find_physical_link(NodeId(b), NodeId(a)).unwrap().0,
    ]
}

fn cut(topo: &dyn Topology, t: f64, a: u32, b: u32) -> Vec<FaultEvent> {
    duplex(topo, a, b)
        .into_iter()
        .map(|link| FaultEvent {
            time_s: t,
            link,
            action: FaultAction::Down,
        })
        .collect()
}

#[test]
fn empty_schedule_is_an_exact_noop_for_every_policy() {
    let topo = TopologySpec::Torus { dims: vec![4, 4] }.build().unwrap();
    let workload = WorkloadSpec::AllReduce {
        tasks: 16,
        bytes: 1 << 20,
    };
    let mapping = TaskMapping::linear(16, topo.num_endpoints());
    let dag = workload.generate(&mapping);
    let sim = Simulator::new(topo.as_ref());
    let baseline = sim.run(&dag).unwrap();
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    for policy in RecoveryPolicy::ALL {
        let faulted = sim
            .run_with(&dag, &FaultSchedule::empty(), policy, None)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&faulted).unwrap(),
            baseline_json,
            "policy {policy:?} with no faults must reproduce the fault-free report bit-for-bit"
        );
    }
}

#[test]
fn policies_diverge_when_a_detour_exists() {
    // Ring of 8; one flow 0 -> 1. Cutting cable (0,1) mid-transfer forces
    // the 7-hop detour the other way around.
    let topo = Torus::new(&[8]);
    let mut b = FlowDagBuilder::new();
    b.add_flow(NodeId(0), NodeId(1), 1 << 20, &[]);
    let dag = b.build();
    let sim = Simulator::new(&topo);
    let baseline = sim.run(&dag).unwrap();
    let t_cut = baseline.makespan_seconds / 2.0;
    let schedule = FaultSchedule::new(cut(&topo, t_cut, 0, 1)).unwrap();

    let err = sim
        .run_with(&dag, &schedule, RecoveryPolicy::Abort, None)
        .unwrap_err();
    assert!(
        matches!(err, SimError::LinkLost { flow: 0, .. }),
        "abort policy: {err:?}"
    );

    let resume = sim
        .run_with(&dag, &schedule, RecoveryPolicy::RerouteResume, None)
        .unwrap();
    let restart = sim
        .run_with(&dag, &schedule, RecoveryPolicy::RerouteRestart, None)
        .unwrap();
    let skip = sim
        .run_with(&dag, &schedule, RecoveryPolicy::SkipUnreachable, None)
        .unwrap();

    // The destination stayed reachable, so nothing is skipped and the skip
    // policy degenerates to resume semantics.
    assert_eq!(skip.skipped_flows, 0);
    assert_eq!(
        serde_json::to_string(&skip).unwrap(),
        serde_json::to_string(&resume).unwrap()
    );
    // Resume keeps the transferred half; restart pays for it again.
    assert!(
        resume.makespan_seconds >= baseline.makespan_seconds,
        "resume {} < baseline {}",
        resume.makespan_seconds,
        baseline.makespan_seconds
    );
    assert!(
        restart.makespan_seconds > resume.makespan_seconds,
        "restart {} <= resume {}",
        restart.makespan_seconds,
        resume.makespan_seconds
    );
    assert_eq!(resume.fault_events_applied, 2);
    assert_eq!(resume.flows, 1);
    assert_eq!(resume.delivered_flows(), 1);
}

#[test]
fn policies_diverge_when_the_destination_is_cut_off() {
    // Ring 0-1-2-3; flow 0 -> 2. Cutting cables (1,2) and (3,2) isolates
    // the destination: no policy can deliver the flow.
    let topo = Torus::new(&[4]);
    let mut b = FlowDagBuilder::new();
    b.add_flow(NodeId(0), NodeId(2), 1 << 20, &[]);
    let dag = b.build();
    let sim = Simulator::new(&topo);
    let baseline = sim.run(&dag).unwrap();
    let t_cut = baseline.makespan_seconds / 2.0;
    let mut events = cut(&topo, t_cut, 1, 2);
    events.extend(cut(&topo, t_cut, 3, 2));
    let schedule = FaultSchedule::new(events).unwrap();

    let err = sim
        .run_with(&dag, &schedule, RecoveryPolicy::Abort, None)
        .unwrap_err();
    assert!(matches!(err, SimError::LinkLost { .. }), "{err:?}");

    for policy in [
        RecoveryPolicy::RerouteResume,
        RecoveryPolicy::RerouteRestart,
    ] {
        let err = sim.run_with(&dag, &schedule, policy, None).unwrap_err();
        assert!(
            matches!(err, SimError::Unreachable { src: 0, dst: 2, .. }),
            "policy {policy:?}: {err:?}"
        );
    }

    let skip = sim
        .run_with(&dag, &schedule, RecoveryPolicy::SkipUnreachable, None)
        .unwrap();
    assert_eq!(skip.skipped_flows, 1);
    assert_eq!(skip.skipped_flow_ids, vec![0]);
    assert_eq!(skip.delivered_flows(), 0);
}

/// The trace oracle replays the crafted fault scenarios: a rerouted flow's
/// trace shows the detour and still conserves bytes; a skipped flow's
/// trace proves — against the real topology — that the destination was
/// genuinely unreachable when the skip fired.
#[test]
fn traces_of_crafted_fault_scenarios_pass_the_oracle() {
    // Detour scenario: ring of 8, cable (0,1) cut mid-transfer.
    let topo = Torus::new(&[8]);
    let mut b = FlowDagBuilder::new();
    b.add_flow(NodeId(0), NodeId(1), 1 << 20, &[]);
    let dag = b.build();
    let sim = Simulator::new(&topo);
    let t_cut = sim.run(&dag).unwrap().makespan_seconds / 2.0;
    let schedule = FaultSchedule::new(cut(&topo, t_cut, 0, 1)).unwrap();

    for (policy, restarted) in [
        (RecoveryPolicy::RerouteResume, false),
        (RecoveryPolicy::RerouteRestart, true),
    ] {
        let mut sink = VecSink::new();
        sim.run_with(&dag, &schedule, policy, Some(&mut sink))
            .unwrap();
        let events = sink.into_events();
        let summary =
            check_trace_with_topology(&events, &topo).unwrap_or_else(|v| panic!("{policy:?}: {v}"));
        assert_eq!(summary.flows_finished, 1, "{policy:?}");
        assert_eq!(summary.flows_skipped, 0, "{policy:?}");
        assert_eq!(summary.reroutes, 1, "{policy:?}");
        // The reroute event records the policy's restart semantics and the
        // detour itself: a 7-hop path instead of the direct cable.
        let detour = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::RerouteTaken {
                    path, restarted, ..
                } => Some((path.len(), *restarted)),
                _ => None,
            })
            .expect("no reroute_taken event");
        assert_eq!(detour, (7 + 2, restarted), "{policy:?}");
    }

    // Isolation scenario: ring of 4, both cables into the destination cut.
    let topo = Torus::new(&[4]);
    let mut b = FlowDagBuilder::new();
    b.add_flow(NodeId(0), NodeId(2), 1 << 20, &[]);
    let dag = b.build();
    let sim = Simulator::new(&topo);
    let t_cut = sim.run(&dag).unwrap().makespan_seconds / 2.0;
    let mut events = cut(&topo, t_cut, 1, 2);
    events.extend(cut(&topo, t_cut, 3, 2));
    let schedule = FaultSchedule::new(events).unwrap();

    let mut sink = VecSink::new();
    let report = sim
        .run_with(
            &dag,
            &schedule,
            RecoveryPolicy::SkipUnreachable,
            Some(&mut sink),
        )
        .unwrap();
    let events = sink.into_events();
    let summary = check_trace_with_topology(&events, &topo).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(summary.flows_skipped, 1);
    assert_eq!(summary.flows_finished, 0);
    assert_eq!(report.skipped_flow_ids, vec![0]);
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::FlowSkipped { flow: 0, .. })));
    // Four cable-down events must all appear in the trace before the skip.
    let faults = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FaultApplied { .. }))
        .count();
    assert_eq!(faults, 4);
}

#[test]
fn campaign_is_deterministic_and_faithful_at_zero_rate() {
    let spec = ResilienceCampaignSpec {
        base: ExperimentConfig {
            topology: TopologySpec::Torus { dims: vec![4, 4] },
            workload: WorkloadSpec::AllReduce {
                tasks: 16,
                bytes: 1 << 18,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        },
        fault_rates_per_s: vec![0.0, 300.0],
        policies: RecoveryPolicy::ALL.to_vec(),
        replicas: 2,
        seed: 123,
        horizon_s: None,
        repair_s: None,
    };
    let serial = run_resilience_campaign(&spec, Some(1)).unwrap();
    let parallel = run_resilience_campaign(&spec, Some(8)).unwrap();
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "campaign reports must be bit-identical across thread counts"
    );
    // Zero-rate cells reproduce the fault-free baseline exactly, for every
    // policy: the harness adds no noise of its own.
    for cell in serial.cells.iter().filter(|c| c.fault_rate_per_s == 0.0) {
        assert_eq!(cell.completed, 2, "{cell:?}");
        assert_eq!(cell.inflation_mean, 1.0, "{cell:?}");
        assert_eq!(cell.delivered_flow_fraction, 1.0, "{cell:?}");
        assert_eq!(cell.mean_fault_events, 0.0, "{cell:?}");
    }
    assert_eq!(serial.failed_runs, 0);
}
