//! Engine equivalence against an independent reference: at every
//! `rate_recompute` of a traced run, the rates the engine hands out must be
//! **bit-identical** to `textbook_maxmin` — plain progressive filling over
//! the active flows' current paths, rebuilt from the trace alone — and every
//! complete trace must pass the `check_trace` oracle (max-min fairness, byte
//! conservation, capacities, dependencies, fault discipline). Covered across
//! the paper's topology families (torus, fattree, standalone GHC, NestGHC,
//! NestTree), fault-free and with a mid-run link cut + repair under all four
//! recovery policies; on random heavy traffic, whose recomputes are full
//! passes merged with the previous pass's freeze log (`maxmin` module docs,
//! "Merge replay"); and on the iterative workloads (n-Bodies,
//! Near-Neighbours) whose completion batches re-issue the paths they retire
//! — the batches the deferred settle elides. Reports are also held equal
//! across tracing modes.

use exaflow::prelude::*;
use exaflow::sim::trace_check::check_rates_against_textbook;
use exaflow::sim::FaultSchedule;
use exaflow::topo::UpperTierKind;
use exaflow_netgraph::NodeId;

fn specs() -> Vec<(&'static str, TopologySpec)> {
    vec![
        (
            "torus",
            TopologySpec::Torus {
                dims: vec![4, 4, 2],
            },
        ),
        (
            "fattree",
            TopologySpec::Fattree {
                k: 4,
                n: 2,
                endpoints: None,
            },
        ),
        (
            "ghc",
            TopologySpec::Ghc {
                dims: vec![4, 4],
                ports_per_router: 2,
                endpoints: None,
            },
        ),
        (
            "nest-ghc",
            TopologySpec::Nested {
                upper: UpperTierKind::GeneralizedHypercube,
                subtori: 4,
                t: 2,
                u: 4,
            },
        ),
        (
            "nest-tree",
            TopologySpec::Nested {
                upper: UpperTierKind::Fattree,
                subtori: 4,
                t: 2,
                u: 4,
            },
        ),
    ]
}

/// Serialize a report without its metrics snapshot, which only a traced
/// run carries and which holds wall-clock solver timings.
fn canonical(report: &SimReport) -> String {
    let mut r = report.clone();
    r.metrics = None;
    serde_json::to_string(&r).unwrap()
}

/// A fault-free traced run: its report and its event stream.
fn run_traced(topo: &dyn Topology, dag: &FlowDag) -> (SimReport, Vec<TraceEvent>) {
    let mut sink = VecSink::new();
    let report = Simulator::new(topo)
        .run_with(
            dag,
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
            Some(&mut sink),
        )
        .unwrap();
    (report, sink.into_events())
}

/// One traced run under `schedule` / `policy`: every recompute is held to
/// the textbook and, if the run completed, the trace to the topology-backed
/// oracle. Returns the outcome and the trace for row-specific assertions.
fn checked_run(
    label: &str,
    topo: &dyn Topology,
    dag: &FlowDag,
    schedule: &FaultSchedule,
    policy: RecoveryPolicy,
) -> (Result<SimReport, SimError>, Vec<TraceEvent>) {
    let mut sink = VecSink::new();
    let outcome = Simulator::new(topo).run_with(dag, schedule, policy, Some(&mut sink));
    let trace = sink.into_events();
    let recomputes =
        check_rates_against_textbook(&trace).unwrap_or_else(|v| panic!("{label}: {v}"));
    if outcome.is_ok() {
        assert!(recomputes > 0, "{label}: no rate was ever computed");
        check_trace_with_topology(&trace, topo).unwrap_or_else(|v| panic!("{label}: oracle: {v}"));
    }
    (outcome, trace)
}

fn workload_for(eps: usize) -> FlowDag {
    let spec = WorkloadSpec::AllReduce {
        tasks: eps,
        bytes: 1 << 18,
    };
    spec.generate(&TaskMapping::linear(eps, eps))
}

/// Tracing must observe, not perturb: the untraced, the metrics-only
/// (`trace: true`) and the sink-traced run of every family give one report.
#[test]
fn fault_free_reports_bit_identical_across_modes() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let untraced = Simulator::new(topo.as_ref()).run(&dag).unwrap();
        assert!(untraced.events > 0, "{name}: degenerate workload");
        assert!(untraced.metrics.is_none(), "{name}");
        let metrics_only = Simulator::with_config(
            topo.as_ref(),
            SimConfig {
                trace: true,
                ..SimConfig::default()
            },
        )
        .run(&dag)
        .unwrap();
        assert!(metrics_only.metrics.is_some(), "{name}");
        let (traced, _) = run_traced(topo.as_ref(), &dag);
        for (mode, report) in [("metrics-only", &metrics_only), ("traced", &traced)] {
            assert_eq!(
                canonical(report),
                canonical(&untraced),
                "{name}: the {mode} run diverged from the untraced one"
            );
        }
    }
}

/// Coalescing only merges flows whose entire resource path (including the
/// NIC injection/ejection ports) is identical — i.e. concurrent flows
/// between the same endpoint pair. The merged entry must still rate each
/// flow exactly as the textbook rates them one by one.
#[test]
fn coalescing_merges_identical_paths_bit_identically() {
    let topo = Torus::new(&[4, 4]);
    let mut b = FlowDagBuilder::new();
    for _ in 0..4 {
        b.add_flow(NodeId(0), NodeId(5), 1 << 20, &[]);
    }
    b.add_flow(NodeId(2), NodeId(7), 1 << 20, &[]);
    let dag = b.build();
    let (report, trace) = checked_run(
        "coalescing",
        &topo,
        &dag,
        &FaultSchedule::empty(),
        RecoveryPolicy::default(),
    );
    assert_eq!(
        report.unwrap().flows_coalesced,
        3,
        "four identical-pair flows should fold into one weighted entry"
    );
    assert!(trace.iter().any(|ev| matches!(
        ev,
        TraceEvent::RateRecompute { flows, .. } if flows.len() == 5
    )));
}

/// A duplex cut of a link actually crossed by traffic, mid-run,
/// repaired before the end: exercises reroute churn, the solver
/// invalidation path, and coalesced-group teardown.
fn schedule_for(topo: &dyn Topology, reference: &SimReport) -> FaultSchedule {
    let eps = topo.num_endpoints() as u32;
    let route = topo.route_vec(NodeId(0), NodeId(eps / 2));
    let net = topo.network();
    let eps_nodes = topo.num_endpoints() as u32;
    // Prefer a switch-to-switch hop: cutting an endpoint's only uplink
    // (single-homed fattree/GHC NICs) would partition it outright. Torus
    // nodes are their own routers, so any hop there is survivable.
    let link = route
        .iter()
        .copied()
        .find(|&l| net.link(l).src.0 >= eps_nodes && net.link(l).dst.0 >= eps_nodes)
        .or_else(|| route.first().copied())
        .expect("route with no link");
    let peer = net.find_link(net.link(link).dst, net.link(link).src);
    let t_cut = reference.makespan_seconds * 0.4;
    let t_fix = reference.makespan_seconds * 0.7;
    let mut events = Vec::new();
    for l in [Some(link), peer].into_iter().flatten() {
        events.push(FaultEvent {
            time_s: t_cut,
            link: l.0,
            action: FaultAction::Down,
        });
        events.push(FaultEvent {
            time_s: t_fix,
            link: l.0,
            action: FaultAction::Up,
        });
    }
    FaultSchedule::new(events).unwrap()
}

/// Fault-free traces of every family: every recompute at the textbook's
/// rates, and the trace oracle-clean, including the topology-backed
/// skip-unreachability proof.
#[test]
fn fault_free_traces_match_the_textbook_and_pass_the_oracle() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let (_, trace) = run_traced(topo.as_ref(), &dag);
        check_rates_against_textbook(&trace).unwrap_or_else(|v| panic!("{name}: {v}"));
        let summary =
            check_trace(&trace).unwrap_or_else(|v| panic!("{name}: trace failed the oracle: {v}"));
        assert_eq!(summary.flows_finished, dag.len() as u64, "{name}");
        assert_eq!(summary.flows_skipped, 0, "{name}");
        assert!(summary.max_utilization > 0.99, "{name}: links never filled");
        check_trace_with_topology(&trace, topo.as_ref())
            .unwrap_or_else(|v| panic!("{name}: topology oracle: {v}"));
    }
}

/// Cut + repair under every recovery policy: the recomputes of each trace
/// at the textbook's rates — up to the abort for `Abort` — and every
/// complete trace oracle-clean.
#[test]
fn faulted_traces_match_the_textbook_and_pass_the_oracle() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let healthy = Simulator::new(topo.as_ref()).run(&dag).unwrap();
        let schedule = schedule_for(topo.as_ref(), &healthy);
        for policy in RecoveryPolicy::ALL {
            let label = format!("{name}/{policy:?}");
            let (outcome, _) = checked_run(&label, topo.as_ref(), &dag, &schedule, policy);
            if policy == RecoveryPolicy::RerouteResume {
                let report = outcome.expect("resume must survive a repair");
                assert!(
                    report.fault_events_applied > 0,
                    "{label}: the crafted schedule never fired"
                );
            }
        }
    }
}

/// Tracing modes under cut + repair: for every family and recovery policy
/// the untraced and the traced run reach the same report — or the same
/// error.
#[test]
fn faulted_reports_bit_identical_across_modes_and_policies() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let engine = Simulator::new(topo.as_ref());
        let schedule = schedule_for(topo.as_ref(), &engine.run(&dag).unwrap());
        for policy in RecoveryPolicy::ALL {
            let untraced = engine.run_with(&dag, &schedule, policy, None);
            let mut sink = VecSink::new();
            let traced = engine.run_with(&dag, &schedule, policy, Some(&mut sink));
            match (&traced, &untraced) {
                (Ok(got), Ok(want)) => assert_eq!(
                    canonical(got),
                    canonical(want),
                    "{name}/{policy:?}: tracing changed the report"
                ),
                (Err(got), Err(want)) => assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{name}/{policy:?}: error paths diverged"
                ),
                _ => panic!(
                    "{name}/{policy:?}: tracing changed success/failure: \
                     {traced:?} vs {untraced:?}"
                ),
            }
        }
    }
}

/// `RecoveryPolicy::ALL` under no faults and under a cut + repair scheduled
/// against `healthy`: every (schedule, policy) cell.
fn fault_cells(topo: &dyn Topology, healthy: &SimReport) -> Vec<(FaultSchedule, RecoveryPolicy)> {
    let schedules = [FaultSchedule::empty(), schedule_for(topo, healthy)];
    schedules
        .iter()
        .flat_map(|s| RecoveryPolicy::ALL.map(|p| (s.clone(), p)))
        .collect()
}

/// The replay row. Random heavy traffic makes the sharing graph one giant
/// component, so a change reaches far into the freeze log every pass
/// resumes from: through departures (UnstructuredMgnt: mice finish first
/// whatever their rate), through insertions mid-run (the second Bisection
/// round starts behind dependencies), and — under a cut + repair — through
/// reroutes and drops, which reach the log as weight changes. Every recompute
/// must sit at the textbook's rates under all four recovery policies, and
/// every complete trace must carry the oracle's fairness certificate.
#[test]
fn replayed_full_passes_match_the_textbook() {
    let families = [
        ("torus-8x8", TopologySpec::Torus { dims: vec![8, 8] }),
        (
            "fattree-64",
            TopologySpec::Fattree {
                k: 4,
                n: 3,
                endpoints: None,
            },
        ),
    ];
    for (name, spec) in families {
        let topo = spec.build().unwrap();
        let eps = topo.num_endpoints();
        let workloads = [
            WorkloadSpec::UnstructuredMgnt {
                tasks: eps,
                flows_per_task: 4,
                seed: 7,
            },
            WorkloadSpec::Bisection {
                tasks: eps,
                rounds: 2,
                bytes: 1 << 18,
                seed: 7,
            },
        ];
        for workload in workloads {
            let dag = workload.generate(&TaskMapping::linear(eps, eps));
            let healthy = Simulator::new(topo.as_ref()).run(&dag).unwrap();
            for (schedule, policy) in fault_cells(topo.as_ref(), &healthy) {
                let label = format!(
                    "{name}/{workload:?}/{policy:?}/{} fault events",
                    schedule.events().len()
                );
                let (outcome, trace) = checked_run(&label, topo.as_ref(), &dag, &schedule, policy);
                let full: Vec<bool> = trace
                    .iter()
                    .filter_map(|ev| match ev {
                        TraceEvent::RateRecompute { full_pass, .. } => Some(*full_pass),
                        _ => None,
                    })
                    .collect();
                assert!(
                    outcome.is_err() || full.windows(2).any(|w| w[0] && w[1]),
                    "{label}: no full pass followed another, so none could replay"
                );
            }
        }
    }
}

/// The re-issue rows. n-Bodies chains and Near-Neighbours iterations send
/// over the same endpoint pairs round after round, so a completion batch
/// retires a set of paths and activates that very set again: the solver
/// settles the batch as no change and skips the pass (`maxmin` module
/// docs, "Deferred settle"). The rates it keeps must still be the
/// textbook's at every recompute, fault-free and across a cut + repair
/// under all four recovery policies (where reroutes break the symmetry
/// mid-run), and every complete trace must carry the oracle's fairness
/// certificate.
#[test]
fn reissued_rounds_match_the_textbook() {
    let families = [
        (
            "torus-4x4x4",
            TopologySpec::Torus {
                dims: vec![4, 4, 4],
            },
        ),
        (
            "fattree-64",
            TopologySpec::Fattree {
                k: 4,
                n: 3,
                endpoints: None,
            },
        ),
        (
            "nest-tree-64",
            TopologySpec::Nested {
                upper: UpperTierKind::Fattree,
                subtori: 8,
                t: 2,
                u: 2,
            },
        ),
    ];
    for (name, spec) in families {
        let topo = spec.build().unwrap();
        let eps = topo.num_endpoints();
        assert_eq!(eps, 64, "{name}");
        let workloads = [
            WorkloadSpec::NBodies {
                tasks: eps,
                bytes: 1 << 18,
            },
            WorkloadSpec::NearNeighbors {
                gx: 4,
                gy: 4,
                gz: 4,
                bytes: 1 << 18,
                iterations: 3,
                periodic: true,
            },
        ];
        for workload in workloads {
            let dag = workload.generate(&TaskMapping::linear(eps, eps));
            let healthy = Simulator::new(topo.as_ref()).run(&dag).unwrap();
            // The premise of the row: the engine really skips passes.
            assert!(
                healthy.rate_recomputes < healthy.events,
                "{name}/{workload:?}: {} passes for {} events, nothing was elided",
                healthy.rate_recomputes,
                healthy.events
            );
            for (schedule, policy) in fault_cells(topo.as_ref(), &healthy) {
                let label = format!(
                    "{name}/{workload:?}/{policy:?}/{} fault events",
                    schedule.events().len()
                );
                let _ = checked_run(&label, topo.as_ref(), &dag, &schedule, policy);
            }
        }
    }
}

/// A count guard that cannot flake: 16 n-Bodies tasks on a 16-ring are 8
/// rounds of the same 16 one-hop flows. The first event water-fills; each
/// of the other seven retires 16 paths and re-issues them, which costs no
/// pass at all.
#[test]
fn a_reissued_ring_round_costs_no_water_fill() {
    let topo = Torus::new(&[16]);
    let dag = WorkloadSpec::NBodies {
        tasks: 16,
        bytes: 1 << 20,
    }
    .generate(&TaskMapping::linear(16, 16));
    let report = Simulator::new(&topo).run(&dag).unwrap();
    assert_eq!(report.events, 8);
    assert_eq!(report.rate_recomputes, 1);
    assert_eq!(report.flows_coalesced, 0);
}
