//! Engine-mode equivalence: with the incremental solver and flow
//! coalescing on (in any combination), every `SimReport` must be
//! **bit-identical** — after zeroing the solver-effort counters, which
//! legitimately differ — to the plain full-solve-per-event engine. Covered
//! across the paper's topology families (torus, fattree, standalone GHC,
//! NestGHC, NestTree), fault-free and with a mid-run link cut + repair
//! under all four recovery policies. A last row drives random heavy
//! traffic with `incremental_full_threshold: 0.0`, so every recompute is a
//! full pass resumed from the previous pass's freeze log (`maxmin` module
//! docs, "Prefix replay"), and a re-issue row runs the iterative workloads
//! (n-Bodies, Near-Neighbours) whose completion batches re-issue the paths
//! they retire — the batches the deferred settle elides.

use exaflow::prelude::*;
use exaflow::sim::FaultSchedule;
use exaflow::topo::UpperTierKind;
use exaflow_netgraph::NodeId;

/// The three accelerated mode combinations, each compared against the
/// `(false, false)` reference engine.
const MODES: [(bool, bool); 3] = [(true, true), (true, false), (false, true)];

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

fn cfg(incremental: bool, coalesce: bool) -> SimConfig {
    SimConfig {
        solver_incremental: incremental,
        coalesce_flows: coalesce,
        record_flow_times: true,
        collect_link_stats: true,
        // Non-zero head latencies route admissions through the
        // delayed-activation heap — the other entry path into the solver.
        per_hop_latency_s: 50e-9,
        startup_latency_s: 1e-6,
        ..SimConfig::default()
    }
}

/// Serialize a report with the solver-effort counters zeroed. Iterations,
/// recompute and coalescing counts measure *work done*, not physics, and
/// are the only fields allowed to differ between engine modes. The metrics
/// snapshot is dropped too: it carries wall-clock solver timings. The
/// parallelism counters are zeroed for the same reason (how much work hit
/// the pool depends on per-pass entry counts, which differ between modes),
/// but the route-cache counters stay: the cache trajectory is driven by
/// admission order alone, identical in every mode.
fn canonical(report: &SimReport) -> String {
    let mut r = report.clone();
    r.maxmin_iterations = 0;
    r.rate_recomputes = 0;
    r.flows_coalesced = 0;
    r.solver_threads = 0;
    r.parallel_solves = 0;
    r.parallel_route_batches = 0;
    r.metrics = None;
    serde_json::to_string(&r).unwrap()
}

/// Canonical form for *thread-count* comparisons: only the fields that
/// describe work placement (pool size, how many passes/batches ran
/// parallel) may differ. Everything else — including the solver iteration
/// and recompute counts and the route-cache hit/eviction counters — must
/// be bit-identical across thread counts.
fn canonical_threads(report: &SimReport) -> String {
    let mut r = report.clone();
    r.solver_threads = 0;
    r.parallel_solves = 0;
    r.parallel_route_batches = 0;
    r.metrics = None;
    serde_json::to_string(&r).unwrap()
}

fn cfg_threads(threads: usize) -> SimConfig {
    SimConfig {
        solver_threads: threads,
        ..cfg(true, true)
    }
}

/// A fault-free traced run: its report and its event stream.
fn run_traced(topo: &dyn Topology, cfg: SimConfig, dag: &FlowDag) -> (SimReport, Vec<TraceEvent>) {
    let mut sink = VecSink::new();
    let report = Simulator::with_config(topo, cfg)
        .run_with(
            dag,
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
            Some(&mut sink),
        )
        .unwrap();
    (report, sink.into_events())
}

/// Zero the solver-effort payload of `rate_recompute` events — like the
/// report counters, `entries_solved`/`full_pass` measure work done and are
/// the only trace fields allowed to differ between engine modes.
fn canonical_trace(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .cloned()
        .map(|ev| match ev {
            TraceEvent::RateRecompute {
                t,
                flows,
                rates_bps,
                ..
            } => TraceEvent::RateRecompute {
                t,
                flows,
                rates_bps,
                entries_solved: 0,
                full_pass: false,
            },
            other => other,
        })
        .collect()
}

fn workload_for(eps: usize) -> FlowDag {
    let spec = WorkloadSpec::AllReduce {
        tasks: eps,
        bytes: 1 << 18,
    };
    spec.generate(&TaskMapping::linear(eps, eps))
}

#[test]
fn fault_free_reports_bit_identical_across_modes() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let reference = Simulator::with_config(topo.as_ref(), cfg(false, false))
            .run(&dag)
            .unwrap();
        assert!(reference.events > 0, "{name}: degenerate workload");
        for (inc, coal) in MODES {
            let report = Simulator::with_config(topo.as_ref(), cfg(inc, coal))
                .run(&dag)
                .unwrap();
            assert_eq!(
                canonical(&report),
                canonical(&reference),
                "{name}: incremental={inc} coalesce={coal} diverged from the reference engine"
            );
        }
    }
}

/// Coalescing only merges flows whose entire resource path (including the
/// NIC injection/ejection ports) is identical — i.e. concurrent flows
/// between the same endpoint pair. The merged run must still be
/// bit-identical to solving them separately.
#[test]
fn coalescing_merges_identical_paths_bit_identically() {
    let topo = Torus::new(&[4, 4]);
    let mut b = FlowDagBuilder::new();
    for _ in 0..4 {
        b.add_flow(NodeId(0), NodeId(5), 1 << 20, &[]);
    }
    b.add_flow(NodeId(2), NodeId(7), 1 << 20, &[]);
    let dag = b.build();
    let reference = Simulator::with_config(&topo, cfg(false, false))
        .run(&dag)
        .unwrap();
    let report = Simulator::with_config(&topo, cfg(true, true))
        .run(&dag)
        .unwrap();
    assert_eq!(canonical(&report), canonical(&reference));
    assert_eq!(
        report.flows_coalesced, 3,
        "four identical-pair flows should fold into one weighted entry"
    );
    assert_eq!(reference.flows_coalesced, 0);
}

/// A duplex cut of a physical link actually crossed by traffic, mid-run,
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
    let physical: Vec<LinkId> = route
        .iter()
        .copied()
        .filter(|&l| !net.link(l).is_virtual)
        .collect();
    let link = physical
        .iter()
        .copied()
        .find(|&l| net.link(l).src.0 >= eps_nodes && net.link(l).dst.0 >= eps_nodes)
        .or_else(|| physical.first().copied())
        .expect("route with no physical link");
    let peer = net.find_physical_link(net.link(link).dst, net.link(link).src);
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

/// Fault-free traces: every engine mode must narrate the *same story* —
/// event-for-event identical after canonicalisation — and every trace must
/// satisfy the replay oracle, including the topology-backed
/// skip-unreachability proof on the reference trace.
#[test]
fn fault_free_traces_identical_across_modes_and_pass_the_oracle() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());

        let (reference_report, reference) = run_traced(topo.as_ref(), cfg(false, false), &dag);

        let summary = check_trace(&reference)
            .unwrap_or_else(|v| panic!("{name}: reference trace failed the oracle: {v}"));
        assert_eq!(summary.flows_finished, dag.len() as u64, "{name}");
        assert_eq!(summary.flows_skipped, 0, "{name}");
        assert!(summary.max_utilization > 0.99, "{name}: links never filled");
        check_trace_with_topology(&reference, topo.as_ref())
            .unwrap_or_else(|v| panic!("{name}: topology oracle: {v}"));

        // Tracing must observe, not perturb: same physics as the untraced run.
        let untraced = Simulator::with_config(topo.as_ref(), cfg(false, false))
            .run(&dag)
            .unwrap();
        assert_eq!(canonical(&reference_report), canonical(&untraced), "{name}");

        let want = canonical_trace(&reference);
        for (inc, coal) in MODES {
            let (_, events) = run_traced(topo.as_ref(), cfg(inc, coal), &dag);
            check_trace(&events).unwrap_or_else(|v| {
                panic!("{name}: incremental={inc} coalesce={coal} trace failed the oracle: {v}")
            });
            assert_eq!(
                canonical_trace(&events),
                want,
                "{name}: incremental={inc} coalesce={coal} trace diverged from the reference"
            );
        }
    }
}

/// Faulted traces under every surviving recovery policy: mode-identical
/// and oracle-clean, across cut + repair churn.
#[test]
fn faulted_traces_identical_across_modes_and_pass_the_oracle() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let reference_engine = Simulator::with_config(topo.as_ref(), cfg(false, false));
        let schedule = schedule_for(topo.as_ref(), &reference_engine.run(&dag).unwrap());

        // Abort aborts mid-run, leaving a legitimately truncated trace the
        // completeness oracle would reject; the three surviving policies
        // must each produce a full, mode-identical, oracle-clean trace.
        for policy in [
            RecoveryPolicy::RerouteResume,
            RecoveryPolicy::RerouteRestart,
            RecoveryPolicy::SkipUnreachable,
        ] {
            let mut sink = VecSink::new();
            let reference_run = reference_engine.run_with(&dag, &schedule, policy, Some(&mut sink));
            let reference = sink.into_events();
            if reference_run.is_err() {
                continue; // restart on a repaired cut can still livelock-guard out
            }
            let summary = check_trace(&reference)
                .unwrap_or_else(|v| panic!("{name}/{policy:?}: oracle: {v}"));
            assert!(summary.events > 2, "{name}/{policy:?}: empty trace");
            check_trace_with_topology(&reference, topo.as_ref())
                .unwrap_or_else(|v| panic!("{name}/{policy:?}: topology oracle: {v}"));

            let want = canonical_trace(&reference);
            for (inc, coal) in MODES {
                let mut sink = VecSink::new();
                Simulator::with_config(topo.as_ref(), cfg(inc, coal))
                    .run_with(&dag, &schedule, policy, Some(&mut sink))
                    .unwrap_or_else(|e| {
                        panic!("{name}/{policy:?}: incremental={inc} coalesce={coal}: {e:?}")
                    });
                let events = sink.into_events();
                check_trace(&events).unwrap_or_else(|v| {
                    panic!("{name}/{policy:?}: incremental={inc} coalesce={coal} oracle: {v}")
                });
                assert_eq!(
                    canonical_trace(&events),
                    want,
                    "{name}/{policy:?}: incremental={inc} coalesce={coal} trace diverged"
                );
            }
        }
    }
}

/// Tentpole guarantee: the worker pool changes wall-clock, never results.
/// `solver_threads ∈ {2, 8, auto}` must reproduce the single-thread report
/// bit-for-bit on every topology family — including the solver-effort
/// counters, which the parallel water-fill matches round-for-round.
#[test]
fn thread_counts_bit_identical_reports_fault_free() {
    let mut parallel_solves = 0;
    let mut parallel_batches = 0;
    // The standard families (16–32 endpoints) mostly stay under the pool's
    // dispatch thresholds; the 64-endpoint torus guarantees both the
    // parallel water-fill and the route prefetcher actually engage.
    let mut families = specs();
    families.push(("torus-8x8", TopologySpec::Torus { dims: vec![8, 8] }));
    for (name, spec) in families {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let reference = Simulator::with_config(topo.as_ref(), cfg_threads(1))
            .run(&dag)
            .unwrap();
        assert_eq!(reference.solver_threads, 1, "{name}");
        assert_eq!(reference.parallel_solves, 0, "{name}");
        // 0 = resolve from EXAFLOW_THREADS (else 1), the default every
        // config file gets.
        for threads in [2, 8, 0] {
            let report = Simulator::with_config(topo.as_ref(), cfg_threads(threads))
                .run(&dag)
                .unwrap();
            if threads > 1 {
                assert_eq!(report.solver_threads, threads as u64, "{name}");
                parallel_solves += report.parallel_solves;
                parallel_batches += report.parallel_route_batches;
            }
            assert_eq!(
                canonical_threads(&report),
                canonical_threads(&reference),
                "{name}: solver_threads={threads} diverged from the single-thread engine"
            );
        }
    }
    // The comparisons above are only meaningful if the pool actually did
    // work somewhere: small families legitimately stay under the dispatch
    // thresholds, but not all of them.
    assert!(parallel_solves > 0, "no family hit the parallel water-fill");
    assert!(parallel_batches > 0, "no family hit the route prefetcher");
}

/// Thread counts must also tell the same story event-for-event: raw trace
/// equality, no canonicalisation — even the `entries_solved`/`full_pass`
/// payloads match, because the pool never changes what is solved, only who
/// solves it.
#[test]
fn thread_counts_identical_traces_fault_free() {
    let mut families = specs();
    families.push(("torus-8x8", TopologySpec::Torus { dims: vec![8, 8] }));
    for (name, spec) in families {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let (_, reference) = run_traced(topo.as_ref(), cfg_threads(1), &dag);
        for threads in [2, 8] {
            let (_, events) = run_traced(topo.as_ref(), cfg_threads(threads), &dag);
            check_trace(&events).unwrap_or_else(|v| {
                panic!("{name}: {threads}-thread trace failed the oracle: {v}")
            });
            assert_eq!(
                events, reference,
                "{name}: solver_threads={threads} trace diverged from single-thread"
            );
        }
    }
}

/// Mid-run cut + repair with the pool on: fault handling (route-cache
/// purges, prefetch invalidation, overlay reroutes) must stay thread-count
/// independent, reports and traces both.
#[test]
fn thread_counts_bit_identical_faulted() {
    let mut families = specs();
    families.push(("torus-8x8", TopologySpec::Torus { dims: vec![8, 8] }));
    for (name, spec) in families {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let reference_engine = Simulator::with_config(topo.as_ref(), cfg_threads(1));
        let schedule = schedule_for(topo.as_ref(), &reference_engine.run(&dag).unwrap());

        for policy in [
            RecoveryPolicy::RerouteResume,
            RecoveryPolicy::SkipUnreachable,
        ] {
            let mut sink = VecSink::new();
            let reference = reference_engine
                .run_with(&dag, &schedule, policy, Some(&mut sink))
                .unwrap_or_else(|e| panic!("{name}/{policy:?}: single-thread run: {e:?}"));
            let reference_trace = sink.into_events();
            for threads in [2, 8] {
                let mut sink = VecSink::new();
                let report = Simulator::with_config(topo.as_ref(), cfg_threads(threads))
                    .run_with(&dag, &schedule, policy, Some(&mut sink))
                    .unwrap_or_else(|e| panic!("{name}/{policy:?}: {threads} threads: {e:?}"));
                assert_eq!(
                    canonical_threads(&report),
                    canonical_threads(&reference),
                    "{name}/{policy:?}: solver_threads={threads} report diverged"
                );
                assert_eq!(
                    sink.into_events(),
                    reference_trace,
                    "{name}/{policy:?}: solver_threads={threads} trace diverged"
                );
            }
        }
    }
}

#[test]
fn faulted_reports_bit_identical_across_modes_and_policies() {
    for (name, spec) in specs() {
        let topo = spec.build().unwrap();
        let dag = workload_for(topo.num_endpoints());
        let reference_engine = Simulator::with_config(topo.as_ref(), cfg(false, false));
        let schedule = schedule_for(topo.as_ref(), &reference_engine.run(&dag).unwrap());

        for policy in RecoveryPolicy::ALL {
            let reference = reference_engine.run_with(&dag, &schedule, policy, None);
            if policy == RecoveryPolicy::RerouteResume {
                let r = reference.as_ref().expect("resume must survive a repair");
                assert!(
                    r.fault_events_applied > 0,
                    "{name}: the crafted schedule never fired"
                );
            }
            for (inc, coal) in MODES {
                let report = Simulator::with_config(topo.as_ref(), cfg(inc, coal))
                    .run_with(&dag, &schedule, policy, None);
                match (&report, &reference) {
                    (Ok(got), Ok(want)) => assert_eq!(
                        canonical(got),
                        canonical(want),
                        "{name}/{policy:?}: incremental={inc} coalesce={coal} diverged"
                    ),
                    (Err(got), Err(want)) => assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{name}/{policy:?}: error paths diverged"
                    ),
                    _ => panic!(
                        "{name}/{policy:?}: incremental={inc} coalesce={coal} \
                         changed success/failure: {report:?} vs {reference:?}"
                    ),
                }
            }
        }
    }
}

/// Run `dag` traced under `schedule`/`policy`: the outcome (canonical
/// report, or the error's debug form) and the canonical trace.
fn outcome(
    topo: &dyn Topology,
    cfg: SimConfig,
    dag: &FlowDag,
    schedule: &FaultSchedule,
    policy: RecoveryPolicy,
) -> (Result<String, String>, Vec<TraceEvent>) {
    let mut sink = VecSink::new();
    let result = Simulator::with_config(topo, cfg)
        .run_with(dag, schedule, policy, Some(&mut sink))
        .map(|r| canonical(&r))
        .map_err(|e| format!("{e:?}"));
    (result, sink.into_events())
}

/// One (schedule, policy) cell of a reference-vs-candidates row. The
/// reference engine's trace must pass the topology-backed oracle and show
/// the crafted schedule firing; every candidate config must then reproduce
/// its outcome and its canonical trace, and pass the oracle on its own.
/// Returns the candidates' traces for row-specific assertions.
fn assert_candidates_match_reference(
    label: &str,
    topo: &dyn Topology,
    dag: &FlowDag,
    (schedule, policy): (&FaultSchedule, RecoveryPolicy),
    reference: SimConfig,
    candidates: &[(String, SimConfig)],
) -> Vec<Vec<TraceEvent>> {
    let (want, want_trace) = outcome(topo, reference, dag, schedule, policy);
    if want.is_ok() {
        check_trace_with_topology(&want_trace, topo)
            .unwrap_or_else(|v| panic!("{label}: reference oracle: {v}"));
    }
    if policy == RecoveryPolicy::RerouteResume {
        let fired = want_trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::FaultApplied { .. }));
        assert_eq!(
            fired,
            !schedule.events().is_empty(),
            "{label}: the crafted schedule never fired"
        );
    }
    candidates
        .iter()
        .map(|(mode, cfg)| {
            let (got, trace) = outcome(topo, cfg.clone(), dag, schedule, policy);
            assert_eq!(got, want, "{label}: {mode} report diverged");
            if got.is_ok() {
                check_trace(&trace).unwrap_or_else(|v| panic!("{label}: {mode} oracle: {v}"));
            }
            assert_eq!(
                canonical_trace(&trace),
                canonical_trace(&want_trace),
                "{label}: {mode} trace diverged"
            );
            trace
        })
        .collect()
}

/// The replay row. Random heavy traffic makes the sharing graph one giant
/// component, and a threshold of 0 degrades every recompute to a full
/// pass, so each one resumes from the freeze log of the one before:
/// through departures (UnstructuredMgnt: mice finish first whatever their
/// rate), through insertions mid-run (the second Bisection round starts
/// behind dependencies), and — under a cut + repair — through
/// `invalidate_all` discarding the log. Reports and traces must equal the
/// `solver_incremental = false` engine under all four recovery policies,
/// and every complete trace must carry the oracle's fairness certificate.
#[test]
fn replayed_full_passes_match_the_from_scratch_engine() {
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
            let healthy = Simulator::with_config(topo.as_ref(), cfg(false, false))
                .run(&dag)
                .unwrap();
            let schedules = [
                FaultSchedule::empty(),
                schedule_for(topo.as_ref(), &healthy),
            ];
            for (schedule, policy) in schedules
                .iter()
                .flat_map(|s| RecoveryPolicy::ALL.map(|p| (s, p)))
            {
                let label = format!(
                    "{name}/{workload:?}/{policy:?}/{} fault events",
                    schedule.events().len()
                );
                let replaying = [true, false].map(|coalesce| {
                    let cfg = SimConfig {
                        incremental_full_threshold: 0.0,
                        ..cfg(true, coalesce)
                    };
                    (format!("coalesce={coalesce}"), cfg)
                });
                let traces = assert_candidates_match_reference(
                    &label,
                    topo.as_ref(),
                    &dag,
                    (schedule, policy),
                    cfg(false, false),
                    &replaying,
                );
                for trace in traces {
                    assert!(
                        trace.iter().all(|ev| !matches!(
                            ev,
                            TraceEvent::RateRecompute {
                                entries_solved: 1..,
                                full_pass: false,
                                ..
                            }
                        )),
                        "{label}: took a component-local pass"
                    );
                }
            }
        }
    }
}

/// The re-issue rows. n-Bodies chains and Near-Neighbours iterations send
/// over the same endpoint pairs round after round, so a completion batch
/// retires a set of paths and activates that very set again: the solver
/// settles the batch as no change and skips the pass (`maxmin` module
/// docs, "Deferred settle"). The engine that never elides —
/// `solver_incremental = false`, `coalesce_flows = false` — is the
/// reference; reports and traces must equal it in every accelerated mode,
/// fault-free and across a cut + repair under all four recovery policies
/// (where reroutes break the symmetry mid-run), and every complete trace
/// must carry the oracle's fairness certificate. Head latencies are off
/// here so that rounds stay aligned; the rows above cover the delayed path.
#[test]
fn reissued_rounds_match_the_never_eliding_engine() {
    let aligned = |incremental: bool, coalesce: bool| SimConfig {
        per_hop_latency_s: 0.0,
        startup_latency_s: 0.0,
        ..cfg(incremental, coalesce)
    };
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
            let reference_engine = Simulator::with_config(topo.as_ref(), aligned(false, false));
            let healthy = reference_engine.run(&dag).unwrap();
            // The premise of the row: the fast engine really skips passes.
            let fast = Simulator::with_config(topo.as_ref(), aligned(true, true))
                .run(&dag)
                .unwrap();
            assert_eq!(
                healthy.rate_recomputes, healthy.events,
                "{name}/{workload:?}"
            );
            assert!(
                fast.rate_recomputes < fast.events,
                "{name}/{workload:?}: {} passes for {} events, nothing was elided",
                fast.rate_recomputes,
                fast.events
            );
            let schedules = [
                FaultSchedule::empty(),
                schedule_for(topo.as_ref(), &healthy),
            ];
            for (schedule, policy) in schedules
                .iter()
                .flat_map(|s| RecoveryPolicy::ALL.map(|p| (s, p)))
            {
                let label = format!(
                    "{name}/{workload:?}/{policy:?}/{} fault events",
                    schedule.events().len()
                );
                let modes = MODES.map(|(inc, coal)| {
                    (
                        format!("incremental={inc} coalesce={coal}"),
                        aligned(inc, coal),
                    )
                });
                assert_candidates_match_reference(
                    &label,
                    topo.as_ref(),
                    &dag,
                    (schedule, policy),
                    aligned(false, false),
                    &modes,
                );
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
