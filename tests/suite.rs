//! Integration tests for the parallel experiment-suite runner: serial vs
//! parallel determinism, panic isolation through the public API, and the
//! (ignored-by-default) multi-core speedup check.

use exaflow::prelude::*;

/// A 32-config mixed suite at test scale: four topology families, several
/// workloads (including seeded random traffic and seeded random mappings)
/// and seeded failure injection — everything that could go non-deterministic
/// under parallel execution.
fn mixed_suite() -> Vec<ExperimentConfig> {
    let scale = SystemScale::new(64).unwrap();
    let topologies = [
        scale.torus_spec(),
        scale.fattree_spec(),
        scale.nested_spec(UpperTierKind::Fattree, 2, 4).unwrap(),
        scale
            .nested_spec(UpperTierKind::GeneralizedHypercube, 2, 4)
            .unwrap(),
    ];
    let mut configs = Vec::new();
    for (i, topology) in topologies.iter().cycle().take(32).enumerate() {
        let seed = i as u64 + 1;
        let workload = match i % 4 {
            0 => WorkloadSpec::AllReduce {
                tasks: 32,
                bytes: 1 << 16,
            },
            1 => WorkloadSpec::UnstructuredApp {
                tasks: 48,
                flows_per_task: 2,
                bytes: 1 << 16,
                seed,
            },
            2 => WorkloadSpec::Bisection {
                tasks: 32,
                rounds: 2,
                bytes: 1 << 14,
                seed,
            },
            _ => WorkloadSpec::Reduce {
                tasks: 24,
                bytes: 1 << 16,
            },
        };
        let mapping = match i % 3 {
            0 => MappingSpec::Linear,
            1 => MappingSpec::Random { seed },
            _ => MappingSpec::Strided { stride: 1 },
        };
        let failures = if i % 5 == 0 {
            Some(FailureSpec { count: 2, seed })
        } else {
            None
        };
        configs.push(ExperimentConfig {
            topology: topology.clone(),
            workload,
            mapping,
            sim: SimConfig::default(),
            failures,
            fault_injection: None,
        });
    }
    configs
}

#[derive(PartialEq, Debug)]
struct Signature {
    makespan_seconds: Vec<f64>,
    flows: Vec<u64>,
    events: Vec<u64>,
}

fn signature(results: &[Result<ExperimentResult, ExperimentError>]) -> Signature {
    let ok =
        |r: &Result<ExperimentResult, ExperimentError>| r.as_ref().expect("experiment").clone();
    Signature {
        makespan_seconds: results.iter().map(|r| ok(r).makespan_seconds).collect(),
        flows: results.iter().map(|r| ok(r).flows).collect(),
        events: results.iter().map(|r| ok(r).events).collect(),
    }
}

/// Serial and 8-way parallel runs of the same 32-config suite must agree
/// bit-for-bit: all randomness (mappings, traffic, failures) is seeded, so
/// scheduling order must not leak into results.
#[test]
fn suite_deterministic_across_thread_counts() {
    let configs = mixed_suite();
    assert_eq!(configs.len(), 32);
    let serial = ExperimentSuite::new(configs.clone()).threads(1).run();
    let parallel = ExperimentSuite::new(configs).threads(8).run();
    assert_eq!(serial.report.threads, 1);
    assert_eq!(parallel.report.threads, 8);
    assert_eq!(serial.report.succeeded, 32);
    assert_eq!(parallel.report.succeeded, 32);
    // Bit-identical, not approximately equal: same f64s, same counters.
    assert_eq!(signature(&serial.results), signature(&parallel.results));
}

/// One bad config (a strided mapping overflowing the endpoint range — a
/// spec that used to trip an assert mid-experiment and now fails spec
/// validation) yields a typed `Err` entry; every other experiment still
/// completes with correct results. Panic capture itself is covered by the
/// pool's `scoped_map_catches_panics` unit test in `exaflow-analysis`,
/// since no experiment config panics anymore.
#[test]
fn failing_config_is_isolated() {
    let scale = SystemScale::new(64).unwrap();
    let good = |tasks: usize| ExperimentConfig {
        topology: scale.torus_spec(),
        workload: WorkloadSpec::AllReduce {
            tasks,
            bytes: 1 << 16,
        },
        mapping: MappingSpec::Linear,
        sim: SimConfig::default(),
        failures: None,
        fault_injection: None,
    };
    let mut bad = good(32);
    // 32 tasks * stride 1000 >> 64 endpoints: rejected by mapping
    // validation after the cheap tasks-vs-endpoints check has passed.
    bad.mapping = MappingSpec::Strided { stride: 1000 };

    let run = ExperimentSuite::new(vec![good(16), bad, good(32)])
        .threads(2)
        .run();
    assert!(run.results[0].is_ok());
    let err = run.results[1].as_ref().unwrap_err();
    assert!(
        matches!(err, ExperimentError::InvalidMapping { .. }),
        "unexpected error variant: {err:?}"
    );
    assert!(err.to_string().contains("stride"), "{err}");
    assert!(run.results[2].is_ok());
    // Neighbours are unaffected and in input order: recursive-doubling
    // AllReduce gives n·log2(n) flows.
    assert_eq!(run.results[0].as_ref().unwrap().flows, 64);
    assert_eq!(run.results[2].as_ref().unwrap().flows, 160);
    assert_eq!(run.report.failed, 1);
    assert_eq!(run.report.succeeded, 2);
}

/// Suite metrics describe the run: totals match the per-experiment results
/// and the report survives a JSON round-trip.
#[test]
fn suite_report_matches_results() {
    let configs = mixed_suite().into_iter().take(8).collect::<Vec<_>>();
    let run = ExperimentSuite::new(configs).threads(4).run();
    let events: u64 = run.results.iter().map(|r| r.as_ref().unwrap().events).sum();
    let flows: u64 = run.results.iter().map(|r| r.as_ref().unwrap().flows).sum();
    assert_eq!(run.report.events, events);
    assert_eq!(run.report.flows, flows);
    assert_eq!(run.report.per_experiment_wall_seconds.len(), 8);
    assert!(run.report.wall_seconds > 0.0);
    assert!(run.report.events_per_second > 0.0);

    let json = serde_json::to_string(&run.report).unwrap();
    let back: SuiteReport = serde_json::from_str(&json).unwrap();
    // Topology-cache stats are in-memory provenance and never serialize:
    // report files must stay byte-identical cache-on vs cache-off.
    assert!(!json.contains("topo_cache"), "{json}");
    assert_eq!(back.topo_cache, None);
    let mut expect = run.report.clone();
    expect.topo_cache = None;
    assert_eq!(back, expect);
}

fn tiny_config(scale: &SystemScale) -> ExperimentConfig {
    ExperimentConfig {
        topology: scale.torus_spec(),
        workload: WorkloadSpec::AllReduce {
            tasks: 32,
            bytes: 1 << 16,
        },
        mapping: MappingSpec::Linear,
        sim: SimConfig::default(),
        failures: None,
        fault_injection: None,
    }
}

/// An entry that blows its wall-clock deadline runs once and fails with a
/// bare `DeadlineExceeded` in its own slot: there is no quarantine wrapper
/// and no attempt history any more, and the healthy neighbour still succeeds.
#[test]
fn deadline_overruns_quarantine_with_attempt_history() {
    let scale = SystemScale::new(64).unwrap();
    let mut doomed = tiny_config(&scale);
    doomed.sim.max_wall_s = Some(1e-12);

    let run = ExperimentSuite::new(vec![tiny_config(&scale), doomed])
        .threads(1)
        .run();
    assert!(run.results[0].is_ok());
    match run.results[1].as_ref().unwrap_err() {
        ExperimentError::Sim {
            sim: SimError::DeadlineExceeded { .. },
        } => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(run.report.succeeded, 1);
    assert_eq!(run.report.failed, 1);
}

/// Budget exhaustion is deterministic, and every entry runs exactly once:
/// the capped entry reports the budget it hit as a typed error.
#[test]
fn exhausted_event_budgets_are_not_retried() {
    let scale = SystemScale::new(64).unwrap();
    let mut capped = tiny_config(&scale);
    capped.sim.max_events = Some(1);

    let run = ExperimentSuite::new(vec![capped]).threads(1).run();
    match run.results[0].as_ref().unwrap_err() {
        ExperimentError::Sim {
            sim: SimError::BudgetExhausted { max_events, .. },
        } => assert_eq!(*max_events, 1),
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(run.report.succeeded, 0);
    assert_eq!(run.report.failed, 1);
    assert_eq!(run.report.per_experiment_wall_seconds.len(), 1);
}

/// Library-level resume: journal half the campaign, then resume the full
/// one — results and deterministic report fields must be identical to an
/// uninterrupted run, and already-journaled entries must not re-run.
#[test]
fn journaled_suite_resumes_to_identical_results() {
    let path =
        std::env::temp_dir().join(format!("exaflow-suite-resume-{}.jsonl", std::process::id()));
    let configs = mixed_suite().into_iter().take(4).collect::<Vec<_>>();

    // Phase 1: a "crashed" campaign that only finished the first half.
    let half = ExperimentSuite::new(configs[..2].to_vec())
        .threads(2)
        .run_journaled(&path, false)
        .unwrap();
    assert_eq!(half.report.succeeded, 2);
    assert_eq!(read_journal(&path).unwrap().len(), 2);

    // Phase 2: resume over the full config list.
    let resumed = ExperimentSuite::new(configs.clone())
        .threads(2)
        .run_journaled(&path, true)
        .unwrap();
    assert_eq!(read_journal(&path).unwrap().len(), 4);

    let reference = ExperimentSuite::new(configs).threads(2).run();
    assert_eq!(signature(&resumed.results), signature(&reference.results));
    assert_eq!(resumed.report.succeeded, reference.report.succeeded);
    assert_eq!(resumed.report.failed, reference.report.failed);
    assert_eq!(resumed.report.events, reference.report.events);
    assert_eq!(resumed.report.flows, reference.report.flows);
    assert_eq!(
        resumed.report.maxmin_iterations,
        reference.report.maxmin_iterations
    );

    // Resuming again re-runs nothing and reproduces the same results.
    let replay = ExperimentSuite::new(mixed_suite().into_iter().take(4).collect::<Vec<_>>())
        .threads(2)
        .run_journaled(&path, true)
        .unwrap();
    assert_eq!(read_journal(&path).unwrap().len(), 4);
    assert_eq!(signature(&replay.results), signature(&reference.results));
    std::fs::remove_file(&path).ok();
}

/// Multi-core speedup: 8 workers should finish the 32-config suite at
/// least 1.5x faster than 1 worker (conservative; ~3x is typical on 4+
/// cores). Ignored by default so single-core CI stays stable — run with
/// `cargo test -- --ignored` on a multi-core host.
#[test]
#[ignore = "requires a multi-core host; run explicitly with -- --ignored"]
fn parallel_suite_speeds_up() {
    let configs = mixed_suite();
    let serial = ExperimentSuite::new(configs.clone()).threads(1).run();
    let parallel = ExperimentSuite::new(configs).threads(8).run();
    let speedup = serial.report.wall_seconds / parallel.report.wall_seconds;
    assert!(
        speedup >= 1.5,
        "expected >= 1.5x speedup with 8 threads, got {speedup:.2}x \
         ({:.3}s serial vs {:.3}s parallel)",
        serial.report.wall_seconds,
        parallel.report.wall_seconds
    );
}
