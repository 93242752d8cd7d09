//! End-to-end error-path coverage: a suite mixing valid and differently
//! invalid experiments must complete, with each failure reported as the
//! right [`ExperimentError`] variant — never an abort, never a panic
//! escaping an entry, never a failure poisoning its neighbours.

use exaflow::prelude::*;

fn valid() -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologySpec::Torus { dims: vec![4, 4] },
        workload: WorkloadSpec::AllReduce {
            tasks: 16,
            bytes: 1 << 16,
        },
        mapping: MappingSpec::Linear,
        sim: SimConfig::default(),
        failures: None,
        fault_injection: None,
    }
}

#[test]
fn mixed_suite_reports_typed_errors_per_entry() {
    let mut invalid_topology = valid();
    invalid_topology.topology = TopologySpec::Torus { dims: vec![] };

    let mut nan_config = valid();
    nan_config.sim.batch_epsilon = f64::NAN;

    let mut zero_rate = valid();
    zero_rate.sim.injection_bps = 0.0;

    let mut too_many_tasks = valid();
    too_many_tasks.workload = WorkloadSpec::AllReduce {
        tasks: 64,
        bytes: 1 << 16,
    };

    let mut zero_failures = valid();
    zero_failures.failures = Some(FailureSpec { count: 0, seed: 1 });

    // More failures than the topology has safely removable cables: an
    // inconsistent spec, rejected at the boundary (no silent clamping).
    let mut oversized_failures = valid();
    oversized_failures.workload = WorkloadSpec::Reduce { tasks: 1, bytes: 1 };
    oversized_failures.failures = Some(FailureSpec {
        count: 10_000,
        seed: 2,
    });

    let configs = vec![
        valid(),
        invalid_topology,
        nan_config,
        zero_rate,
        too_many_tasks,
        zero_failures,
        oversized_failures,
        valid(),
    ];
    let n = configs.len() as u64;
    let run = ExperimentSuite::new(configs).threads(4).run();

    assert!(run.results[0].is_ok());
    assert!(matches!(
        run.results[1].as_ref().unwrap_err(),
        ExperimentError::InvalidTopology { .. }
    ));
    match run.results[2].as_ref().unwrap_err() {
        ExperimentError::Sim {
            sim: SimError::InvalidConfig { field, value, .. },
        } => {
            assert_eq!(field, "batch_epsilon");
            assert_eq!(value, "NaN");
        }
        other => panic!("expected nested InvalidConfig, got {other:?}"),
    }
    match run.results[3].as_ref().unwrap_err() {
        ExperimentError::Sim {
            sim: SimError::InvalidConfig { field, .. },
        } => assert_eq!(field, "injection_bps"),
        other => panic!("expected nested InvalidConfig, got {other:?}"),
    }
    assert!(matches!(
        run.results[4].as_ref().unwrap_err(),
        ExperimentError::TooManyTasks {
            tasks: 64,
            endpoints: 16,
            ..
        }
    ));
    assert!(matches!(
        run.results[5].as_ref().unwrap_err(),
        ExperimentError::InvalidFailures { .. }
    ));
    match run.results[6].as_ref().unwrap_err() {
        ExperimentError::InvalidFailures { reason } => {
            assert!(reason.contains("10000"), "{reason}");
        }
        other => panic!("expected InvalidFailures, got {other:?}"),
    }
    assert!(run.results[7].is_ok());

    // Failures never bleed into neighbours or abort the suite.
    assert_eq!(run.report.experiments, n);
    assert_eq!(run.report.succeeded, 2);
    assert_eq!(run.report.failed, n - 2);
    // The two healthy AllReduce entries agree bit-for-bit: errors in
    // between did not perturb scheduling-visible state.
    assert_eq!(
        run.results[0].as_ref().unwrap().makespan_seconds,
        run.results[7].as_ref().unwrap().makespan_seconds
    );
}

/// Workload and mapping specs a generator would `assert!` on must surface
/// as typed errors from `run_experiment`, not panics.
#[test]
fn invalid_workload_and_mapping_specs_are_typed_errors() {
    let mut odd_allreduce = valid();
    odd_allreduce.workload = WorkloadSpec::AllReduce { tasks: 6, bytes: 1 };

    let mut zero_grid = valid();
    zero_grid.workload = WorkloadSpec::Sweep3d {
        gx: 0,
        gy: 2,
        gz: 2,
        bytes: 1,
    };

    let mut zero_waves = valid();
    zero_waves.workload = WorkloadSpec::Flood {
        gx: 2,
        gy: 2,
        gz: 2,
        bytes: 1,
        waves: 0,
    };

    let mut bad_fraction = valid();
    bad_fraction.workload = WorkloadSpec::UnstructuredHr {
        tasks: 8,
        flows_per_task: 2,
        bytes: 1,
        hot_fraction: 2.0,
        hot_probability: 0.5,
        seed: 0,
    };

    let mut odd_bisection = valid();
    odd_bisection.workload = WorkloadSpec::Bisection {
        tasks: 7,
        rounds: 1,
        bytes: 1,
        seed: 0,
    };

    for cfg in [
        odd_allreduce,
        zero_grid,
        zero_waves,
        bad_fraction,
        odd_bisection,
    ] {
        match run_experiment(&cfg).unwrap_err() {
            ExperimentError::InvalidWorkload { reason } => assert!(!reason.is_empty()),
            other => panic!(
                "{:?}: expected InvalidWorkload, got {other:?}",
                cfg.workload
            ),
        }
    }

    // A stride of zero, and a stride that walks off the endpoint range,
    // are mapping errors (the workload itself is fine).
    for stride in [0usize, 2] {
        let mut cfg = valid(); // 16 tasks on 16 endpoints
        cfg.mapping = MappingSpec::Strided { stride };
        match run_experiment(&cfg).unwrap_err() {
            ExperimentError::InvalidMapping { reason } => {
                assert!(!reason.is_empty(), "stride={stride}")
            }
            other => panic!("stride={stride}: expected InvalidMapping, got {other:?}"),
        }
    }
    // The boundary case still runs: 8 tasks at stride 2 on 16 endpoints.
    let mut ok = valid();
    ok.workload = WorkloadSpec::AllReduce {
        tasks: 8,
        bytes: 1 << 16,
    };
    ok.mapping = MappingSpec::Strided { stride: 2 };
    assert!(run_experiment(&ok).is_ok());
}

/// Topology specs whose endpoint arithmetic would overflow (or whose
/// explicit endpoint override is out of range) are typed errors too.
#[test]
fn overflowing_topology_specs_are_typed_errors() {
    let cases = [
        TopologySpec::Torus {
            dims: vec![1 << 16, 1 << 16, 1 << 16],
        },
        TopologySpec::Torus {
            dims: vec![4, 0, 4],
        },
        TopologySpec::Fattree {
            k: 100,
            n: 20,
            endpoints: None,
        },
        TopologySpec::Fattree {
            k: 4,
            n: 2,
            endpoints: Some(17),
        },
        TopologySpec::Fattree {
            k: 4,
            n: 2,
            endpoints: Some(0),
        },
        TopologySpec::Ghc {
            dims: vec![1 << 20, 1 << 20],
            ports_per_router: 4,
            endpoints: None,
        },
        TopologySpec::Ghc {
            dims: vec![4, 4],
            ports_per_router: 2,
            endpoints: Some(33),
        },
        TopologySpec::Nested {
            upper: UpperTierKind::Fattree,
            subtori: 0,
            t: 2,
            u: 4,
        },
        TopologySpec::Nested {
            upper: UpperTierKind::Fattree,
            subtori: u64::MAX,
            t: 4,
            u: 4,
        },
    ];
    for spec in cases {
        match spec.build().map(|t| t.name()) {
            Err(ExperimentError::InvalidTopology { reason }) => {
                assert!(!reason.is_empty())
            }
            other => panic!("{spec:?}: expected InvalidTopology, got {other:?}"),
        }
    }
}

#[test]
fn suite_errors_serialize_as_tagged_json() {
    let mut bad = valid();
    bad.sim.batch_epsilon = -1.0;
    let run = ExperimentSuite::new(vec![bad]).threads(1).run();
    let err = run.results[0].as_ref().unwrap_err();
    let json = serde_json::to_string(err).unwrap();
    assert!(json.contains("\"kind\":\"sim\""), "{json}");
    assert!(json.contains("\"kind\":\"invalid_config\""), "{json}");
    assert!(json.contains("batch_epsilon"), "{json}");
    let back: ExperimentError = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, err);
}

/// A value of the wrong type fails to parse with the key path that holds
/// it before the type error, so a file with one bad key says which one.
#[test]
fn parse_errors_name_the_key_that_holds_the_bad_value() {
    let torus = r#""topology": {"topology": "torus", "dims": [4, 4]}"#;
    let cases = [
        (
            format!(
                r#"{{{torus}, "workload": {{"workload": "reduce", "tasks": 8, "bytes": 1024}},
                "sim": {{"injection_bps": null, "ejection_bps": 1e10, "batch_epsilon": 1e-9}}}}"#
            ),
            "sim: injection_bps: invalid type: expected number, found null",
        ),
        (
            format!(
                r#"{{{torus}, "workload": {{"workload": "reduce", "tasks": "8", "bytes": 1024}}}}"#
            ),
            "workload: tasks: invalid type: expected unsigned integer, found string",
        ),
    ];
    for (json, want) in cases {
        let err = serde_json::from_str::<ExperimentConfig>(&json).unwrap_err();
        assert_eq!(err.to_string(), want, "{json}");
    }
}

#[test]
fn partitioned_network_is_unreachable_error() {
    // Force a partition deterministically: on a 1-D ring, cut both
    // directions of two cables for the whole run, splitting {0,3} from
    // {1,2}.
    use exaflow::sim::FlowDagBuilder;
    let ring = Torus::new(&[4]);
    let net = ring.network();
    let mut cut = Vec::new();
    for (a, b) in [(0u32, 1u32), (2, 3)] {
        cut.push(net.find_link(NodeId(a), NodeId(b)).unwrap());
        cut.push(net.find_link(NodeId(b), NodeId(a)).unwrap());
    }
    let schedule = FaultSchedule::empty().with_failed_links(cut);
    let mut b = FlowDagBuilder::new();
    b.add_flow(NodeId(0), NodeId(1), 1 << 20, &[]);
    let err = Simulator::new(&ring)
        .run_with(&b.build(), &schedule, RecoveryPolicy::default(), None)
        .unwrap_err();
    assert!(
        matches!(
            err,
            SimError::Unreachable {
                src: 0,
                dst: 1,
                failed_links: 4,
                ..
            }
        ),
        "{err:?}"
    );
}
