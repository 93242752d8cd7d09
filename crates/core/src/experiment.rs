//! Declarative experiments: topology × workload × mapping × engine config.

use crate::error::ExperimentError;
use crate::topocache::TopoCache;
use crate::topospec::TopologySpec;
use exaflow_netgraph::LinkId;
use exaflow_sim::{
    random_cable_failures, FaultSchedule, FaultScheduleSpec, MetricsSnapshot, RecoveryPolicy,
    SimConfig, SimReport, Simulator, TraceSink,
};
use exaflow_topo::{failed_links_name, Topology};
use exaflow_workloads::{TaskMapping, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Task placement policy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "mapping", rename_all = "snake_case")]
#[derive(Default)]
pub enum MappingSpec {
    /// Task `i` → endpoint `i`.
    #[default]
    Linear,
    /// Task `i` → endpoint `i·stride`.
    Strided { stride: usize },
    /// Uniform random placement, collision-free.
    Random { seed: u64 },
}

impl MappingSpec {
    /// Whether this placement can host `tasks` tasks on `endpoints`
    /// endpoints, with the reason when it cannot. `tasks <= endpoints` is
    /// assumed (checked separately as [`ExperimentError::TooManyTasks`]);
    /// this covers the constraints [`build`](Self::build) would otherwise
    /// `assert!` on.
    pub fn validate(&self, tasks: usize, endpoints: usize) -> Result<(), String> {
        match *self {
            MappingSpec::Linear | MappingSpec::Random { .. } => Ok(()),
            MappingSpec::Strided { stride } => {
                if stride == 0 {
                    return Err("stride must be >= 1".into());
                }
                match tasks.checked_mul(stride) {
                    Some(span) if span <= endpoints => Ok(()),
                    _ => Err(format!(
                        "{tasks} tasks with stride {stride} exceed {endpoints} endpoints"
                    )),
                }
            }
        }
    }

    /// Materialise the mapping table.
    pub fn build(&self, tasks: usize, endpoints: usize) -> TaskMapping {
        match *self {
            MappingSpec::Linear => TaskMapping::linear(tasks, endpoints),
            MappingSpec::Strided { stride } => TaskMapping::strided(tasks, endpoints, stride),
            MappingSpec::Random { seed } => TaskMapping::random(tasks, endpoints, seed),
        }
    }
}

/// A fully-specified experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The network under test.
    pub topology: TopologySpec,
    /// The traffic.
    pub workload: WorkloadSpec,
    /// Task placement (default linear).
    #[serde(default)]
    pub mapping: MappingSpec,
    /// Engine configuration (default: 10 Gbps NICs, exact batching).
    #[serde(default = "default_sim_config")]
    pub sim: SimConfig,
    /// Optional link-failure injection (extension; see
    /// `exaflow_topo::failures`): `count` random cables fail before the run
    /// starts and stay down until it ends.
    #[serde(default)]
    pub failures: Option<FailureSpec>,
    /// Optional *mid-run* fault injection: a schedule of link-down/link-up
    /// events consumed while the workload executes, with a recovery policy
    /// for interrupted flows. Composes with `failures` (static failures
    /// stay down for the whole run; scheduled faults come and go).
    #[serde(default)]
    pub fault_injection: Option<FaultInjectionSpec>,
}

/// Random cable failures, down for the whole run (picked by
/// [`exaflow_sim::random_cable_failures`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureSpec {
    /// Number of duplex cables to fail.
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Mid-run fault injection: what fails when, and how flows recover.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultInjectionSpec {
    /// How interrupted flows recover (default: reroute and resume).
    #[serde(default)]
    pub policy: RecoveryPolicy,
    /// The fault events: explicit, or Poisson-generated from a seed.
    pub schedule: FaultScheduleSpec,
}

fn default_sim_config() -> SimConfig {
    SimConfig::default()
}

/// The outcome of one experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Topology display name.
    pub topology: String,
    /// Workload name.
    pub workload: String,
    /// Completion time, seconds.
    pub makespan_seconds: f64,
    /// Flows simulated.
    pub flows: u64,
    /// Completion events processed.
    pub events: u64,
    /// Progressive-filling freeze iterations across all events (engine
    /// effort; absent in pre-suite result files).
    #[serde(default)]
    pub maxmin_iterations: u64,
    /// Wall-clock seconds the simulation itself took.
    pub wall_seconds: f64,
    /// Duplex cables the [`FailureSpec`] asked to fail (0 without one).
    #[serde(default)]
    pub failed_cables_requested: u64,
    /// Duplex cables actually failed. Always equals
    /// `failed_cables_requested` now that an unsatisfiable request is a
    /// typed [`ExperimentError::InvalidFailures`]; kept for result-file
    /// compatibility.
    #[serde(default)]
    pub failed_cables_applied: u64,
    /// Flows dropped by the `skip_unreachable` recovery policy (0 without
    /// mid-run fault injection).
    #[serde(default)]
    pub skipped_flows: u64,
    /// Scheduled fault events that actually fired during the run.
    #[serde(default)]
    pub fault_events_applied: u64,
    /// Water-filling passes the solver executed (effort metric; see
    /// [`exaflow_sim::SimReport::rate_recomputes`]).
    #[serde(default)]
    pub rate_recomputes: u64,
    /// Flows coalesced into identical-path solver entries (absent in
    /// pre-incremental result files).
    #[serde(default)]
    pub flows_coalesced: u64,
    /// Engine counters, present only when the experiment ran with tracing
    /// ([`SimConfig::trace`] or a sink passed to [`run_experiment_with`]);
    /// untraced result files are byte-identical to pre-tracing ones.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<MetricsSnapshot>,
}

/// Build the topology, generate the workload, simulate, report.
///
/// Every inconsistent configuration — invalid topology parameters, a
/// malformed engine config, more tasks than endpoints, a failure spec
/// that cannot apply, a simulation-level failure — is a typed
/// [`ExperimentError`], so bulk drivers can report *which* grid point
/// failed and *why* without string matching.
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<ExperimentResult, ExperimentError> {
    run_experiment_with(cfg, None, None)
}

/// The full form of [`run_experiment`]: optional shared topology cache,
/// optional trace sink.
///
/// With a [`TopoCache`], campaign workers hammering the same spec build it
/// once and share the immutable result. Bit-identical to the uncached path
/// — the cache only changes *who built* the topology, never what it is.
///
/// With a sink, engine trace events stream into it. A sink implies
/// tracing, so the result carries [`ExperimentResult::metrics`];
/// `cfg.sim.trace` alone collects metrics without an event stream.
pub fn run_experiment_with(
    cfg: &ExperimentConfig,
    cache: Option<&TopoCache>,
    sink: Option<&mut dyn TraceSink>,
) -> Result<ExperimentResult, ExperimentError> {
    // Reject a malformed engine config before paying for topology
    // construction; the engine re-checks at `run` as a second line.
    cfg.sim.validate().map_err(ExperimentError::from)?;
    // Likewise reject a workload whose generator would panic: the specs
    // validate their own parameters before any DAG is built.
    cfg.workload
        .validate()
        .map_err(|reason| ExperimentError::InvalidWorkload { reason })?;
    let topo: Arc<dyn Topology> = match cache {
        Some(cache) => cache.get_or_build(&cfg.topology)?.0,
        None => Arc::from(cfg.topology.build()?),
    };
    let (cables, failed, name) = match cfg.failures {
        Some(f) => {
            if f.count == 0 {
                return Err(ExperimentError::InvalidFailures {
                    reason: "failure count must be > 0 (omit the failures field for a healthy run)"
                        .into(),
                });
            }
            let cut = random_cable_failures(topo.network(), f.count, f.seed);
            let failed: Vec<LinkId> = cut
                .iter()
                .flat_map(|&(fwd, rev)| std::iter::once(fwd).chain(rev))
                .collect();
            let name = failed_links_name(&topo.name(), failed.len());
            if cut.len() < f.count {
                // Silently measuring a milder scenario than configured
                // would corrupt a resilience sweep; refuse instead.
                return Err(ExperimentError::InvalidFailures {
                    reason: format!(
                        "requested {} cable failures but only {} cables are safely \
                         removable on {name}",
                        f.count,
                        cut.len()
                    ),
                });
            }
            (cut.len() as u64, failed, name)
        }
        None => (0, Vec::new(), topo.name()),
    };
    let tasks = cfg.workload.num_tasks();
    if tasks > topo.num_endpoints() {
        return Err(ExperimentError::TooManyTasks {
            tasks: tasks as u64,
            endpoints: topo.num_endpoints() as u64,
            topology: name,
        });
    }
    cfg.mapping
        .validate(tasks, topo.num_endpoints())
        .map_err(|reason| ExperimentError::InvalidMapping { reason })?;
    let mapping = cfg.mapping.build(tasks, topo.num_endpoints());
    let dag = cfg.workload.generate(&mapping);
    // Generators wire their network on first use; do it before the clock
    // starts, so `wall_seconds` times the simulation, not construction.
    topo.network();
    let started = std::time::Instant::now();
    let simulator = Simulator::with_config(&*topo, cfg.sim.clone());
    let (schedule, policy) = match &cfg.fault_injection {
        Some(fi) => (fi.schedule.build(topo.network())?, fi.policy),
        None => (FaultSchedule::empty(), RecoveryPolicy::default()),
    };
    // The cut cables are down for the whole run, beside the scheduled
    // faults, in the engine's one failure overlay.
    let schedule = schedule.with_failed_links(failed);
    let report: SimReport = simulator.run_with(&dag, &schedule, policy, sink)?;
    Ok(ExperimentResult {
        topology: name,
        workload: cfg.workload.name().to_owned(),
        makespan_seconds: report.makespan_seconds,
        flows: report.flows,
        events: report.events,
        maxmin_iterations: report.maxmin_iterations,
        wall_seconds: started.elapsed().as_secs_f64(),
        failed_cables_requested: cables,
        failed_cables_applied: cables,
        skipped_flows: report.skipped_flows,
        fault_events_applied: report.fault_events_applied,
        rate_recomputes: report.rate_recomputes,
        flows_coalesced: report.flows_coalesced,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExperimentError;
    use exaflow_topo::UpperTierKind;

    fn reduce_cfg(topology: TopologySpec) -> ExperimentConfig {
        ExperimentConfig {
            topology,
            workload: WorkloadSpec::Reduce {
                tasks: 16,
                bytes: 1 << 20,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        }
    }

    #[test]
    fn reduce_is_topology_insensitive() {
        // The paper's observation: Reduce serialises at the root's
        // consumption port, so all networks score (nearly) the same.
        let topologies = [
            TopologySpec::Torus {
                dims: vec![4, 2, 2],
            },
            TopologySpec::Fattree {
                k: 4,
                n: 2,
                endpoints: None,
            },
            TopologySpec::Nested {
                upper: UpperTierKind::GeneralizedHypercube,
                subtori: 2,
                t: 2,
                u: 2,
            },
        ];
        let times: Vec<f64> = topologies
            .iter()
            .map(|t| {
                run_experiment(&reduce_cfg(t.clone()))
                    .unwrap()
                    .makespan_seconds
            })
            .collect();
        for w in times.windows(2) {
            assert!((w[0] - w[1]).abs() / w[0] < 1e-6, "{times:?}");
        }
    }

    #[test]
    fn too_many_tasks_rejected() {
        let cfg = ExperimentConfig {
            topology: TopologySpec::Torus { dims: vec![2, 2] },
            workload: WorkloadSpec::Reduce {
                tasks: 16,
                bytes: 1,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        };
        let err = run_experiment(&cfg).unwrap_err();
        assert!(
            matches!(
                err,
                ExperimentError::TooManyTasks {
                    tasks: 16,
                    endpoints: 4,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn zero_failure_count_is_invalid() {
        let mut cfg = reduce_cfg(TopologySpec::Torus { dims: vec![4, 4] });
        cfg.failures = Some(FailureSpec { count: 0, seed: 1 });
        let err = run_experiment(&cfg).unwrap_err();
        assert!(
            matches!(err, ExperimentError::InvalidFailures { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_sim_config_rejected_before_building() {
        let mut cfg = reduce_cfg(TopologySpec::Torus { dims: vec![4, 4] });
        cfg.sim.ejection_bps = f64::NEG_INFINITY;
        let err = run_experiment(&cfg).unwrap_err();
        match err {
            ExperimentError::Sim {
                sim: exaflow_sim::SimError::InvalidConfig { field, .. },
            } => assert_eq!(field, "ejection_bps"),
            other => panic!("expected nested InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn result_records_applied_failure_count() {
        let mut cfg = reduce_cfg(TopologySpec::Torus { dims: vec![4, 4] });
        cfg.workload = WorkloadSpec::Reduce {
            tasks: 8,
            bytes: 1 << 16,
        };
        cfg.failures = Some(FailureSpec { count: 2, seed: 5 });
        let res = run_experiment(&cfg).unwrap();
        assert_eq!(res.failed_cables_requested, 2);
        assert_eq!(res.failed_cables_applied, 2);

        // An oversized request is a typed error at the spec boundary — the
        // run must not silently measure a milder scenario than configured.
        cfg.workload = WorkloadSpec::Reduce { tasks: 1, bytes: 1 };
        cfg.failures = Some(FailureSpec {
            count: 1000,
            seed: 5,
        });
        let err = run_experiment(&cfg).unwrap_err();
        match err {
            ExperimentError::InvalidFailures { reason } => {
                assert!(reason.contains("1000"), "{reason}");
            }
            other => panic!("expected InvalidFailures, got {other:?}"),
        }
    }

    #[test]
    fn mapping_specs_build() {
        assert_eq!(MappingSpec::Linear.build(4, 8).node_of(3).0, 3);
        assert_eq!(
            MappingSpec::Strided { stride: 2 }.build(4, 8).node_of(3).0,
            6
        );
        let r = MappingSpec::Random { seed: 1 }.build(4, 8);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn failures_slow_things_down_but_complete() {
        let base = ExperimentConfig {
            topology: TopologySpec::Torus { dims: vec![4, 4] },
            workload: WorkloadSpec::UnstructuredApp {
                tasks: 16,
                flows_per_task: 4,
                bytes: 1 << 20,
                seed: 2,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        };
        let healthy = run_experiment(&base).unwrap().makespan_seconds;
        let mut broken = base.clone();
        broken.failures = Some(FailureSpec { count: 6, seed: 3 });
        let degraded = run_experiment(&broken).unwrap().makespan_seconds;
        assert!(degraded >= healthy, "{degraded} < {healthy}");
    }

    #[test]
    fn fault_injection_with_zero_rate_matches_fault_free_run() {
        let mut cfg = reduce_cfg(TopologySpec::Torus { dims: vec![4, 4] });
        cfg.workload = WorkloadSpec::UnstructuredApp {
            tasks: 16,
            flows_per_task: 4,
            bytes: 1 << 20,
            seed: 2,
        };
        let plain = run_experiment(&cfg).unwrap();
        cfg.fault_injection = Some(FaultInjectionSpec {
            policy: RecoveryPolicy::RerouteResume,
            schedule: FaultScheduleSpec::Explicit { events: vec![] },
        });
        let faulted = run_experiment(&cfg).unwrap();
        assert_eq!(plain.makespan_seconds, faulted.makespan_seconds);
        assert_eq!(plain.events, faulted.events);
        assert_eq!(faulted.fault_events_applied, 0);
        assert_eq!(faulted.skipped_flows, 0);
    }

    #[test]
    fn fault_injection_random_schedule_perturbs_the_run() {
        let mut cfg = reduce_cfg(TopologySpec::Torus { dims: vec![4, 4] });
        cfg.workload = WorkloadSpec::UnstructuredApp {
            tasks: 16,
            flows_per_task: 8,
            bytes: 1 << 22,
            seed: 2,
        };
        let healthy = run_experiment(&cfg).unwrap();
        cfg.fault_injection = Some(FaultInjectionSpec {
            policy: RecoveryPolicy::RerouteRestart,
            schedule: FaultScheduleSpec::Random {
                seed: 11,
                rate_per_s: 500.0,
                horizon_s: healthy.makespan_seconds,
                repair_s: Some(healthy.makespan_seconds / 10.0),
            },
        });
        let faulted = run_experiment(&cfg).unwrap();
        assert!(faulted.fault_events_applied > 0);
        assert!(
            faulted.makespan_seconds >= healthy.makespan_seconds,
            "{} < {}",
            faulted.makespan_seconds,
            healthy.makespan_seconds
        );
        // Determinism: the same config reproduces the same result.
        let again = run_experiment(&cfg).unwrap();
        assert_eq!(faulted.makespan_seconds, again.makespan_seconds);
        assert_eq!(faulted.fault_events_applied, again.fault_events_applied);
    }

    fn composed_faults_cfg(
        topology: TopologySpec,
        failures: FailureSpec,
        policy: RecoveryPolicy,
    ) -> ExperimentConfig {
        let mut cfg = reduce_cfg(topology);
        cfg.workload = WorkloadSpec::UnstructuredApp {
            tasks: 16,
            flows_per_task: 4,
            bytes: 1 << 20,
            seed: 7,
        };
        cfg.failures = Some(failures);
        cfg.fault_injection = Some(FaultInjectionSpec {
            policy,
            schedule: FaultScheduleSpec::Random {
                seed: 4,
                rate_per_s: 2000.0,
                horizon_s: 0.01,
                repair_s: Some(0.001),
            },
        });
        cfg
    }

    /// Static cable cuts plus a random mid-run schedule: mid-run reroutes
    /// start from routes that already detour the static cuts. Pinned
    /// exactly (name, makespan, faults applied, flows skipped), and a traced
    /// copy passes the topology oracle.
    #[test]
    fn fault_injection_composes_with_static_failures() {
        let fattree = TopologySpec::Fattree {
            k: 4,
            n: 2,
            endpoints: None,
        };
        let cases = [
            (
                TopologySpec::Torus { dims: vec![4, 4] },
                FailureSpec { count: 2, seed: 3 },
                RecoveryPolicy::SkipUnreachable,
                ("Torus(4x4) [4 failed links]", 0.008531704198468645, 82, 0),
            ),
            (
                fattree.clone(),
                FailureSpec { count: 3, seed: 1 },
                RecoveryPolicy::SkipUnreachable,
                (
                    "Fattree(4-ary 2-tree) [6 failed links]",
                    0.0073086282133554255,
                    68,
                    29,
                ),
            ),
            (
                TopologySpec::Nested {
                    upper: UpperTierKind::Fattree,
                    subtori: 2,
                    t: 2,
                    u: 2,
                },
                FailureSpec { count: 3, seed: 2 },
                RecoveryPolicy::RerouteRestart,
                (
                    "NestTree(t=2,u=2) [6 failed links]",
                    0.019730747137041493,
                    104,
                    0,
                ),
            ),
        ];
        for (topology, failures, policy, (name, makespan, applied, skipped)) in cases {
            let cfg = composed_faults_cfg(topology, failures, policy);
            let res = run_experiment(&cfg).unwrap();
            assert_eq!(res.topology, name);
            assert_eq!(res.makespan_seconds, makespan, "{name}");
            assert_eq!(res.fault_events_applied, applied, "{name}");
            assert_eq!(res.skipped_flows, skipped, "{name}");
            assert_eq!(res.failed_cables_applied, failures.count as u64);

            let mut sink = exaflow_sim::VecSink::new();
            let traced = run_experiment_with(&cfg, None, Some(&mut sink)).unwrap();
            assert_eq!(traced.makespan_seconds, makespan, "{name}");
            let topo = cfg.topology.build().unwrap();
            exaflow_sim::check_trace_with_topology(&sink.into_events(), &*topo)
                .unwrap_or_else(|v| panic!("{name}: {v}"));
        }

        // Without the skip policy the fattree's cut-off flow fails the run,
        // and the error names the static cuts and counts every down link.
        let cfg = composed_faults_cfg(
            fattree,
            FailureSpec { count: 3, seed: 1 },
            RecoveryPolicy::RerouteResume,
        );
        assert_eq!(
            run_experiment(&cfg).unwrap_err().to_string(),
            "simulation failed: Fattree(4-ary 2-tree) [6 failed links]: endpoint 10 cannot \
             reach 8 (14 failed links)"
        );

        // A partition by the static cuts alone names the bare topology.
        let mut cfg = reduce_cfg(TopologySpec::Torus { dims: vec![4] });
        cfg.workload = WorkloadSpec::Reduce { tasks: 4, bytes: 1 };
        cfg.failures = Some(FailureSpec { count: 2, seed: 0 });
        assert_eq!(
            run_experiment(&cfg).unwrap_err().to_string(),
            "simulation failed: Torus(4): endpoint 3 cannot reach 0 (4 failed links)"
        );
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = reduce_cfg(TopologySpec::Torus { dims: vec![4, 4] });
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn default_fields_optional_in_json() {
        let json = r#"{
            "topology": {"topology": "torus", "dims": [4, 4]},
            "workload": {"workload": "reduce", "tasks": 8, "bytes": 100}
        }"#;
        let cfg: ExperimentConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.mapping, MappingSpec::Linear);
        assert_eq!(cfg.failures, None);
        let res = run_experiment(&cfg).unwrap();
        assert_eq!(res.workload, "Reduce");
        assert_eq!(res.flows, 7);
    }
}
