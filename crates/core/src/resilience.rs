//! Monte-Carlo resilience campaigns: how much does a workload degrade
//! under mid-run link failures, per recovery policy?
//!
//! A campaign takes one base experiment, a grid of fault rates × recovery
//! policies, and a replica count. For every `(rate, policy)` cell it runs
//! `replicas` independent seeded fault schedules through the parallel
//! [`ExperimentSuite`] and aggregates degradation metrics against the
//! fault-free baseline:
//!
//! * **completion-time inflation** — makespan over baseline makespan
//!   (mean, p50, p99 nearest-rank over completed replicas),
//! * **delivered-flow fraction** — flows actually delivered (the
//!   `skip_unreachable` policy drops flows whose destination was cut off),
//! * **outcome counts** — completed / aborted ([`SimError::LinkLost`]) /
//!   unreachable / other per cell.
//!
//! Determinism is load-bearing: replica `r` of rate index `i` draws its
//! fault schedule from a seed mixed **independently of the policy**, so
//! all policies face the same fault traces and their metrics are directly
//! comparable. [`CellReport`] carries no wall-clock fields, so a campaign
//! report is bit-identical across worker-thread counts and reruns.
//!
//! [`SimError::LinkLost`]: exaflow_sim::SimError::LinkLost

use crate::error::ExperimentError;
use crate::experiment::{ExperimentConfig, FaultInjectionSpec};
use crate::suite::{ExperimentSuite, SuiteRun};
use crate::topocache::TopoCache;
use exaflow_sim::{FaultScheduleSpec, RecoveryPolicy, SimError};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Ceiling on `rates × policies × replicas`: a typo'd campaign is a typed
/// error, not an hour of compute.
pub const MAX_CAMPAIGN_RUNS: usize = 100_000;

/// Declarative description of a resilience campaign.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResilienceCampaignSpec {
    /// The experiment under test. Its `fault_injection` field must be
    /// empty — the campaign owns fault injection.
    pub base: ExperimentConfig,
    /// Expected duplex-cable failures per simulated second, one cell row
    /// per rate. `0` measures the harness itself (must reproduce the
    /// baseline exactly).
    pub fault_rates_per_s: Vec<f64>,
    /// Recovery policies to compare (default: all four).
    #[serde(default = "all_policies")]
    pub policies: Vec<RecoveryPolicy>,
    /// Independent fault schedules per `(rate, policy)` cell.
    pub replicas: u32,
    /// Campaign master seed; every replica's schedule seed derives from it.
    pub seed: u64,
    /// Faults are drawn over `[0, horizon_s)`. Defaults to the fault-free
    /// baseline makespan, i.e. faults can land anywhere in the run.
    #[serde(default)]
    pub horizon_s: Option<f64>,
    /// Repair failed cables after this many seconds (`None`: permanent).
    #[serde(default)]
    pub repair_s: Option<f64>,
}

fn all_policies() -> Vec<RecoveryPolicy> {
    RecoveryPolicy::ALL.to_vec()
}

/// Aggregate outcome of one `(fault rate, recovery policy)` cell.
///
/// Deliberately free of wall-clock fields: a cell is a pure function of
/// the campaign spec, so serialized cells are bit-identical across thread
/// counts and reruns.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Expected cable failures per simulated second.
    pub fault_rate_per_s: f64,
    /// Recovery policy of this cell.
    pub policy: RecoveryPolicy,
    /// Replicas attempted.
    pub replicas: u64,
    /// Replicas that ran to completion.
    pub completed: u64,
    /// Replicas stopped by the abort policy (`link_lost`).
    pub aborted: u64,
    /// Replicas stopped because a fault partitioned src from dst under a
    /// policy that cannot drop flows (`unreachable`).
    pub unreachable: u64,
    /// Replicas that failed for any non-fault reason (config errors,
    /// panics) — these indicate harness problems, not measured resilience.
    pub other_errors: u64,
    /// Mean fraction of flows delivered to their destination, over
    /// completed replicas (1.0 unless the skip policy dropped flows).
    pub delivered_flow_fraction: f64,
    /// Mean fraction of flows dropped as unreachable (skip policy only).
    pub skipped_flow_fraction: f64,
    /// Mean fault events that actually fired per completed replica.
    pub mean_fault_events: f64,
    /// Mean makespan inflation over the fault-free baseline (completed
    /// replicas; 0 when none completed).
    pub inflation_mean: f64,
    /// Median (nearest-rank) makespan inflation.
    pub inflation_p50: f64,
    /// 99th-percentile (nearest-rank) makespan inflation.
    pub inflation_p99: f64,
}

/// The outcome of a whole campaign: the fault-free baseline plus one
/// [`CellReport`] per `(rate, policy)`, rate-major then policy in spec
/// order. Everything here is deterministic given the spec.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResilienceCampaignReport {
    /// Topology display name.
    pub topology: String,
    /// Workload name.
    pub workload: String,
    /// Fault-free baseline makespan, seconds (inflation denominator).
    pub baseline_makespan_seconds: f64,
    /// Flows per run.
    pub baseline_flows: u64,
    /// The fault-drawing horizon actually used, seconds.
    pub horizon_s: f64,
    /// Replicas per `(rate, policy)` cell.
    pub replicas_per_cell: u32,
    /// Total replica runs executed (cells × replicas).
    pub total_runs: u64,
    /// Runs that failed for non-fault reasons (see
    /// [`CellReport::other_errors`]); non-zero means the campaign itself
    /// is suspect.
    pub failed_runs: u64,
    /// One aggregate per `(rate, policy)`.
    pub cells: Vec<CellReport>,
}

/// Policy-independent schedule seed for `(campaign seed, rate, replica)`:
/// every policy at the same grid point faces the identical fault trace.
/// SplitMix64-style finalizer over the three inputs.
fn schedule_seed(seed: u64, rate_idx: u64, replica: u64) -> u64 {
    let mut z = seed
        ^ rate_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ replica.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn validate(spec: &ResilienceCampaignSpec) -> Result<(), ExperimentError> {
    let invalid = |reason: String| Err(ExperimentError::InvalidCampaign { reason });
    if spec.base.fault_injection.is_some() {
        return invalid(
            "base experiment must not set fault_injection (the campaign owns it)".into(),
        );
    }
    if spec.fault_rates_per_s.is_empty() {
        return invalid("fault_rates_per_s must not be empty".into());
    }
    for &r in &spec.fault_rates_per_s {
        if !(r.is_finite() && r >= 0.0) {
            return invalid(format!("fault rate {r} must be finite and >= 0"));
        }
    }
    if spec.policies.is_empty() {
        return invalid("policies must not be empty".into());
    }
    if spec.replicas == 0 {
        return invalid("replicas must be >= 1".into());
    }
    if let Some(h) = spec.horizon_s {
        if !(h.is_finite() && h > 0.0) {
            return invalid(format!("horizon_s {h} must be finite and > 0"));
        }
    }
    let runs = spec.fault_rates_per_s.len() * spec.policies.len() * spec.replicas as usize;
    if runs > MAX_CAMPAIGN_RUNS {
        return invalid(format!(
            "campaign would execute {runs} runs (max {MAX_CAMPAIGN_RUNS})"
        ));
    }
    Ok(())
}

fn classify(cell: &mut CellReport, err: &ExperimentError) {
    match err {
        ExperimentError::Sim {
            sim: SimError::LinkLost { .. },
        } => cell.aborted += 1,
        ExperimentError::Sim {
            sim: SimError::Unreachable { .. },
        } => cell.unreachable += 1,
        _ => cell.other_errors += 1,
    }
}

/// Run a full resilience campaign: fault-free baseline, then
/// `rates × policies × replicas` fault-injected runs on `threads` workers
/// (`None`: one per core), aggregated per cell.
///
/// Fails fast with a typed error when the spec is inconsistent or the
/// baseline itself cannot run; per-replica failures inside the campaign
/// are aggregated, not fatal.
///
/// With `journal: Some((path, resume))`, every replica outcome (and the
/// baseline) is appended to the JSONL journal at `path` the moment it
/// finalises. With `resume`, outcomes already journaled are reused instead
/// of re-run; since campaign reports carry no wall-clock fields, a resumed
/// report is **bit-identical** to an uninterrupted one. Without `resume`,
/// the journal is truncated and the campaign starts fresh.
///
/// The baseline and the grid are two suites over the same spec. They
/// share one topology cache, so the topology is built once.
pub fn run_resilience_campaign(
    spec: &ResilienceCampaignSpec,
    threads: Option<usize>,
    journal: Option<(&Path, bool)>,
) -> Result<ResilienceCampaignReport, ExperimentError> {
    validate(spec)?;
    let cache = TopoCache::keeping();
    let run_suite = |configs, resume| -> Result<SuiteRun, ExperimentError> {
        let mut suite = ExperimentSuite::new(configs);
        if let Some(t) = threads {
            suite = suite.threads(t);
        }
        suite
            .run_on(journal.map(|(path, _)| (path, resume)), Some(&cache))
            .map_err(|e| ExperimentError::Journal {
                reason: e.to_string(),
            })
    };

    // The baseline is journaled like any grid point: a resumed campaign
    // must not re-run it (its makespan anchors every inflation figure).
    let resume = journal.is_some_and(|(_, resume)| resume);
    let baseline = run_suite(vec![spec.base.clone()], resume)?
        .results
        .pop()
        .expect("one baseline outcome")?;
    let horizon = match spec.horizon_s {
        Some(h) => h,
        None if baseline.makespan_seconds > 0.0 => baseline.makespan_seconds,
        None => {
            return Err(ExperimentError::InvalidCampaign {
                reason: "baseline makespan is 0; set horizon_s explicitly".into(),
            })
        }
    };

    // Grid order is rate-major, then policy, then replica — and must match
    // the aggregation below, which walks the suite results sequentially.
    let mut configs = Vec::new();
    for (rate_idx, &rate) in spec.fault_rates_per_s.iter().enumerate() {
        for &policy in &spec.policies {
            for replica in 0..spec.replicas {
                let mut cfg = spec.base.clone();
                cfg.fault_injection = Some(FaultInjectionSpec {
                    policy,
                    schedule: FaultScheduleSpec::Random {
                        seed: schedule_seed(spec.seed, rate_idx as u64, replica as u64),
                        rate_per_s: rate,
                        horizon_s: horizon,
                        repair_s: spec.repair_s,
                    },
                });
                configs.push(cfg);
            }
        }
    }

    // The grid appends to the journal the baseline opened.
    let run = run_suite(configs, true)?;

    let mut cells = Vec::with_capacity(spec.fault_rates_per_s.len() * spec.policies.len());
    let mut outcomes = run.results.iter();
    let mut failed_runs = 0u64;
    for &rate in &spec.fault_rates_per_s {
        for &policy in &spec.policies {
            let mut cell = CellReport {
                fault_rate_per_s: rate,
                policy,
                replicas: spec.replicas as u64,
                ..CellReport::default()
            };
            let mut inflations = Vec::with_capacity(spec.replicas as usize);
            let (mut delivered, mut skipped, mut fault_events) = (0.0f64, 0.0f64, 0.0f64);
            for _ in 0..spec.replicas {
                match outcomes.next().expect("one outcome per grid point") {
                    Ok(res) => {
                        cell.completed += 1;
                        inflations.push(res.makespan_seconds / baseline.makespan_seconds);
                        let flows = res.flows.max(1) as f64;
                        delivered += (res.flows - res.skipped_flows) as f64 / flows;
                        skipped += res.skipped_flows as f64 / flows;
                        fault_events += res.fault_events_applied as f64;
                    }
                    Err(e) => classify(&mut cell, e),
                }
            }
            failed_runs += cell.other_errors;
            if cell.completed > 0 {
                let n = cell.completed as f64;
                cell.delivered_flow_fraction = delivered / n;
                cell.skipped_flow_fraction = skipped / n;
                cell.mean_fault_events = fault_events / n;
                inflations.sort_by(|a, b| a.partial_cmp(b).expect("finite inflation"));
                cell.inflation_mean = inflations.iter().sum::<f64>() / n;
                cell.inflation_p50 = percentile(&inflations, 0.50);
                cell.inflation_p99 = percentile(&inflations, 0.99);
            }
            cells.push(cell);
        }
    }

    Ok(ResilienceCampaignReport {
        topology: baseline.topology.clone(),
        workload: baseline.workload.clone(),
        baseline_makespan_seconds: baseline.makespan_seconds,
        baseline_flows: baseline.flows,
        horizon_s: horizon,
        replicas_per_cell: spec.replicas,
        total_runs: run.results.len() as u64,
        failed_runs,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MappingSpec;
    use crate::topospec::TopologySpec;
    use exaflow_sim::SimConfig;
    use exaflow_workloads::WorkloadSpec;

    fn base() -> ExperimentConfig {
        ExperimentConfig {
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
        }
    }

    fn spec() -> ResilienceCampaignSpec {
        ResilienceCampaignSpec {
            base: base(),
            fault_rates_per_s: vec![0.0, 1000.0],
            policies: all_policies(),
            replicas: 3,
            seed: 42,
            horizon_s: None,
            repair_s: None,
        }
    }

    #[test]
    fn zero_rate_cells_reproduce_the_baseline_exactly() {
        let report = run_resilience_campaign(&spec(), Some(2), None).unwrap();
        for cell in report.cells.iter().filter(|c| c.fault_rate_per_s == 0.0) {
            assert_eq!(cell.completed, 3, "{cell:?}");
            assert_eq!(cell.inflation_mean, 1.0, "{cell:?}");
            assert_eq!(cell.inflation_p50, 1.0);
            assert_eq!(cell.inflation_p99, 1.0);
            assert_eq!(cell.delivered_flow_fraction, 1.0);
            assert_eq!(cell.mean_fault_events, 0.0);
        }
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let serial = run_resilience_campaign(&spec(), Some(1), None).unwrap();
        let parallel = run_resilience_campaign(&spec(), Some(8), None).unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn policies_share_fault_traces_and_diverge_in_outcome() {
        let report = run_resilience_campaign(&spec(), None, None).unwrap();
        let faulted: Vec<&CellReport> = report
            .cells
            .iter()
            .filter(|c| c.fault_rate_per_s > 0.0)
            .collect();
        assert_eq!(faulted.len(), 4);
        // The restart policy can only be slower than resume on identical
        // fault traces (it retransmits what resume keeps).
        let by_policy = |p: RecoveryPolicy| {
            faulted
                .iter()
                .find(|c| c.policy == p)
                .unwrap_or_else(|| panic!("missing cell for {p:?}"))
        };
        let resume = by_policy(RecoveryPolicy::RerouteResume);
        let restart = by_policy(RecoveryPolicy::RerouteRestart);
        if resume.completed > 0 && restart.completed > 0 {
            assert!(
                restart.inflation_mean >= resume.inflation_mean,
                "restart {} < resume {}",
                restart.inflation_mean,
                resume.inflation_mean
            );
        }
        // No harness failures in any cell.
        assert_eq!(report.failed_runs, 0);
        for c in &report.cells {
            assert_eq!(
                c.completed + c.aborted + c.unreachable + c.other_errors,
                c.replicas,
                "{c:?}"
            );
        }
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let mut s = spec();
        s.replicas = 0;
        assert!(matches!(
            run_resilience_campaign(&s, None, None),
            Err(ExperimentError::InvalidCampaign { .. })
        ));

        let mut s = spec();
        s.fault_rates_per_s = vec![];
        assert!(matches!(
            run_resilience_campaign(&s, None, None),
            Err(ExperimentError::InvalidCampaign { .. })
        ));

        let mut s = spec();
        s.fault_rates_per_s = vec![f64::NAN];
        assert!(matches!(
            run_resilience_campaign(&s, None, None),
            Err(ExperimentError::InvalidCampaign { .. })
        ));

        let mut s = spec();
        s.replicas = 1_000_000;
        assert!(matches!(
            run_resilience_campaign(&s, None, None),
            Err(ExperimentError::InvalidCampaign { .. })
        ));

        let mut s = spec();
        s.base.fault_injection = Some(FaultInjectionSpec {
            policy: RecoveryPolicy::Abort,
            schedule: FaultScheduleSpec::Explicit { events: vec![] },
        });
        assert!(matches!(
            run_resilience_campaign(&s, None, None),
            Err(ExperimentError::InvalidCampaign { .. })
        ));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    /// Independent nearest-rank oracle: walk the sorted slice and return
    /// the first element whose cumulative count reaches `q`'s share. Uses
    /// the same `q * n` product as `percentile` (a division would round
    /// differently), but replaces the ceil-and-index arithmetic with a
    /// linear scan.
    fn nearest_rank_oracle(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len() as f64;
        for (i, &v) in sorted.iter().enumerate() {
            if (i + 1) as f64 >= q * n {
                return v;
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn percentile_boundaries_match_the_oracle() {
        for v in [
            vec![7.0],
            vec![1.0, 2.0],
            vec![1.0, 1.0, 1.0, 2.0], // ties
            vec![-3.0, 0.0, 0.0, 5.0, 5.0],
        ] {
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(
                    percentile(&v, q).to_bits(),
                    nearest_rank_oracle(&v, q).to_bits(),
                    "v={v:?} q={q}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn percentile_matches_nearest_rank_oracle(
            values in proptest::collection::vec(-1e9f64..1e9, 1..40),
            q in 0.0f64..1.0
        ) {
            let mut values = values;
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let got = percentile(&values, q);
            let want = nearest_rank_oracle(&values, q);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            // The result is always an element of the input.
            proptest::prop_assert!(values.iter().any(|&v| v.to_bits() == got.to_bits()));
        }

        #[test]
        fn percentile_is_monotone_in_q(
            values in proptest::collection::vec(-1e9f64..1e9, 1..40),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0
        ) {
            let mut values = values;
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            proptest::prop_assert!(percentile(&values, lo) <= percentile(&values, hi));
        }
    }

    #[test]
    fn schedule_seed_varies_by_rate_and_replica_only() {
        let a = schedule_seed(1, 0, 0);
        assert_ne!(a, schedule_seed(1, 1, 0));
        assert_ne!(a, schedule_seed(1, 0, 1));
        assert_ne!(a, schedule_seed(2, 0, 0));
        // Stable: pure function of its inputs.
        assert_eq!(a, schedule_seed(1, 0, 0));
    }

    #[test]
    fn journaled_campaign_resumes_bit_identically() {
        let path = std::env::temp_dir().join(format!(
            "exaflow-resilience-journal-{}.jsonl",
            std::process::id()
        ));
        let mut s = spec();
        s.replicas = 2;
        s.fault_rates_per_s = vec![0.0, 800.0];
        s.policies = vec![
            RecoveryPolicy::RerouteResume,
            RecoveryPolicy::SkipUnreachable,
        ];

        let journaled = |threads, resume| {
            run_resilience_campaign(&s, Some(threads), Some((&path, resume))).unwrap()
        };
        let fresh = journaled(2, false);
        let plain = run_resilience_campaign(&s, Some(2), None).unwrap();
        assert_eq!(fresh, plain, "journaling must not perturb the report");
        let full_len = crate::journal::read_journal(&path).unwrap().len() as u64;
        assert_eq!(full_len, fresh.total_runs + 1, "grid points + baseline");

        // Complete journal: resume replays everything, runs nothing new.
        let resumed = journaled(2, true);
        assert_eq!(resumed, fresh);
        assert_eq!(
            crate::journal::read_journal(&path).unwrap().len() as u64,
            full_len
        );

        // Kill mid-campaign: keep two complete lines plus a torn fragment
        // of the third, resume, and the report must still be identical.
        let text = std::fs::read_to_string(&path).unwrap();
        let second_newline = text
            .match_indices('\n')
            .nth(1)
            .map(|(i, _)| i)
            .expect("at least two journal lines");
        std::fs::write(&path, &text[..second_newline + 11]).unwrap();
        let resumed = journaled(1, true);
        assert_eq!(resumed, fresh, "torn-journal resume must reconstruct");
        assert_eq!(
            crate::journal::read_journal(&path).unwrap().len() as u64,
            full_len,
            "resume heals the journal back to full length"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut s = spec();
        s.replicas = 1;
        s.fault_rates_per_s = vec![500.0];
        s.policies = vec![RecoveryPolicy::SkipUnreachable];
        let report = run_resilience_campaign(&s, Some(1), None).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: ResilienceCampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
