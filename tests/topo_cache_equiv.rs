//! Topology-cache equivalence: a suite or resilience campaign builds each
//! distinct [`TopologySpec`] once per round, shares the build while entries
//! still need it, and runs its entries grouped by topology; every entry
//! must come out exactly as a direct [`run_experiment`] of that entry on a
//! fresh build — results bit for bit, traces event for event — across all
//! five topology families, faulted and fault-free, serial and 8-way
//! parallel. The only observable trace of the cache is the
//! never-serialized [`SuiteReport::topo_cache`] stats.

use exaflow::prelude::*;
use exaflow::topo::UpperTierKind;

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

/// Six entries over ONE topology spec — the shape the cache exists for:
/// varied workloads, mappings, and (for odd entries) seeded static
/// failures, so the shared topology is routed both healthy and through
/// run-long failures in the engine's fault overlay.
fn suite_for(spec: &TopologySpec, eps: usize) -> Vec<ExperimentConfig> {
    (0..6u64)
        .map(|i| {
            let workload = match i % 3 {
                0 => WorkloadSpec::AllReduce {
                    tasks: eps,
                    bytes: 1 << 16,
                },
                1 => WorkloadSpec::UnstructuredApp {
                    tasks: eps / 2,
                    flows_per_task: 2,
                    bytes: 1 << 16,
                    seed: i + 1,
                },
                _ => WorkloadSpec::Reduce {
                    tasks: eps / 2,
                    bytes: 1 << 16,
                },
            };
            ExperimentConfig {
                topology: spec.clone(),
                workload,
                mapping: if i % 2 == 0 {
                    MappingSpec::Linear
                } else {
                    MappingSpec::Random { seed: i + 1 }
                },
                sim: SimConfig::default(),
                failures: (i % 2 == 1).then_some(FailureSpec {
                    count: 1,
                    seed: i + 1,
                }),
                fault_injection: None,
            }
        })
        .collect()
}

/// Bit-exact serialized form of a batch of outcomes minus wall clocks:
/// every physics field, counter, and error string, in order.
fn canonical_results(results: &[Result<ExperimentResult, ExperimentError>]) -> Vec<String> {
    results.iter().map(canonical).collect()
}

fn canonical(result: &Result<ExperimentResult, ExperimentError>) -> String {
    match result {
        Ok(res) => {
            let mut res = res.clone();
            res.wall_seconds = 0.0;
            // Metrics carry solver wall timings.
            res.metrics = None;
            serde_json::to_string(&res).unwrap()
        }
        Err(e) => format!("{e:?}"),
    }
}

fn direct_runs(configs: &[ExperimentConfig]) -> Vec<Result<ExperimentResult, ExperimentError>> {
    configs.iter().map(run_experiment).collect()
}

/// The report's physics counters must be the sums over the direct runs.
fn assert_report_sums(
    report: &SuiteReport,
    direct: &[Result<ExperimentResult, ExperimentError>],
    what: &str,
) {
    let ok: Vec<&ExperimentResult> = direct.iter().flatten().collect();
    assert_eq!(report.succeeded, ok.len() as u64, "{what}");
    assert_eq!(
        report.flows,
        ok.iter().map(|r| r.flows).sum::<u64>(),
        "{what}"
    );
    assert_eq!(
        report.events,
        ok.iter().map(|r| r.events).sum::<u64>(),
        "{what}"
    );
    assert_eq!(
        report.maxmin_iterations,
        ok.iter().map(|r| r.maxmin_iterations).sum::<u64>(),
        "{what}"
    );
}

/// Suite path, all five families in one workload-major input (entry `i`
/// runs workload `i / 5` on family `i % 5`), so the suite dispatches in a
/// different order than it reports, threads {1, 8}: per-result JSON
/// bit-identical to a direct run per entry, in input order, and report
/// counters equal to their sums. The suite must also show the cache
/// actually engaged — 5 builds, 25 hits — or the comparison proves nothing.
#[test]
fn suite_bit_identical_to_direct_runs() {
    let per_family: Vec<Vec<ExperimentConfig>> = specs()
        .into_iter()
        .map(|(_, spec)| {
            let eps = spec.build().unwrap().num_endpoints();
            suite_for(&spec, eps)
        })
        .collect();
    let configs: Vec<ExperimentConfig> = (0..6)
        .flat_map(|w| per_family.iter().map(move |family| family[w].clone()))
        .collect();
    let direct = direct_runs(&configs);
    for threads in [1usize, 8] {
        let run = ExperimentSuite::new(configs.clone()).threads(threads).run();
        let stats = run
            .report
            .topo_cache
            .expect("a suite run reports its cache");
        assert_eq!(stats.misses, 5, "t{threads}: five specs, five builds");
        assert_eq!(stats.hits, 25, "t{threads}: 25 shared entries");
        assert_eq!(
            canonical_results(&run.results),
            canonical_results(&direct),
            "t{threads}: suite results diverged from direct runs"
        );
        assert_report_sums(&run.report, &direct, &format!("t{threads}"));
    }
}

/// Trace layer, all five families, faulted and fault-free: a run served
/// from a *warm* cache must narrate the same story, event for event and
/// header included, as a direct run on a fresh build.
#[test]
fn traces_identical_to_direct_runs() {
    for (name, spec) in specs() {
        let eps = spec.build().unwrap().num_endpoints();
        for failures in [None, Some(FailureSpec { count: 1, seed: 7 })] {
            let faulted = failures.is_some();
            let cfg = ExperimentConfig {
                topology: spec.clone(),
                workload: WorkloadSpec::AllReduce {
                    tasks: eps,
                    bytes: 1 << 16,
                },
                mapping: MappingSpec::Linear,
                sim: SimConfig::default(),
                failures,
                fault_injection: None,
            };
            let mut sink = VecSink::new();
            let direct = run_experiment_with(&cfg, None, Some(&mut sink));
            let reference = sink.into_events();

            let cache = TopoCache::new(TopoCache::DEFAULT_CAP);
            // Warm the cache so the traced run below is a genuine hit.
            run_experiment_with(&cfg, Some(&cache), None).unwrap();
            let mut sink = VecSink::new();
            let cached = run_experiment_with(&cfg, Some(&cache), Some(&mut sink));
            assert_eq!(cache.stats().hits, 1, "{name}: warm lookup must hit");
            assert_eq!(
                sink.into_events(),
                reference,
                "{name}/faulted={faulted}: trace diverged from the direct run"
            );
            assert_eq!(
                canonical(&cached),
                canonical(&direct),
                "{name}/faulted={faulted}: result diverged from the direct run"
            );
        }
    }
}

/// Policy-independent schedule seed of replica `replica` at rate index
/// `rate_idx`, as a resilience campaign derives it from its master seed.
/// The journal below holds outcomes by config fingerprint, so a drift here
/// fails loudly as a missing entry.
fn schedule_seed(seed: u64, rate_idx: u64, replica: u64) -> u64 {
    let mut z = seed
        ^ rate_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ replica.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resilience campaigns share one build between the baseline and every
/// grid worker. Journal the campaign, then hold each journaled outcome —
/// baseline and all 16 grid points — to a direct run of its config, at
/// threads {1, 8}. Campaign reports carry no wall clocks, so serial and
/// parallel reports must match in full.
#[test]
fn campaign_bit_identical_to_direct_runs() {
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
    let baseline = run_experiment(&spec.base).unwrap();
    let mut configs = vec![spec.base.clone()];
    for (rate_idx, &rate) in spec.fault_rates_per_s.iter().enumerate() {
        for &policy in &spec.policies {
            for replica in 0..spec.replicas {
                let mut cfg = spec.base.clone();
                cfg.fault_injection = Some(FaultInjectionSpec {
                    policy,
                    schedule: FaultScheduleSpec::Random {
                        seed: schedule_seed(spec.seed, rate_idx as u64, replica as u64),
                        rate_per_s: rate,
                        horizon_s: baseline.makespan_seconds,
                        repair_s: spec.repair_s,
                    },
                });
                configs.push(cfg);
            }
        }
    }
    let direct = direct_runs(&configs);

    let path = std::env::temp_dir().join(format!(
        "exaflow-topocache-campaign-{}.jsonl",
        std::process::id()
    ));
    let mut reports = Vec::new();
    for threads in [1usize, 8] {
        let report = run_resilience_campaign(&spec, Some(threads), Some((&path, false))).unwrap();
        assert_eq!(report.total_runs, 16, "t{threads}");
        assert_eq!(report.horizon_s, baseline.makespan_seconds, "t{threads}");
        let mut journal = JournalIndex::load(&path).unwrap();
        assert_eq!(journal.len(), configs.len(), "t{threads}: grid + baseline");
        for (i, (cfg, want)) in configs.iter().zip(&direct).enumerate() {
            let got = journal
                .take(&fingerprint(cfg))
                .unwrap_or_else(|| panic!("t{threads}: run {i} missing from the journal"));
            assert_eq!(
                canonical(&got),
                canonical(want),
                "t{threads}: campaign run {i} diverged from its direct run"
            );
        }
        reports.push(serde_json::to_string(&report).unwrap());
    }
    assert_eq!(reports[0], reports[1], "campaign reports diverged t1 vs t8");
    std::fs::remove_file(&path).ok();
}

/// Journaled suites: a fresh-journal run matches the direct runs, and a
/// resume over the complete journal (cold cache, warm journal) replays the
/// same outcome without a single cache lookup — the journal fingerprint
/// layer and the cache key layer never interfere.
#[test]
fn journaled_suite_bit_identical_to_direct_runs() {
    let path = std::env::temp_dir().join(format!(
        "exaflow-topocache-suite-{}.jsonl",
        std::process::id()
    ));
    let spec = TopologySpec::Torus {
        dims: vec![4, 4, 2],
    };
    let eps = spec.build().unwrap().num_endpoints();
    let configs = suite_for(&spec, eps);
    let direct = direct_runs(&configs);

    let fresh = ExperimentSuite::new(configs.clone())
        .threads(2)
        .run_journaled(&path, false)
        .unwrap();
    assert_eq!(
        canonical_results(&fresh.results),
        canonical_results(&direct)
    );
    assert_report_sums(&fresh.report, &direct, "fresh journal");
    assert_eq!(fresh.report.topo_cache.unwrap().hits, 5);

    let resumed = ExperimentSuite::new(configs)
        .threads(2)
        .run_journaled(&path, true)
        .unwrap();
    assert_eq!(
        canonical_results(&resumed.results),
        canonical_results(&direct)
    );
    let stats = resumed.report.topo_cache.unwrap();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "fully-journaled resume must never touch the topology cache"
    );
    std::fs::remove_file(&path).ok();
}

/// Memory rule: a suite keeps a spec only while an entry still needs it.
/// Seventy distinct tiny tori, each run once in a first pass and again in
/// a second, build exactly seventy times, since the suite runs a spec's
/// entries together; and a spec is freed after its last entry, so a serial
/// suite holds one at a time and a pool one per worker plus the spec being
/// dispatched.
#[test]
fn every_distinct_spec_builds_once_per_suite() {
    let pass: Vec<ExperimentConfig> = (0..70u32)
        .map(|i| ExperimentConfig {
            topology: TopologySpec::Torus {
                dims: vec![2 + i / 10, 2 + i % 10],
            },
            workload: WorkloadSpec::AllReduce {
                tasks: 4,
                bytes: 1 << 10,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        })
        .collect();
    let configs: Vec<ExperimentConfig> = pass.iter().chain(&pass).cloned().collect();
    for threads in [1usize, 8] {
        let run = ExperimentSuite::new(configs.clone()).threads(threads).run();
        assert_eq!(run.report.succeeded, 140, "t{threads}");
        let stats = run.report.topo_cache.unwrap();
        assert_eq!(
            (stats.misses, stats.hits),
            (70, 70),
            "t{threads}: one build per distinct spec"
        );
        if threads == 1 {
            assert_eq!(stats.peak_entries, 1, "t1: one spec resident at a time");
        } else {
            assert!(
                (1..=threads as u64 + 1).contains(&stats.peak_entries),
                "t{threads}: {} specs resident at once",
                stats.peak_entries
            );
        }
    }
}
