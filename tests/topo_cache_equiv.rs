//! Topology-cache equivalence: the content-addressed [`TopoCache`] must be
//! **provably invisible** — cache-on and cache-off runs bit-identical at
//! the report layer, and event-for-event identical at the trace layer,
//! across every suite/campaign entry point, all five topology families,
//! faulted and fault-free, serial and 8-way parallel. The only observable
//! difference is provenance: the `topo_cache_hit` header flag and the
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
/// failures, so the shared topology is exercised through both the raw and
/// the `Degraded`-wrapped paths.
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

/// Bit-exact serialized form of a suite outcome minus wall clocks: every
/// physics field, counter, and error string, in submission order.
fn canonical_results(results: &[Result<ExperimentResult, ExperimentError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| match r {
            Ok(res) => {
                let mut res = res.clone();
                res.wall_seconds = 0.0;
                // Metrics carry solver wall timings and the cache-hit
                // provenance counter; both are legitimately cache/timing
                // dependent.
                res.metrics = None;
                serde_json::to_string(&res).unwrap()
            }
            Err(e) => format!("{e:?}"),
        })
        .collect()
}

/// Serialized [`SuiteReport`] minus wall clocks. Serialization itself
/// already proves the stats stay out: `topo_cache` is a skip-always field.
fn canonical_report(report: &SuiteReport) -> String {
    let mut r = report.clone();
    r.wall_seconds = 0.0;
    r.experiment_wall_seconds = 0.0;
    r.events_per_second = 0.0;
    r.per_experiment_wall_seconds.clear();
    serde_json::to_string(&r).unwrap()
}

/// Zero the provenance flag on the run header — by design the only trace
/// field allowed to differ between cache-on and cache-off runs.
fn canonical_trace(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .cloned()
        .map(|ev| match ev {
            TraceEvent::RunStarted {
                flows,
                links,
                endpoints,
                batch_epsilon,
                capacities_bps,
                ..
            } => TraceEvent::RunStarted {
                flows,
                links,
                endpoints,
                batch_epsilon,
                capacities_bps,
                topo_cache_hit: false,
            },
            other => other,
        })
        .collect()
}

/// Suite path, all five families: default cache vs `topo_cache(0)`,
/// threads {1, 8}, reports and per-result JSON bit-identical. The cached
/// run must also show the cache actually engaged — 1 build, 5 hits — or
/// the comparison proves nothing.
#[test]
fn suite_bit_identical_cache_on_vs_off() {
    for (name, spec) in specs() {
        let eps = spec.build().unwrap().num_endpoints();
        let configs = suite_for(&spec, eps);
        for threads in [1usize, 8] {
            let off = ExperimentSuite::new(configs.clone())
                .threads(threads)
                .topo_cache(0)
                .run();
            let on = ExperimentSuite::new(configs.clone()).threads(threads).run();
            assert_eq!(off.report.topo_cache, None, "{name}: cap 0 must disable");
            let stats = on.report.topo_cache.expect("default cache must be on");
            assert_eq!(stats.misses, 1, "{name}/t{threads}: one spec, one build");
            assert_eq!(stats.hits, 5, "{name}/t{threads}: five shared entries");
            assert_eq!(
                canonical_results(&on.results),
                canonical_results(&off.results),
                "{name}/t{threads}: results diverged cache-on vs cache-off"
            );
            assert_eq!(
                canonical_report(&on.report),
                canonical_report(&off.report),
                "{name}/t{threads}: reports diverged cache-on vs cache-off"
            );
        }
    }
}

/// Trace layer, all five families, faulted and fault-free: a run served
/// from a *warm* cache (`topo_cache_hit` stamped) must narrate the same
/// story event-for-event as the uncached engine, and the header flag must
/// be the only difference.
#[test]
fn traces_identical_cache_on_vs_off() {
    for (name, spec) in specs() {
        let eps = spec.build().unwrap().num_endpoints();
        for failures in [None, Some(FailureSpec { count: 1, seed: 7 })] {
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
            let uncached = run_experiment_with(&cfg, None, Some(&mut sink)).unwrap();
            let reference = sink.into_events();

            let cache = TopoCache::new(4);
            // Warm the cache so the traced run below is a genuine hit.
            run_experiment_with(&cfg, Some(&cache), None).unwrap();
            let mut sink = VecSink::new();
            let cached = run_experiment_with(&cfg, Some(&cache), Some(&mut sink)).unwrap();
            let events = sink.into_events();
            assert_eq!(cache.stats().hits, 1, "{name}: warm lookup must hit");

            let faulted = failures.is_some();
            assert!(
                matches!(
                    &events[0],
                    TraceEvent::RunStarted {
                        topo_cache_hit: true,
                        ..
                    }
                ),
                "{name}/faulted={faulted}: hit provenance missing from header"
            );
            assert!(
                matches!(
                    &reference[0],
                    TraceEvent::RunStarted {
                        topo_cache_hit: false,
                        ..
                    }
                ),
                "{name}/faulted={faulted}: uncached run must not claim a hit"
            );
            assert_eq!(
                canonical_trace(&events),
                canonical_trace(&reference),
                "{name}/faulted={faulted}: trace diverged cache-on vs cache-off"
            );
            let mut uncached = uncached;
            let mut cached = cached;
            // The metrics snapshot mirrors the provenance flag and carries
            // wall timings; everything else must match bit-for-bit.
            assert_eq!(cached.metrics.as_ref().unwrap().topo_cache_hit, 1, "{name}");
            uncached.wall_seconds = 0.0;
            cached.wall_seconds = 0.0;
            uncached.metrics = None;
            cached.metrics = None;
            assert_eq!(
                serde_json::to_string(&cached).unwrap(),
                serde_json::to_string(&uncached).unwrap(),
                "{name}/faulted={faulted}: result diverged cache-on vs cache-off"
            );
        }
    }
}

/// Resilience campaigns: the shared cache (baseline + every grid cell) vs
/// cache-off, threads {1, 8}. Campaign reports carry no wall clocks, so
/// the comparison is full serialized equality, no scrubbing.
#[test]
fn campaign_bit_identical_cache_on_vs_off() {
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
    for threads in [1usize, 8] {
        let (off, off_stats) =
            run_resilience_campaign_with(&spec, Some(threads), None, Some(0)).unwrap();
        let (on, on_stats) =
            run_resilience_campaign_with(&spec, Some(threads), None, None).unwrap();
        assert_eq!(off_stats, None, "t{threads}: cap 0 must disable");
        let stats = on_stats.expect("default cache must be on");
        assert_eq!(stats.misses, 1, "t{threads}: baseline builds, grid shares");
        assert!(stats.hits >= 16, "t{threads}: grid must hit, got {stats:?}");
        assert_eq!(
            serde_json::to_string(&on).unwrap(),
            serde_json::to_string(&off).unwrap(),
            "t{threads}: campaign reports diverged cache-on vs cache-off"
        );
    }
}

/// Journaled suites: fresh-journal runs with the cache on and off produce
/// identical results, and a cache-on resume over a cache-off journal
/// (cold cache, warm journal) reconstructs the same outcome — the journal
/// fingerprint layer and the cache key layer never interfere.
#[test]
fn journaled_suite_bit_identical_cache_on_vs_off() {
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!(
            "exaflow-topocache-{tag}-{}.jsonl",
            std::process::id()
        ))
    };
    let spec = TopologySpec::Torus {
        dims: vec![4, 4, 2],
    };
    let eps = spec.build().unwrap().num_endpoints();
    let configs = suite_for(&spec, eps);

    let path_off = tmp("off");
    let path_on = tmp("on");
    let off = ExperimentSuite::new(configs.clone())
        .threads(2)
        .topo_cache(0)
        .run_journaled(&path_off, false)
        .unwrap();
    let on = ExperimentSuite::new(configs.clone())
        .threads(2)
        .run_journaled(&path_on, false)
        .unwrap();
    assert_eq!(
        canonical_results(&on.results),
        canonical_results(&off.results)
    );
    assert_eq!(canonical_report(&on.report), canonical_report(&off.report));
    assert!(on.report.topo_cache.unwrap().hits > 0);

    // Resume the cache-off journal with the cache ON: every entry replays
    // from the journal (cold cache — zero builds), same results.
    let resumed = ExperimentSuite::new(configs)
        .threads(2)
        .run_journaled(&path_off, true)
        .unwrap();
    assert_eq!(
        canonical_results(&resumed.results),
        canonical_results(&off.results)
    );
    let stats = resumed.report.topo_cache.unwrap();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "fully-journaled resume must never touch the topology cache"
    );
    std::fs::remove_file(&path_off).ok();
    std::fs::remove_file(&path_on).ok();
}
