//! Workload inputs as JSON text: a pure function of (workload, seed, size).
//!
//! The program under test receives only what is generated here, as the text
//! a user would hand to `exaflow sweep` / `exaflow analyze`; the seed never
//! reaches it any other way.

use exaflow::presets::hybrid_grid;
use exaflow::topo::UpperTierKind;
use exaflow::{SystemScale, TopologySpec};

/// The benchmark's workloads; names are fixed by `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "heavy_random_1024",
    "collectives_grid_2048",
    "campaign_small_512",
    "analyze_131072",
];

const MIB: u64 = 1 << 20;
const KIB: u64 = 1 << 10;

/// What one repetition of a workload consumes.
pub enum Input {
    /// The entries of a suite document as `exaflow sweep` reads it: each is
    /// one experiment config, and one operation.
    Suite { entries: Vec<String> },
    /// `analyze_distances` at `qfdbs` with `sources` sampled sources per
    /// row; `specs` is a JSON array of topology specs. One operation per row.
    Analyze {
        qfdbs: u64,
        sources: usize,
        specs: String,
    },
}

/// Generate the input of `workload` for `seed`. `smoke` shrinks every scale
/// to 64-128 QFDBs so the whole set runs in seconds.
pub fn generate(workload: &str, seed: u64, smoke: bool) -> Result<Input, String> {
    match workload {
        "heavy_random_1024" => heavy_random(seed, if smoke { 64 } else { 1024 }),
        "collectives_grid_2048" => collectives_grid(if smoke { 128 } else { 2048 }),
        "campaign_small_512" => campaign_small(seed, if smoke { 64 } else { 512 }),
        "analyze_131072" => {
            let (qfdbs, sources) = if smoke { (128, 16) } else { (131_072, 64) };
            analyze(seed, qfdbs, sources)
        }
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// The experiments set-up runs before anything is timed, so that lazy
/// initialisation is paid before the first repetition: a collective and a
/// random workload on the 512-QFDB torus (64 in smoke), which between them
/// reach the coalescing, incremental-solver and route-cache paths. Also
/// about 0.15 s of work, so that set-up is long enough to time.
pub fn warm_up_configs(smoke: bool) -> Result<[String; 2], String> {
    let (n, torus) = small_torus(smoke)?;
    Ok([
        entry(
            &torus,
            &format!("{{\"workload\":\"all_reduce\",\"tasks\":{n},\"bytes\":{MIB}}}"),
            "",
        ),
        pool_probe_config(smoke)?,
    ])
}

/// The experiment `sim.pool.auto_over_1` runs at one and at all threads:
/// UnstructuredApp on the 512-QFDB torus (64 in smoke).
pub fn pool_probe_config(smoke: bool) -> Result<String, String> {
    let (n, torus) = small_torus(smoke)?;
    Ok(entry(
        &torus,
        &format!("{{\"workload\":\"unstructured_app\",\"tasks\":{n},\"flows_per_task\":2,\"bytes\":{MIB},\"seed\":42}}"),
        "",
    ))
}

/// Size and spec JSON of the torus the warm-up and the pool probe run on.
fn small_torus(smoke: bool) -> Result<(u64, String), String> {
    let n = if smoke { 64 } else { 512 };
    Ok((n, spec_json(&SystemScale::new(n)?.torus_spec())))
}

fn spec_json(spec: &TopologySpec) -> String {
    serde_json::to_string(spec).expect("topology specs serialize")
}

/// The 26 topologies of Fig 4/5 that fit `scale`, as (u, spec JSON): the
/// 12-point hybrid grid under both upper tiers, then fattree and torus
/// (`u = 0`). Smoke scales are too small for the larger subtori and get
/// fewer.
fn figure_topologies(scale: SystemScale) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (t, u) in hybrid_grid() {
        for upper in [UpperTierKind::GeneralizedHypercube, UpperTierKind::Fattree] {
            if let Ok(spec) = scale.nested_spec(upper, t, u) {
                out.push((u, spec_json(&spec)));
            }
        }
    }
    out.push((0, spec_json(&scale.fattree_spec())));
    out.push((0, spec_json(&scale.torus_spec())));
    out
}

fn entry(topology: &str, workload: &str, extra: &str) -> String {
    format!("{{\"topology\":{topology},\"workload\":{workload},\"mapping\":{{\"mapping\":\"linear\"}}{extra}}}")
}

/// The suite document: a JSON array of `entries`.
pub fn suite_json(entries: &[String]) -> String {
    format!("[\n{}\n]", entries.join(",\n"))
}

/// Few flows, about a thousand completion events, each a near-global
/// water-fill: the random heavy workloads on four contrasting networks.
/// Every cell draws its own traffic, so that one unlucky draw moves one
/// sixteenth of the work and not a quarter of it.
fn heavy_random(seed: u64, qfdbs: u64) -> Result<Input, String> {
    let scale = SystemScale::new(qfdbs)?;
    let n = qfdbs;
    // The smoke scale cannot hold 4x4x4 subtori plus an upper tier worth
    // routing through, so it nests 2x2x2 ones under both upper tiers.
    let ghc_t = if qfdbs >= 1024 { 4 } else { 2 };
    let topologies = [
        spec_json(&scale.fattree_spec()),
        spec_json(&scale.torus_spec()),
        spec_json(&scale.nested_spec(UpperTierKind::GeneralizedHypercube, ghc_t, 2)?),
        spec_json(&scale.nested_spec(UpperTierKind::Fattree, 2, 4)?),
    ];
    let mut entries = Vec::new();
    for wi in 0..4u64 {
        for (ti, topology) in topologies.iter().enumerate() {
            let s = seed.wrapping_mul(16).wrapping_add(wi * 4 + ti as u64);
            let workload = match wi {
                0 => format!("{{\"workload\":\"unstructured_app\",\"tasks\":{n},\"flows_per_task\":1,\"bytes\":{MIB},\"seed\":{s}}}"),
                1 => format!("{{\"workload\":\"unstructured_hr\",\"tasks\":{n},\"flows_per_task\":1,\"bytes\":{MIB},\"hot_fraction\":0.125,\"hot_probability\":0.5,\"seed\":{s}}}"),
                2 => format!("{{\"workload\":\"bisection\",\"tasks\":{n},\"rounds\":2,\"bytes\":{MIB},\"seed\":{s}}}"),
                _ => format!("{{\"workload\":\"unstructured_mgnt\",\"tasks\":{n},\"flows_per_task\":1,\"seed\":{s}}}"),
            };
            entries.push(entry(topology, &workload, ""));
        }
    }
    Ok(Input::Suite { entries })
}

/// Millions of flows but few events: the deterministic collectives on the
/// whole Fig 4/5 topology grid. The paper's grid and linear placement are
/// fixed, so the seed does not enter.
fn collectives_grid(qfdbs: u64) -> Result<Input, String> {
    let scale = SystemScale::new(qfdbs)?;
    let n = qfdbs;
    let [gx, gy, gz] = scale.torus_dims();
    let workloads = [
        format!("{{\"workload\":\"all_reduce\",\"tasks\":{n},\"bytes\":{MIB}}}"),
        format!(
            "{{\"workload\":\"n_bodies\",\"tasks\":{},\"bytes\":{MIB}}}",
            n.min(512)
        ),
        format!(
            "{{\"workload\":\"sweep3d\",\"gx\":{gx},\"gy\":{gy},\"gz\":{gz},\"bytes\":{}}}",
            256 * KIB
        ),
        format!(
            "{{\"workload\":\"reduce\",\"tasks\":{n},\"bytes\":{}}}",
            64 * KIB
        ),
    ];
    let mut entries = Vec::new();
    for w in &workloads {
        for (_, t) in figure_topologies(scale) {
            entries.push(entry(&t, w, ""));
        }
    }
    Ok(Input::Suite { entries })
}

/// Many tiny runs, a third healthy, a third with one failed cable, a third
/// with mid-run faults: per-entry fixed cost, the topology cache and the
/// fault path carry the time.
fn campaign_small(seed: u64, qfdbs: u64) -> Result<Input, String> {
    let scale = SystemScale::new(qfdbs)?;
    let n = qfdbs;
    let [gx, gy, gz] = scale.torus_dims();
    let mut entries = Vec::new();
    for (ti, (u, topology)) in figure_topologies(scale).iter().enumerate() {
        for wi in 0..4usize {
            // One private seed per entry, distinct across benchmark seeds.
            let s = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((ti * 4 + wi) as u64);
            let workload = match wi {
                0 => format!("{{\"workload\":\"all_reduce\",\"tasks\":{n},\"bytes\":{MIB}}}"),
                1 => format!(
                    "{{\"workload\":\"sweep3d\",\"gx\":{gx},\"gy\":{gy},\"gz\":{gz},\"bytes\":{}}}",
                    256 * KIB
                ),
                2 => format!("{{\"workload\":\"unstructured_app\",\"tasks\":{n},\"flows_per_task\":1,\"bytes\":{MIB},\"seed\":{s}}}"),
                _ => format!(
                    "{{\"workload\":\"map_reduce\",\"tasks\":{},\"distribute_bytes\":{},\"shuffle_bytes\":{},\"gather_bytes\":{}}}",
                    n / 8,
                    4 * MIB,
                    64 * KIB,
                    64 * KIB
                ),
            };
            let extra = match (ti + wi) % 3 {
                // A one-uplink subtorus (u = 8) is legitimately partitioned
                // by one cable and returns a typed `unreachable` error; the
                // baseline must not fail, so those entries stay healthy.
                1 if *u != 8 => format!(",\"failures\":{{\"count\":1,\"seed\":{s}}}"),
                2 => format!(
                    ",\"fault_injection\":{{\"policy\":\"skip_unreachable\",\"schedule\":{{\"mode\":\"random\",\"seed\":{s},\"rate_per_s\":2000.0,\"horizon_s\":0.005,\"repair_s\":0.001}}}}"
                ),
                _ => String::new(),
            };
            entries.push(entry(topology, &workload, &extra));
        }
    }
    Ok(Input::Suite { entries })
}

/// No engine at all: topology build at paper scale plus sampled distance
/// evaluation on the two baselines and two hybrids. The seed picks the
/// hybrids among 16 pairs of equal cost: time and memory depend on `u` and
/// on whether `t` is 2 (measured per hybrid: 0.62-0.80 s, 20-53 MiB), so the
/// NestTree keeps `u = 1`, which sets the peak memory, and both `t` stay
/// above 2; only the NestGHC's `u` moves the time, by about 2 %.
fn analyze(seed: u64, qfdbs: u64, sources: usize) -> Result<Input, String> {
    let scale = SystemScale::new(qfdbs)?;
    // The two largest subtorus sizes that fit: 4 and 8 at full size.
    let ts: Vec<u32> = [8u32, 4, 2]
        .into_iter()
        .filter(|&t| scale.subtori(t).is_ok())
        .take(2)
        .collect();
    let i = (seed % 16) as usize;
    let (tree_t, ghc_t, ghc_u) = (ts[i & 1], ts[(i >> 1) & 1], [8u32, 4, 2, 1][i >> 2]);
    let specs = [
        scale.torus_spec(),
        scale.fattree_spec(),
        scale.nested_spec(UpperTierKind::Fattree, tree_t, 1)?,
        scale.nested_spec(UpperTierKind::GeneralizedHypercube, ghc_t, ghc_u)?,
    ];
    let specs: Vec<String> = specs.iter().map(spec_json).collect();
    Ok(Input::Analyze {
        qfdbs,
        sources,
        specs: format!("[{}]", specs.join(",")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaflow::{ExperimentConfig, TopologySpec};

    fn text(input: &Input) -> String {
        match input {
            Input::Suite { entries } => suite_json(entries),
            Input::Analyze {
                qfdbs,
                sources,
                specs,
            } => format!("{qfdbs} {sources} {specs}"),
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for smoke in [false, true] {
            for workload in WORKLOADS {
                let a = text(&generate(workload, 7, smoke).unwrap());
                assert_eq!(
                    a,
                    text(&generate(workload, 7, smoke).unwrap()),
                    "{workload}"
                );
                let b = text(&generate(workload, 8, smoke).unwrap());
                if workload == "collectives_grid_2048" {
                    assert_eq!(a, b, "the fixed grid must not depend on the seed");
                } else {
                    assert_ne!(a, b, "{workload} must depend on the seed");
                }
            }
        }
    }

    #[test]
    fn every_generated_config_parses_and_validates() {
        let mut extra = Vec::new();
        extra.extend(warm_up_configs(false).unwrap());
        extra.extend(warm_up_configs(true).unwrap());
        for smoke in [false, true] {
            for seed in [1, 2, 12345] {
                for workload in WORKLOADS {
                    match generate(workload, seed, smoke).unwrap() {
                        Input::Suite { entries } => {
                            let parsed: Vec<ExperimentConfig> =
                                serde_json::from_str(&suite_json(&entries)).unwrap();
                            assert_eq!(parsed.len(), entries.len());
                            extra.extend(entries);
                        }
                        Input::Analyze { qfdbs, specs, .. } => {
                            let specs: Vec<TopologySpec> = serde_json::from_str(&specs).unwrap();
                            assert_eq!(specs.len(), 4);
                            for spec in specs {
                                assert_eq!(spec.num_endpoints() as u64, qfdbs, "{spec:?}");
                            }
                        }
                    }
                }
            }
        }
        for entry in extra {
            let cfg: ExperimentConfig = serde_json::from_str(&entry).expect(&entry);
            cfg.workload.validate().expect(&entry);
            cfg.sim.validate().expect(&entry);
            let (tasks, endpoints) = (cfg.workload.num_tasks(), cfg.topology.num_endpoints());
            assert!(tasks <= endpoints, "{entry}");
            cfg.mapping.validate(tasks, endpoints).expect(&entry);
        }
    }

    #[test]
    fn full_size_operation_counts() {
        let count = |workload: &str| match generate(workload, 1, false).unwrap() {
            Input::Suite { entries } => entries.len(),
            Input::Analyze { .. } => 4,
        };
        assert_eq!(count("heavy_random_1024"), 16);
        assert_eq!(count("collectives_grid_2048"), 4 * 26);
        assert_eq!(count("campaign_small_512"), 4 * 26);
    }

    #[test]
    fn campaign_mixes_three_modes_and_spares_one_uplink_hybrids() {
        let Input::Suite { entries } = generate("campaign_small_512", 1, false).unwrap() else {
            panic!("the campaign is a suite");
        };
        let with = |needle: &str| entries.iter().filter(|e| e.contains(needle)).count();
        let (failed, faulted) = (with("\"failures\""), with("\"fault_injection\""));
        assert!(failed >= 20 && faulted >= 30, "{failed} {faulted}");
        assert!(entries.len() - failed - faulted >= 30);
        assert!(entries
            .iter()
            .all(|e| !(e.contains("\"u\":8") && e.contains("\"failures\""))));
    }
}
