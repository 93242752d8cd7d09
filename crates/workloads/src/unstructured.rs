//! Unstructured traffic: random application traffic, datacentre management
//! traffic, hot-region traffic, and random pairwise bisection exchange.

use crate::mapping::TaskMapping;
use exaflow_sim::{FlowDag, FlowDagBuilder, FlowId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// [`WorkloadSpec::UnstructuredApp`](crate::WorkloadSpec::UnstructuredApp):
/// `bytes`-sized messages to uniformly random other tasks.
pub(crate) fn app(
    tasks: usize,
    flows_per_task: usize,
    bytes: u64,
    seed: u64,
    mapping: &TaskMapping,
) -> FlowDag {
    random_pairs(
        tasks,
        flows_per_task,
        mapping,
        seed,
        |_rng| bytes,
        uniform_other,
    )
}

/// Draw a flow size from the Kandula-style mixture of
/// [`WorkloadSpec::UnstructuredMgnt`](crate::WorkloadSpec::UnstructuredMgnt).
fn mgnt_flow_bytes(rng: &mut impl Rng) -> u64 {
    let class: f64 = rng.random();
    let (lo, hi): (f64, f64) = if class < 0.80 {
        (100.0, 10e3)
    } else if class < 0.95 {
        (10e3, 1e6)
    } else {
        (1e6, 50e6)
    };
    // Log-uniform within the class.
    let u: f64 = rng.random();
    (lo * (hi / lo).powf(u)) as u64
}

/// [`WorkloadSpec::UnstructuredMgnt`](crate::WorkloadSpec::UnstructuredMgnt):
/// messages to uniformly random other tasks, sized by [`mgnt_flow_bytes`].
pub(crate) fn mgnt(
    tasks: usize,
    flows_per_task: usize,
    seed: u64,
    mapping: &TaskMapping,
) -> FlowDag {
    random_pairs(
        tasks,
        flows_per_task,
        mapping,
        seed,
        mgnt_flow_bytes,
        uniform_other,
    )
}

/// [`WorkloadSpec::UnstructuredHr`](crate::WorkloadSpec::UnstructuredHr):
/// like [`app`], but with probability `hot_probability` a
/// message targets the hot tasks `0..round(tasks * hot_fraction)`.
pub(crate) fn hot_region(
    tasks: usize,
    flows_per_task: usize,
    bytes: u64,
    hot_fraction: f64,
    hot_probability: f64,
    seed: u64,
    mapping: &TaskMapping,
) -> FlowDag {
    assert!((0.0..=1.0).contains(&hot_fraction));
    assert!((0.0..=1.0).contains(&hot_probability));
    let hot = ((tasks as f64 * hot_fraction).round() as usize).max(1);
    random_pairs(
        tasks,
        flows_per_task,
        mapping,
        seed,
        |_rng| bytes,
        move |rng, src, n| {
            // Hot tasks are 0..hot (the mapping decides where they sit).
            loop {
                let dst = if rng.random::<f64>() < hot_probability {
                    rng.random_range(0..hot)
                } else {
                    rng.random_range(0..n)
                };
                if dst != src {
                    return dst;
                }
            }
        },
    )
}

/// [`WorkloadSpec::Bisection`](crate::WorkloadSpec::Bisection): pairwise
/// exchanges under a fresh random perfect matching every round; a pair's
/// round-r flows wait for both tasks' round-(r−1) flows.
pub(crate) fn bisection(
    tasks: usize,
    rounds: u32,
    bytes: u64,
    seed: u64,
    mapping: &TaskMapping,
) -> FlowDag {
    assert!(
        tasks >= 2 && tasks.is_multiple_of(2),
        "Bisection needs an even task count"
    );
    assert!(rounds >= 1);
    assert!(mapping.len() >= tasks);
    let n = tasks;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = FlowDagBuilder::with_capacity(n * rounds as usize, 2 * n * rounds as usize);
    // prev[t]: the two flows (send+recv) task t took part in last round.
    let mut prev: Vec<Vec<FlowId>> = vec![Vec::new(); n];
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..rounds {
        order.shuffle(&mut rng);
        let mut cur: Vec<Vec<FlowId>> = vec![Vec::with_capacity(2); n];
        for pair in order.chunks_exact(2) {
            let (a, c) = (pair[0], pair[1]);
            let deps_a: Vec<FlowId> = prev[a].iter().chain(prev[c].iter()).copied().collect();
            let f1 = b.add_flow(mapping.node_of(a), mapping.node_of(c), bytes, &deps_a);
            let f2 = b.add_flow(mapping.node_of(c), mapping.node_of(a), bytes, &deps_a);
            cur[a].extend([f1, f2]);
            cur[c].extend([f1, f2]);
        }
        prev = cur;
    }
    b.build()
}

/// Common machinery: `tasks` senders each emit `flows_per_task` messages to
/// destinations drawn by `pick_dst`, with sizes drawn by `size_of`, chained
/// per sender.
fn random_pairs(
    tasks: usize,
    flows_per_task: usize,
    mapping: &TaskMapping,
    seed: u64,
    mut size_of: impl FnMut(&mut StdRng) -> u64,
    mut pick_dst: impl FnMut(&mut StdRng, usize, usize) -> usize,
) -> FlowDag {
    assert!(tasks >= 2, "need at least two tasks");
    assert!(mapping.len() >= tasks);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = FlowDagBuilder::with_capacity(tasks * flows_per_task, tasks * flows_per_task);
    let mut last: Vec<Option<FlowId>> = vec![None; tasks];
    // Round-robin the senders so flow ids interleave fairly.
    for _ in 0..flows_per_task {
        for (src, slot) in last.iter_mut().enumerate() {
            let dst = pick_dst(&mut rng, src, tasks);
            debug_assert_ne!(dst, src);
            let bytes = size_of(&mut rng);
            *slot = Some(b.add_flow(
                mapping.node_of(src),
                mapping.node_of(dst),
                bytes,
                slot.as_slice(),
            ));
        }
    }
    b.build()
}

fn uniform_other(rng: &mut StdRng, src: usize, n: usize) -> usize {
    let dst = rng.random_range(0..n - 1);
    if dst >= src {
        dst + 1
    } else {
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;

    fn map(n: usize) -> TaskMapping {
        TaskMapping::linear(n, n)
    }

    #[test]
    fn app_counts_and_no_self_traffic() {
        let w = WorkloadSpec::UnstructuredApp {
            tasks: 16,
            flows_per_task: 10,
            bytes: 500,
            seed: 3,
        };
        let dag = w.generate(&map(16));
        assert_eq!(dag.len(), 160);
        for f in dag.flows() {
            assert_ne!(f.src, f.dst);
            assert_eq!(f.bytes, 500);
        }
    }

    /// A sender's previous flow is passed as `Option::as_slice`; a DAG
    /// built with a collected `Vec` per flow must be identical.
    #[test]
    fn dag_matches_the_vec_per_flow_construction() {
        let (tasks, flows_per_task, bytes, seed) = (8, 3, 5, 11);
        let mapping = map(tasks);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = FlowDagBuilder::new();
        let mut last: Vec<Option<FlowId>> = vec![None; tasks];
        for _ in 0..flows_per_task {
            for (src, slot) in last.iter_mut().enumerate() {
                let dst = uniform_other(&mut rng, src, tasks);
                let deps: Vec<FlowId> = slot.iter().copied().collect();
                *slot = Some(b.add_flow(mapping.node_of(src), mapping.node_of(dst), bytes, &deps));
            }
        }
        let dag = WorkloadSpec::UnstructuredApp {
            tasks,
            flows_per_task,
            bytes,
            seed,
        }
        .generate(&mapping);
        assert_eq!(
            serde_json::to_string(&dag).unwrap(),
            serde_json::to_string(&b.build()).unwrap()
        );
    }

    #[test]
    fn app_deterministic_in_seed() {
        let w = |seed| WorkloadSpec::UnstructuredApp {
            tasks: 8,
            flows_per_task: 4,
            bytes: 1,
            seed,
        };
        let a = w(1).generate(&map(8));
        let b = w(1).generate(&map(8));
        let c = w(2).generate(&map(8));
        assert_eq!(a.flows(), b.flows());
        assert_ne!(a.flows(), c.flows());
    }

    #[test]
    fn mgnt_sizes_follow_mixture() {
        let mut rng = StdRng::seed_from_u64(42);
        let sizes: Vec<u64> = (0..20_000).map(|_| mgnt_flow_bytes(&mut rng)).collect();
        let mice = sizes.iter().filter(|&&s| s <= 10_000).count() as f64 / 20_000.0;
        let elephants = sizes.iter().filter(|&&s| s >= 1_000_000).count() as f64 / 20_000.0;
        assert!((mice - 0.8).abs() < 0.02, "mice fraction {mice}");
        assert!(
            (elephants - 0.05).abs() < 0.01,
            "elephant fraction {elephants}"
        );
        assert!(sizes.iter().all(|&s| (100..=50_000_000).contains(&s)));
    }

    #[test]
    fn hot_region_is_hot() {
        let w = WorkloadSpec::UnstructuredHr {
            tasks: 64,
            flows_per_task: 50,
            bytes: 1,
            hot_fraction: 0.125,
            hot_probability: 0.5,
            seed: 9,
        };
        let dag = w.generate(&map(64));
        let hot_targets = dag.flows().iter().filter(|f| f.dst < 8).count() as f64;
        let frac = hot_targets / dag.len() as f64;
        // ~0.5 + 0.5*(8/64) ≈ 0.56 expected.
        assert!(frac > 0.4, "hot fraction {frac}");
        assert!(frac < 0.7, "hot fraction {frac}");
    }

    #[test]
    fn bisection_rounds_pair_everyone() {
        let w = WorkloadSpec::Bisection {
            tasks: 8,
            rounds: 3,
            bytes: 7,
            seed: 5,
        };
        let dag = w.generate(&map(8));
        assert_eq!(dag.len(), 8 * 3);
        // Every round: each task appears in exactly one pair (2 flows).
        for r in 0..3 {
            let flows = &dag.flows()[r * 8..(r + 1) * 8];
            let mut touched = std::collections::HashMap::new();
            for f in flows {
                *touched.entry(f.src).or_insert(0) += 1;
                *touched.entry(f.dst).or_insert(0) += 1;
            }
            assert_eq!(touched.len(), 8);
            assert!(touched.values().all(|&c| c == 2));
        }
    }

    #[test]
    fn bisection_rounds_depend_on_previous() {
        let w = WorkloadSpec::Bisection {
            tasks: 4,
            rounds: 2,
            bytes: 1,
            seed: 1,
        };
        let dag = w.generate(&map(4));
        for i in 4..8 {
            assert!(!dag.preds(FlowId(i as u32)).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "even task count")]
    fn bisection_odd_rejected() {
        WorkloadSpec::Bisection {
            tasks: 5,
            rounds: 1,
            bytes: 1,
            seed: 0,
        }
        .generate(&map(5));
    }

    #[test]
    fn uniform_other_never_self() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let d = uniform_other(&mut rng, 3, 10);
            assert_ne!(d, 3);
            assert!(d < 10);
        }
    }

    #[test]
    fn sender_chains_serialised() {
        let w = WorkloadSpec::UnstructuredApp {
            tasks: 4,
            flows_per_task: 3,
            bytes: 1,
            seed: 0,
        };
        let dag = w.generate(&map(4));
        // Flows are emitted round-robin: flow (round*4 + src). Each flow
        // after round 0 depends on the same sender's previous flow.
        for round in 1..3u32 {
            for src in 0..4u32 {
                let id = FlowId(round * 4 + src);
                assert_eq!(dag.preds(id), &[(round - 1) * 4 + src]);
            }
        }
    }
}
