//! Property tests for the entry API of [`MaxMinSolver`]: under arbitrary
//! join/leave/reroute/invalidate sequences — identical paths coalescing,
//! under real `FaultOverlay` path churn, under the fastest-first departures
//! that make full passes replay their logged prefix, and under batches that
//! re-issue the paths they just retired (which the settle elides) — the
//! rates match `textbook_maxmin`, plain progressive filling over the same
//! flow set, and every full pass counts the textbook's rounds.
//!
//! The design guarantee is stronger than the 1e-9 tolerance the engine
//! needs: the solver is *bit-identical* to the textbook (see the `maxmin`
//! module docs), and that is what these tests assert.

use exaflow_netgraph::{LinkId, NodeId};
use exaflow_sim::maxmin::MaxMinSolver;
use exaflow_sim::trace_check::textbook_maxmin;
use exaflow_sim::PathTable;
use exaflow_topo::{FaultOverlay, Topology, Torus};
use proptest::prelude::*;

const RESOURCES: usize = 24;

/// Resources of the wide churn: enough that components routinely span
/// many of them.
const WIDE_RESOURCES: usize = 128;

/// Arbitrary loop-free paths over `RESOURCES` resources. Empty paths are
/// legal (unconstrained flows).
fn path_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..RESOURCES as u32, 0..6).prop_map(|mut p| {
        p.sort_unstable();
        p.dedup();
        p
    })
}

fn caps_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.5f64..500.0, RESOURCES)
}

/// Op stream for [`run_churn`]: the `u8` selects the op, the path feeds
/// joins and reroutes, the `usize` picks the affected flow.
fn ops_strategy(
    path: impl Strategy<Value = Vec<u32>>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(u8, Vec<u32>, usize)>> {
    prop::collection::vec((0u8..8, path, 0usize..1 << 16), len)
}

/// Intern `path` into the run's table and register one flow on it.
fn insert(solver: &mut MaxMinSolver, table: &mut PathTable, path: &[u32]) -> u32 {
    let id = table.intern(path);
    solver.insert_entry(table, id)
}

/// Recompute, then hold the solver to the textbook over the live flows:
/// every per-flow rate bit-identical (which trivially satisfies the 1e-9
/// requirement) and, when the recompute ran a full pass, exactly the
/// textbook's number of freeze rounds.
fn recompute_and_check(
    solver: &mut MaxMinSolver,
    table: &PathTable,
    threshold: f64,
    live: &[(u32, Vec<u32>)],
    caps: &[f64],
    step: usize,
) {
    let before = solver.iterations;
    solver.recompute(table, threshold);
    let paths: Vec<&[u32]> = live.iter().map(|(_, p)| p.as_slice()).collect();
    let (want, rounds) = textbook_maxmin(caps, &paths);
    for (i, &(entry, ref path)) in live.iter().enumerate() {
        let got = solver.entry_rate(entry);
        assert!(
            got.to_bits() == want[i].to_bits(),
            "step {step}, flow {i} (path {path:?}): solver {got:e} != textbook {:e}",
            want[i]
        );
    }
    if solver.last_pass_full {
        assert_eq!(
            solver.iterations - before,
            rounds,
            "step {step}: a full pass counted different freeze rounds"
        );
    }
}

/// Drive one solver through `preload` and then `ops` — 0, 1 and 6 join;
/// 2 / 3 retire the fastest / slowest flow, the departures that let full
/// passes replay their logged prefix (`maxmin` module docs); 4 retires and
/// 5 reroutes a flow picked at random; 7 invalidates — and hold every
/// recompute to the textbook. Identical paths coalesce into weighted
/// entries, which must still land on the separate-flow rates.
fn run_churn(
    caps: Vec<f64>,
    preload: Vec<Vec<u32>>,
    ops: Vec<(u8, Vec<u32>, usize)>,
    threshold: f64,
) {
    let mut solver = MaxMinSolver::new(caps.clone()).unwrap();
    let mut table = PathTable::new();
    // Mirror of the live flows: (entry id, path). Coalesced flows share ids.
    let mut live: Vec<(u32, Vec<u32>)> = Vec::new();
    for path in preload {
        live.push((insert(&mut solver, &mut table, &path), path));
    }
    let ops = std::iter::once((u8::MAX, Vec::new(), 0)).chain(ops);
    for (step, (kind, path, pick)) in ops.enumerate() {
        // Index of the live flow with the extreme rate (first among ties).
        let extreme = |solver: &MaxMinSolver, live: &[(u32, Vec<u32>)], fastest: bool| {
            let key = |i: &usize| solver.entry_rate(live[*i].0);
            let cmp = |a: &usize, b: &usize| key(a).partial_cmp(&key(b)).unwrap().then(b.cmp(a));
            let all = 0..live.len();
            if fastest {
                all.max_by(cmp)
            } else {
                all.min_by(cmp)
            }
        };
        let victim = match kind {
            2 | 3 => extreme(&solver, &live, kind == 2),
            4 | 5 if !live.is_empty() => Some(pick % live.len()),
            _ => None,
        };
        if let Some(i) = victim {
            let (id, _) = live.swap_remove(i);
            solver.remove_entry(id);
        }
        match kind {
            0 | 1 | 5 | 6 => live.push((insert(&mut solver, &mut table, &path), path)),
            7 => solver.invalidate_all(),
            _ => {}
        }
        recompute_and_check(&mut solver, &table, threshold, &live, &caps, step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Churn over random capacities, any threshold.
    #[test]
    fn churn_matches_the_textbook(
        caps in caps_strategy(),
        ops in ops_strategy(path_strategy(), 1..50),
        threshold in 0.0f64..1.2,
    ) {
        run_churn(caps, Vec::new(), ops, threshold);
    }

    /// A degenerate threshold of 0 forces a full pass on every recompute
    /// that finds a change.
    #[test]
    fn zero_threshold_always_full(
        caps in caps_strategy(),
        ops in ops_strategy(path_strategy(), 1..50),
    ) {
        run_churn(caps, Vec::new(), ops, 0.0);
    }
}

/// Non-empty-biased short paths: with equal capacities almost every share
/// is `cap / small integer`, so bottlenecks tie constantly.
fn tie_path_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..RESOURCES as u32, 1..4).prop_map(|mut p| {
        p.sort_unstable();
        p.dedup();
        p
    })
}

// No `proptest_config`: the case count follows `PROPTEST_CASES`, which
// `scripts/check.sh` raises for this file.
proptest! {
    /// Churn shaped like the engine's heavy random workloads, aimed at the
    /// merge replay: every capacity equal, a preloaded giant component,
    /// full passes every recompute (threshold 0) or most of them (0.5).
    #[test]
    fn replayed_passes_match_the_textbook_under_tie_heavy_churn(
        cap in prop::sample::select(vec![1.0f64, 3.0, 10.0]),
        preload in prop::collection::vec(tie_path_strategy(), 8..40),
        ops in ops_strategy(tie_path_strategy(), 1..60),
        threshold in prop::sample::select(vec![0.0f64, 0.5]),
    ) {
        run_churn(vec![cap; RESOURCES], preload, ops, threshold);
    }

    /// Re-issue churn, the shape of the paper's iterative workloads: every
    /// step retires a subset of the flows and, before the one recompute
    /// that follows, re-issues some of the very paths it retired next to
    /// some new ones. The settle must tell the entries that ended where
    /// they started (untouched) from those that did not (re-solved).
    #[test]
    fn reissued_paths_match_the_textbook_under_tie_heavy_churn(
        cap in prop::sample::select(vec![1.0f64, 3.0, 10.0]),
        preload in prop::collection::vec(tie_path_strategy(), 8..40),
        steps in prop::collection::vec(
            (
                // Per live flow: retire it? Per retired flow: re-issue it?
                prop::collection::vec(any::<bool>(), 48),
                prop::collection::vec(any::<bool>(), 48),
                prop::collection::vec(tie_path_strategy(), 0..4),
            ),
            1..24,
        ),
        threshold in prop::sample::select(vec![0.0f64, 0.5]),
    ) {
        let caps = vec![cap; RESOURCES];
        let mut solver = MaxMinSolver::new(caps.clone()).unwrap();
        let mut table = PathTable::new();
        let mut live: Vec<(u32, Vec<u32>)> = preload
            .into_iter()
            .map(|path| (insert(&mut solver, &mut table, &path), path))
            .collect();
        recompute_and_check(&mut solver, &table, threshold, &live, &caps, usize::MAX);
        for (step, (retire, reissue, fresh)) in steps.into_iter().enumerate() {
            let mut retired: Vec<Vec<u32>> = Vec::new();
            let mut i = 0;
            live.retain(|(id, path)| {
                let go = retire[i % retire.len()];
                i += 1;
                if go {
                    solver.remove_entry(*id);
                    retired.push(path.clone());
                }
                !go
            });
            let back = retired
                .into_iter()
                .enumerate()
                .filter(|(i, _)| reissue[i % reissue.len()])
                .map(|(_, path)| path);
            for path in back.chain(fresh) {
                live.push((insert(&mut solver, &mut table, &path), path));
            }
            let live_entries: std::collections::HashSet<u32> =
                live.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(solver.live_entries(), live_entries.len());
            recompute_and_check(&mut solver, &table, threshold, &live, &caps, step);
        }
    }
}

/// Paths for the wide churn test: wider and longer than [`path_strategy`]
/// so components routinely span many resources.
fn wide_path_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..WIDE_RESOURCES as u32, 0..12).prop_map(|mut p| {
        p.sort_unstable();
        p.dedup();
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Churn on top of one 192-entry component: every preloaded entry
    /// crosses resource 0, so any pass touching the component covers all
    /// of them, and the ops grow, shrink and reroute it.
    #[test]
    fn wide_shared_bottleneck_churn_matches_the_textbook(
        caps in prop::collection::vec(0.5f64..500.0, WIDE_RESOURCES),
        ops in ops_strategy(wide_path_strategy(), 1..30),
        threshold in 0.0f64..1.2,
    ) {
        let preload = (0..192u32)
            .map(|i| vec![0, 1 + i % (WIDE_RESOURCES as u32 - 1)])
            .collect();
        run_churn(caps, preload, ops, threshold);
    }
}

/// Engine-shaped churn through a real [`FaultOverlay`]: flows between
/// endpoint pairs of a 4x4 torus, links failing and recovering mid-stream,
/// affected entries rerouted (or dropped when partitioned) and the solver
/// invalidated — exactly the `run_with` contract.
#[test]
fn overlay_path_churn_matches_the_textbook() {
    let topo = Torus::new(&[4, 4]);
    let num_links = topo.network().num_links();
    let num_eps = topo.num_endpoints();
    let caps = vec![10e9; num_links + 2 * num_eps];
    let build = |overlay: &mut FaultOverlay, src: u32, dst: u32| -> Option<Vec<u32>> {
        let mut links: Vec<LinkId> = Vec::new();
        overlay
            .try_route(NodeId(src), NodeId(dst), &mut links)
            .ok()?;
        let mut p = vec![(num_links + src as usize) as u32];
        p.extend(links.iter().map(|l| l.0));
        p.push((num_links + num_eps + dst as usize) as u32);
        Some(p)
    };

    let mut overlay = FaultOverlay::new(&topo);
    let mut solver = MaxMinSolver::new(caps.clone()).unwrap();
    let mut table = PathTable::new();
    let mut live: Vec<(u32, u32, u32, Vec<u32>)> = Vec::new(); // (entry, src, dst, path)
    let mut x = 0x2545F49_u64; // deterministic xorshift stream
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for step in 0..400 {
        match rng() % 5 {
            0 | 1 => {
                // Join a random pair (duplicates welcome: they coalesce).
                let (src, dst) = (rng() as u32 % 16, rng() as u32 % 16);
                if src != dst {
                    if let Some(p) = build(&mut overlay, src, dst) {
                        let id = insert(&mut solver, &mut table, &p);
                        live.push((id, src, dst, p));
                    }
                }
            }
            2 => {
                if !live.is_empty() {
                    let i = rng() as usize % live.len();
                    let (id, ..) = live.swap_remove(i);
                    solver.remove_entry(id);
                }
            }
            3 => {
                // Fail a link; reroute every flow crossing it.
                let l = rng() as u32 % num_links as u32;
                if overlay.fail_link(LinkId(l)) {
                    solver.invalidate_all();
                    let mut i = 0;
                    while i < live.len() {
                        if !live[i].3.contains(&l) {
                            i += 1;
                            continue;
                        }
                        let (id, src, dst, _) = live[i].clone();
                        solver.remove_entry(id);
                        match build(&mut overlay, src, dst) {
                            Some(p) => {
                                let nid = insert(&mut solver, &mut table, &p);
                                live[i] = (nid, src, dst, p);
                                i += 1;
                            }
                            None => {
                                live.swap_remove(i); // partitioned: drop
                            }
                        }
                    }
                }
            }
            _ => {
                let l = rng() as u32 % num_links as u32;
                if overlay.restore_link(LinkId(l)) {
                    solver.invalidate_all();
                }
            }
        }
        let flows: Vec<(u32, Vec<u32>)> =
            live.iter().map(|(id, _, _, p)| (*id, p.clone())).collect();
        recompute_and_check(&mut solver, &table, 0.5, &flows, &caps, step);
    }
    assert!(solver.rate_recomputes > 0);
}
