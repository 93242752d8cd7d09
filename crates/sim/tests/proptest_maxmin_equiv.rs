//! Property tests for the incremental entry API of [`MaxMinSolver`]: under
//! arbitrary join/leave/reroute/invalidate sequences — with and without
//! coalescing, under real `FaultOverlay` path churn, under the
//! fastest-first departures that make full passes replay their logged
//! prefix, and under batches that re-issue the paths they just retired
//! (which the settle elides) — the incremental rates match a from-scratch
//! `MaxMinSolver::solve` over the same flow set.
//!
//! The design guarantee is stronger than the 1e-9 tolerance the engine
//! needs: the incremental path is *bit-identical* to the full solve (see
//! the `maxmin` module docs), and that is what these tests assert.

use exaflow_netgraph::{LinkId, NodeId};
use exaflow_sim::maxmin::{MaxMinSolver, PARALLEL_MIN_ENTRIES};
use exaflow_sim::{PathTable, WorkerPool};
use exaflow_topo::{FaultOverlay, Topology, Torus};
use proptest::prelude::*;

const RESOURCES: usize = 24;

/// Resource pool wide enough that passes regularly clear
/// [`PARALLEL_MIN_ENTRIES`] and actually dispatch to the worker pool.
const WIDE_RESOURCES: usize = 2 * PARALLEL_MIN_ENTRIES;

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

/// Op stream: the `u8` selects join/leave/reroute/invalidate, the path
/// feeds joins and reroutes, the `usize` picks the affected flow.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, Vec<u32>, usize)>> {
    prop::collection::vec((0u8..8, path_strategy(), 0usize..1 << 16), 1..50)
}

/// Intern `path` into the run's table and register one flow on it.
fn insert(solver: &mut MaxMinSolver, table: &mut PathTable, path: &[u32], coalesce: bool) -> u32 {
    let id = table.intern(path);
    solver.insert_entry(table, id, coalesce)
}

/// From-scratch reference: a fresh solver's `solve` over `paths`.
fn reference_rates(caps: &[f64], paths: &[Vec<u32>]) -> Vec<f64> {
    let mut solver = MaxMinSolver::new(caps.to_vec()).unwrap();
    let mut rates = vec![0.0; paths.len()];
    solver.solve(paths, &mut rates);
    rates
}

/// Assert the incremental solver's per-flow rates are bit-identical to the
/// reference (which trivially satisfies the 1e-9 requirement).
fn assert_rates_match(solver: &MaxMinSolver, live: &[(u32, Vec<u32>)], caps: &[f64], step: usize) {
    let paths: Vec<Vec<u32>> = live.iter().map(|(_, p)| p.clone()).collect();
    let want = reference_rates(caps, &paths);
    for (i, &(entry, ref path)) in live.iter().enumerate() {
        let got = solver.entry_rate(entry);
        assert!(
            got.to_bits() == want[i].to_bits(),
            "step {step}, flow {i} (path {path:?}): incremental {got:e} != full {:e}",
            want[i]
        );
    }
}

fn run_op_sequence(
    caps: Vec<f64>,
    ops: Vec<(u8, Vec<u32>, usize)>,
    coalesce: bool,
    threshold: f64,
) {
    let mut solver = MaxMinSolver::new(caps.clone()).unwrap();
    let mut table = PathTable::new();
    // Mirror of the live flows: (entry id, path). Coalesced flows share ids.
    let mut live: Vec<(u32, Vec<u32>)> = Vec::new();
    for (step, (kind, path, pick)) in ops.into_iter().enumerate() {
        match kind {
            0..=2 => {
                let id = insert(&mut solver, &mut table, &path, coalesce);
                live.push((id, path));
            }
            3 | 4 => {
                if !live.is_empty() {
                    let (id, _) = live.swap_remove(pick % live.len());
                    solver.remove_entry(id);
                }
            }
            5 | 6 => {
                if !live.is_empty() {
                    let i = pick % live.len();
                    solver.remove_entry(live[i].0);
                    let id = insert(&mut solver, &mut table, &path, coalesce);
                    live[i] = (id, path);
                }
            }
            _ => solver.invalidate_all(),
        }
        solver.recompute(&table, true, threshold);
        assert_rates_match(&solver, &live, &caps, step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Join/leave/reroute/invalidate churn, uncoalesced entries.
    #[test]
    fn incremental_matches_full_solve(
        caps in caps_strategy(),
        ops in ops_strategy(),
        threshold in 0.0f64..1.2,
    ) {
        run_op_sequence(caps, ops, false, threshold);
    }

    /// The same churn with identical-path coalescing: weighted entries must
    /// still land on the exact rates of the separate-flow solve.
    #[test]
    fn coalesced_incremental_matches_full_solve(
        caps in caps_strategy(),
        ops in ops_strategy(),
        threshold in 0.0f64..1.2,
    ) {
        run_op_sequence(caps, ops, true, threshold);
    }

    /// A degenerate threshold of 0 forces the full-fallback path on every
    /// recompute; it must agree with the purely incremental path.
    #[test]
    fn zero_threshold_always_full(caps in caps_strategy(), ops in ops_strategy()) {
        run_op_sequence(caps, ops, true, 0.0);
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

/// Churn shaped like the engine's heavy random workloads, aimed at the
/// prefix replay (`maxmin` module docs): every capacity equal, departures
/// biased to the fastest and the slowest entry. `fast` replays; `reference`
/// runs every pass from scratch (`incremental = false`). Rates must match
/// a fresh `solve` bit for bit, and every full pass of `fast` must count
/// exactly the freeze rounds the from-scratch pass counts.
fn run_replay_churn(
    cap: f64,
    preload: Vec<Vec<u32>>,
    ops: Vec<(u8, Vec<u32>, usize)>,
    coalesce: bool,
    threshold: f64,
) {
    let caps = vec![cap; RESOURCES];
    let mut fast = MaxMinSolver::new(caps.clone()).unwrap();
    let mut reference = MaxMinSolver::new(caps.clone()).unwrap();
    let mut table = PathTable::new();
    let mut live: Vec<(u32, Vec<u32>)> = Vec::new();
    let insert = |fast: &mut MaxMinSolver,
                  reference: &mut MaxMinSolver,
                  table: &mut PathTable,
                  path: Vec<u32>| {
        let p = table.intern(&path);
        let id = fast.insert_entry(table, p, coalesce);
        assert_eq!(id, reference.insert_entry(table, p, coalesce));
        (id, path)
    };
    for path in preload {
        live.push(insert(&mut fast, &mut reference, &mut table, path));
    }
    let ops = std::iter::once((u8::MAX, Vec::new(), 0)).chain(ops);
    for (step, (kind, path, pick)) in ops.enumerate() {
        // Index of the live flow with the extreme rate (first among ties).
        let extreme = |fast: &MaxMinSolver, live: &[(u32, Vec<u32>)], fastest: bool| {
            let key = |i: &usize| fast.entry_rate(live[*i].0);
            let cmp = |a: &usize, b: &usize| key(a).partial_cmp(&key(b)).unwrap().then(b.cmp(a));
            let all = 0..live.len();
            if fastest {
                all.max_by(cmp)
            } else {
                all.min_by(cmp)
            }
        };
        let victim = match kind {
            2 | 3 => extreme(&fast, &live, true),
            4 => extreme(&fast, &live, false),
            5 | 6 if !live.is_empty() => Some(pick % live.len()),
            _ => None,
        };
        if let Some(i) = victim {
            let (id, _) = live.swap_remove(i);
            fast.remove_entry(id);
            reference.remove_entry(id);
        }
        match kind {
            0 | 1 | 6 => live.push(insert(&mut fast, &mut reference, &mut table, path)),
            7 => {
                fast.invalidate_all();
                reference.invalidate_all();
            }
            _ => {}
        }
        let before = (fast.iterations, reference.iterations);
        fast.recompute(&table, true, threshold);
        reference.recompute(&table, false, threshold);
        assert_rates_match(&fast, &live, &caps, step);
        if fast.last_pass_full {
            assert_eq!(
                fast.iterations - before.0,
                reference.iterations - before.1,
                "step {step}: a replayed pass counted different freeze rounds"
            );
        }
    }
    assert_eq!(reference.replayed_rounds, 0);
}

// No `proptest_config`: the case count follows `PROPTEST_CASES`, which
// `scripts/check.sh` raises for this file.
proptest! {
    #[test]
    fn replayed_passes_match_from_scratch_under_tie_heavy_churn(
        cap in prop::sample::select(vec![1.0f64, 3.0, 10.0]),
        preload in prop::collection::vec(tie_path_strategy(), 8..40),
        ops in prop::collection::vec((0u8..8, tie_path_strategy(), 0usize..1 << 16), 1..60),
        coalesce in any::<bool>(),
        threshold in prop::sample::select(vec![0.0f64, 0.5]),
    ) {
        run_replay_churn(cap, preload, ops, coalesce, threshold);
    }

    /// Re-issue churn, the shape of the paper's iterative workloads: every
    /// step retires a subset of the flows and, before the one recompute
    /// that follows, re-issues some of the very paths it retired next to
    /// some new ones. The settle must tell the entries that ended where
    /// they started (untouched) from those that did not (re-solved).
    #[test]
    fn reissued_paths_match_a_fresh_solve_under_tie_heavy_churn(
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
            .map(|path| (insert(&mut solver, &mut table, &path, true), path))
            .collect();
        solver.recompute(&table, true, threshold);
        assert_rates_match(&solver, &live, &caps, usize::MAX);
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
                live.push((insert(&mut solver, &mut table, &path, true), path));
            }
            let live_entries: std::collections::HashSet<u32> =
                live.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(solver.live_entries(), live_entries.len());
            solver.recompute(&table, true, threshold);
            assert_rates_match(&solver, &live, &caps, step);
        }
    }
}

/// Paths for the threaded churn test: wider and longer than
/// [`path_strategy`] so components routinely span many resources.
fn wide_path_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..WIDE_RESOURCES as u32, 0..12).prop_map(|mut p| {
        p.sort_unstable();
        p.dedup();
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The churn of `incremental_matches_full_solve` stepped through three
    /// solvers in lockstep — no pool, a 2-thread pool, an 8-thread pool:
    /// every live entry's rate is `to_bits`-identical across all three at
    /// every step, and the pooled solvers genuinely run the parallel
    /// water-fill (a preload of shared-bottleneck entries keeps every
    /// pass over them above [`PARALLEL_MIN_ENTRIES`]).
    #[test]
    fn threaded_churn_is_bit_identical_across_pool_sizes(
        caps in prop::collection::vec(0.5f64..500.0, WIDE_RESOURCES),
        ops in prop::collection::vec(
            (0u8..8, wide_path_strategy(), 0usize..1 << 16),
            1..30,
        ),
        threshold in 0.0f64..1.2,
    ) {
        let pools = [None, Some(WorkerPool::new(2)), Some(WorkerPool::new(8))];
        let mut solvers: Vec<MaxMinSolver> = pools
            .iter()
            .map(|_| MaxMinSolver::new(caps.clone()).unwrap())
            .collect();
        let mut table = PathTable::new();
        let mut live: Vec<(u32, Vec<u32>)> = Vec::new();

        // Preload one component of 3x the parallel threshold: every entry
        // crosses resource 0, so any pass touching the component covers
        // all of them and clears the parallel gate. Identical op order
        // means identical entry ids across the three solvers.
        for i in 0..PARALLEL_MIN_ENTRIES as u32 * 3 {
            let mut path = vec![0, 1 + i % (WIDE_RESOURCES as u32 - 1)];
            path.dedup();
            let mut id = 0;
            for s in solvers.iter_mut() {
                id = insert(s, &mut table, &path, false);
            }
            live.push((id, path));
        }

        let check = |solvers: &mut [MaxMinSolver],
                     table: &PathTable,
                     live: &[(u32, Vec<u32>)],
                     step: usize| {
            for (s, pool) in solvers.iter_mut().zip(&pools) {
                s.recompute_with(table, true, threshold, pool.as_ref());
            }
            let (reference, pooled) = solvers.split_first().unwrap();
            for p in pooled {
                for &(entry, ref path) in live {
                    let (got, want) = (p.entry_rate(entry), reference.entry_rate(entry));
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "step {step}, entry {entry} (path {path:?}): \
                         pooled {got:e} != sequential {want:e}"
                    );
                }
            }
        };
        check(&mut solvers, &table, &live, usize::MAX);

        for (step, (kind, path, pick)) in ops.into_iter().enumerate() {
            match kind {
                0..=2 => {
                    let mut id = 0;
                    for s in solvers.iter_mut() {
                        id = insert(s, &mut table, &path, false);
                    }
                    live.push((id, path));
                }
                3 | 4 => {
                    let (id, _) = live.swap_remove(pick % live.len());
                    for s in solvers.iter_mut() {
                        s.remove_entry(id);
                    }
                }
                5 | 6 => {
                    let i = pick % live.len();
                    let old = live[i].0;
                    let mut id = 0;
                    for s in solvers.iter_mut() {
                        s.remove_entry(old);
                        id = insert(s, &mut table, &path, false);
                    }
                    live[i] = (id, path);
                }
                _ => solvers.iter_mut().for_each(MaxMinSolver::invalidate_all),
            }
            check(&mut solvers, &table, &live, step);
        }

        prop_assert_eq!(solvers[0].parallel_passes, 0);
        prop_assert!(
            solvers[1].parallel_passes > 0,
            "the 2-thread pool never took the parallel water-fill"
        );
        prop_assert_eq!(solvers[1].parallel_passes, solvers[2].parallel_passes);
    }
}

/// Engine-shaped churn through a real [`FaultOverlay`]: flows between
/// endpoint pairs of a 4x4 torus, links failing and recovering mid-stream,
/// affected entries rerouted (or dropped when partitioned) and the solver
/// invalidated — exactly the `run_with` contract.
#[test]
fn overlay_path_churn_matches_full_solve() {
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

    for coalesce in [false, true] {
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
                            let id = insert(&mut solver, &mut table, &p, coalesce);
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
                                    let nid = insert(&mut solver, &mut table, &p, coalesce);
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
            solver.recompute(&table, true, 0.5);
            let flows: Vec<(u32, Vec<u32>)> =
                live.iter().map(|(id, _, _, p)| (*id, p.clone())).collect();
            assert_rates_match(&solver, &flows, &caps, step);
        }
        assert!(solver.rate_recomputes > 0);
    }
}
