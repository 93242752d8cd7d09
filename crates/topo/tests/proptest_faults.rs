//! Property tests for fault-tolerant rerouting: on any topology family,
//! under any mix of static ([`Degraded`]) and dynamic ([`FaultOverlay`])
//! link failures, every route the wrappers produce is a contiguous
//! physical walk from source to destination that avoids every
//! currently-failed link — and a pair they cannot route is a typed
//! error, never a bogus path. The overlay's routes are canonical besides:
//! the topology's own route while that avoids every down link, otherwise
//! a detour exactly as short as the live links allow.

use exaflow_netgraph::{LinkId, Network, NodeId};
use exaflow_topo::{
    ConnectionRule, Degraded, FaultOverlay, GeneralizedHypercube, KAryTree, Nested, Topology,
    Torus, UpperTierKind,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

/// Assert `path` is a contiguous walk `src → dst` over physical links.
fn assert_contiguous(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    path: &[LinkId],
) -> Result<(), TestCaseError> {
    if src == dst {
        prop_assert!(path.is_empty(), "self-route must be empty, got {path:?}");
        return Ok(());
    }
    prop_assert!(!path.is_empty(), "empty path for {src:?} -> {dst:?}");
    prop_assert_eq!(net.link(path[0]).src, src);
    prop_assert_eq!(net.link(path[path.len() - 1]).dst, dst);
    for w in path.windows(2) {
        prop_assert_eq!(net.link(w[0]).dst, net.link(w[1]).src);
    }
    for &l in path {
        prop_assert!(!net.link(l).is_virtual, "path crosses virtual link {l:?}");
    }
    Ok(())
}

/// Hop count of a shortest `src → dst` walk over physical links that
/// `down` does not block, by a BFS of its own; `None` when there is none.
fn live_distance(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    down: impl Fn(LinkId) -> bool,
) -> Option<usize> {
    let mut hops = vec![usize::MAX; net.num_nodes()];
    hops[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(node) = queue.pop_front() {
        for &l in net.out_links(node) {
            let next = net.link(l).dst;
            if !net.link(l).is_virtual && !down(l) && hops[next.index()] == usize::MAX {
                hops[next.index()] = hops[node.index()] + 1;
                queue.push_back(next);
            }
        }
    }
    (hops[dst.index()] != usize::MAX).then_some(hops[dst.index()])
}

/// Route `src → dst` through `overlay` and check the result is the
/// canonical route under its current failure set: the wrapped topology's
/// route when that avoids every down link, otherwise a contiguous detour
/// as short as [`live_distance`]; a typed error only when no live walk
/// exists.
fn check_canonical(
    topo: &dyn Topology,
    overlay: &FaultOverlay,
    src: NodeId,
    dst: NodeId,
) -> Result<(), TestCaseError> {
    let net = topo.network();
    let live = live_distance(net, src, dst, |l| overlay.is_down(l));
    let mut path = Vec::new();
    match overlay.try_route(src, dst, &mut path) {
        Ok(()) => {
            assert_contiguous(net, src, dst, &path)?;
            for &l in &path {
                prop_assert!(
                    !overlay.is_down(l),
                    "route {src:?} -> {dst:?} crosses down link {l:?}"
                );
            }
            let mut nominal = Vec::new();
            topo.try_route(src, dst, &mut nominal).unwrap();
            if nominal.iter().all(|&l| !overlay.is_down(l)) {
                prop_assert_eq!(&path, &nominal);
            } else {
                prop_assert_eq!(Some(path.len()), live);
            }
        }
        Err(err) => {
            prop_assert_eq!((err.src, err.dst), (src, dst));
            prop_assert!(path.is_empty());
            prop_assert_eq!(live, None, "{src:?} -> {dst:?} reachable but refused");
        }
    }
    Ok(())
}

/// Route every sampled pair on a degraded topology and check the
/// invariants: contiguity, failed-link avoidance, typed partitions.
fn check_degraded<T: Topology>(degraded: &Degraded<T>, seed: u64) -> Result<(), TestCaseError> {
    let e = degraded.num_endpoints() as u64;
    let failed: Vec<LinkId> = degraded.failed_links().collect();
    let mut s = seed;
    for _ in 0..8 {
        // SplitMix64 step: cheap deterministic pair sampling.
        s = s
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let src = NodeId((s % e) as u32);
        let dst = NodeId(((s >> 32) % e) as u32);
        let mut path = Vec::new();
        match degraded.try_route(src, dst, &mut path) {
            Ok(()) => {
                assert_contiguous(degraded.network(), src, dst, &path)?;
                for &l in &failed {
                    prop_assert!(
                        !path.contains(&l),
                        "route {src:?} -> {dst:?} crosses failed link {l:?}"
                    );
                }
            }
            Err(err) => {
                // A partition is a legal outcome; the error must name the
                // pair and leave the buffer clean.
                prop_assert_eq!((err.src, err.dst), (src, dst));
                prop_assert!(path.is_empty());
            }
        }
    }
    Ok(())
}

/// Drive a [`FaultOverlay`] through fail/route/restore cycles and check
/// that every produced route is canonical for the links that are down *at
/// that moment* (static or dynamic).
fn check_overlay(topo: &dyn Topology, seed: u64) -> Result<(), TestCaseError> {
    let net = topo.network();
    let e = topo.num_endpoints() as u64;
    let nl = net.num_links() as u64;
    let mut overlay = FaultOverlay::new(topo);
    let mut downed: Vec<LinkId> = Vec::new();
    let mut s = seed;
    let mut step = || {
        s = s
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s
    };
    for round in 0..6 {
        // Fail two pseudo-random links, then repair one of those down, so
        // routes are checked after both kinds of transition.
        let r = step();
        if round % 3 == 2 && !downed.is_empty() {
            let link = downed.swap_remove((r % downed.len() as u64) as usize);
            prop_assert!(overlay.restore_link(link));
        } else {
            let link = LinkId((r % nl) as u32);
            if overlay.fail_link(link) {
                downed.push(link);
            }
        }
        let r = step();
        let src = NodeId((r % e) as u32);
        let dst = NodeId(((r >> 32) % e) as u32);
        check_canonical(topo, &overlay, src, dst)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn degraded_torus_reroutes_avoid_failures(
        dims in prop::collection::vec(2u32..5, 1..4),
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        pair_seed in any::<u64>(),
    ) {
        let d = Degraded::with_random_failures(Torus::new(&dims), cables, fail_seed);
        check_degraded(&d, pair_seed)?;
    }

    #[test]
    fn degraded_fattree_reroutes_avoid_failures(
        k in 2u32..5,
        n in 2u32..4,
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        pair_seed in any::<u64>(),
    ) {
        let d = Degraded::with_random_failures(KAryTree::new(k, n), cables, fail_seed);
        check_degraded(&d, pair_seed)?;
    }

    #[test]
    fn degraded_ghc_reroutes_avoid_failures(
        dims in prop::collection::vec(2u32..5, 1..3),
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        pair_seed in any::<u64>(),
    ) {
        let d = Degraded::with_random_failures(
            GeneralizedHypercube::new(&dims, 2),
            cables,
            fail_seed,
        );
        check_degraded(&d, pair_seed)?;
    }

    #[test]
    fn degraded_nested_reroutes_avoid_failures(
        subtori in 1u64..6,
        u in prop::sample::select(vec![1u32, 2, 4, 8]),
        tree in any::<bool>(),
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        pair_seed in any::<u64>(),
    ) {
        let kind = if tree { UpperTierKind::Fattree } else { UpperTierKind::GeneralizedHypercube };
        let topo = Nested::new(kind, subtori, 2, ConnectionRule::from_u(u).unwrap());
        let d = Degraded::with_random_failures(topo, cables, fail_seed);
        check_degraded(&d, pair_seed)?;
    }
}

// The overlay properties take the default case count, so `PROPTEST_CASES`
// reaches them (`scripts/check.sh` runs them at 512).
proptest! {
    #[test]
    fn overlay_torus_routes_avoid_down_links(
        dims in prop::collection::vec(2u32..5, 1..4),
        seed in any::<u64>(),
    ) {
        check_overlay(&Torus::new(&dims), seed)?;
    }

    #[test]
    fn overlay_fattree_routes_avoid_down_links(
        k in 2u32..5,
        n in 2u32..4,
        seed in any::<u64>(),
    ) {
        check_overlay(&KAryTree::new(k, n), seed)?;
    }

    #[test]
    fn overlay_ghc_routes_avoid_down_links(
        dims in prop::collection::vec(2u32..5, 1..3),
        seed in any::<u64>(),
    ) {
        check_overlay(&GeneralizedHypercube::new(&dims, 2), seed)?;
    }

    #[test]
    fn overlay_nested_routes_avoid_down_links(
        subtori in 1u64..6,
        u in prop::sample::select(vec![1u32, 2, 4, 8]),
        tree in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let kind = if tree { UpperTierKind::Fattree } else { UpperTierKind::GeneralizedHypercube };
        let topo = Nested::new(kind, subtori, 2, ConnectionRule::from_u(u).unwrap());
        check_overlay(&topo, seed)?;
    }

    #[test]
    fn overlay_over_degraded_avoids_both_failure_sets(
        dims in prop::collection::vec(3u32..5, 2..4),
        cables in 1usize..4,
        fail_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let degraded = Degraded::with_random_failures(Torus::new(&dims), cables, fail_seed);
        let static_failed: Vec<LinkId> = degraded.failed_links().collect();
        let net = degraded.network();
        let e = degraded.num_endpoints() as u64;
        let mut overlay = FaultOverlay::new(&degraded);
        // Dynamically fail one more pseudo-random link on top.
        overlay.fail_link(LinkId((seed % net.num_links() as u64) as u32));
        let src = NodeId((seed % e) as u32);
        let dst = NodeId(((seed >> 32) % e) as u32);
        check_canonical(&degraded, &overlay, src, dst)?;
        let mut path = Vec::new();
        if overlay.try_route(src, dst, &mut path).is_ok() {
            for &l in &path {
                prop_assert!(!static_failed.contains(&l), "crosses statically-failed {l:?}");
            }
        }
    }
}
