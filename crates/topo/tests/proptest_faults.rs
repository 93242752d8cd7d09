//! Property tests for fault-tolerant rerouting: on any topology family,
//! under any mix of run-long and mid-run link failures in one
//! [`FaultOverlay`], every route is canonical — the topology's own route
//! while that avoids every down link, otherwise a contiguous physical
//! detour exactly as short as the live links allow — and a pair the
//! overlay cannot route is a typed error, never a bogus path. Run-long
//! failures are never restored, and a detour survives blocking links it
//! does not cross.

use exaflow_netgraph::{LinkId, Network, NodeId};
use exaflow_topo::{
    ConnectionRule, FaultOverlay, GeneralizedHypercube, KAryTree, Nested, Topology, Torus,
    UpperTierKind,
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
    overlay: &mut FaultOverlay,
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
            let nominal = topo.route_vec(src, dst);
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

/// SplitMix64 step: cheap deterministic sampling.
fn splitmix(s: &mut u64) -> u64 {
    *s = s
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    *s
}

/// Both directions of up to `cables` pseudo-random physical cables. No
/// last-link rule: a partition is a legal outcome the overlay must report.
fn random_cables(net: &Network, cables: usize, seed: u64) -> Vec<LinkId> {
    let mut s = seed;
    let mut cut = Vec::new();
    for _ in 0..cables {
        let link = LinkId((splitmix(&mut s) % net.num_links() as u64) as u32);
        let l = net.link(link);
        if l.is_virtual || cut.contains(&link) {
            continue;
        }
        cut.push(link);
        cut.extend(net.find_physical_link(l.dst, l.src));
    }
    cut
}

/// Fail `run_long` for the run, then drive the overlay through
/// fail/route/restore cycles and check that every produced route is
/// canonical for the links that are down *at that moment*.
fn check_overlay(topo: &dyn Topology, run_long: &[LinkId], seed: u64) -> Result<(), TestCaseError> {
    let net = topo.network();
    let e = topo.num_endpoints() as u64;
    let nl = net.num_links() as u64;
    let mut overlay = FaultOverlay::new(topo);
    for &link in run_long {
        prop_assert!(overlay.fail_for_run(link));
    }
    let mut downed: Vec<LinkId> = Vec::new();
    let mut s = seed;
    for round in 0..6 {
        // Fail two pseudo-random links, then repair one of those down, so
        // routes are checked after both kinds of transition.
        let r = splitmix(&mut s);
        if round % 3 == 2 && !downed.is_empty() {
            let link = downed.swap_remove((r % downed.len() as u64) as usize);
            prop_assert!(overlay.restore_link(link));
        } else {
            let link = LinkId((r % nl) as u32);
            if overlay.fail_link(link) {
                downed.push(link);
            }
        }
        let r = splitmix(&mut s);
        let src = NodeId((r % e) as u32);
        let dst = NodeId(((r >> 32) % e) as u32);
        check_canonical(topo, &mut overlay, src, dst)?;
    }
    Ok(())
}

/// Route `src → dst` through `overlay`; `None` when it is cut off.
fn routed(overlay: &mut FaultOverlay, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
    let mut path = Vec::new();
    overlay.try_route(src, dst, &mut path).ok().map(|()| path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_long_torus_routes_are_canonical(
        dims in prop::collection::vec(2u32..5, 1..4),
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let topo = Torus::new(&dims);
        check_overlay(&topo, &random_cables(topo.network(), cables, fail_seed), seed)?;
    }

    #[test]
    fn run_long_fattree_routes_are_canonical(
        k in 2u32..5,
        n in 2u32..4,
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let topo = KAryTree::new(k, n);
        check_overlay(&topo, &random_cables(topo.network(), cables, fail_seed), seed)?;
    }

    #[test]
    fn run_long_ghc_routes_are_canonical(
        dims in prop::collection::vec(2u32..5, 1..3),
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let topo = GeneralizedHypercube::new(&dims, 2);
        check_overlay(&topo, &random_cables(topo.network(), cables, fail_seed), seed)?;
    }

    #[test]
    fn run_long_nested_routes_are_canonical(
        subtori in 1u64..6,
        u in prop::sample::select(vec![1u32, 2, 4, 8]),
        tree in any::<bool>(),
        cables in 0usize..6,
        fail_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let kind = if tree { UpperTierKind::Fattree } else { UpperTierKind::GeneralizedHypercube };
        let topo = Nested::new(kind, subtori, 2, ConnectionRule::from_u(u).unwrap());
        check_overlay(&topo, &random_cables(topo.network(), cables, fail_seed), seed)?;
    }

    #[test]
    fn restore_never_revives_a_run_long_failure(
        dims in prop::collection::vec(3u32..5, 1..4),
        cables in 1usize..6,
        fail_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let topo = Torus::new(&dims);
        let run_long = random_cables(topo.network(), cables, fail_seed);
        let mut overlay = FaultOverlay::new(&topo);
        for &link in &run_long {
            prop_assert!(overlay.fail_for_run(link));
        }
        let e = topo.num_endpoints() as u64;
        let (src, dst) = (NodeId((seed % e) as u32), NodeId(((seed >> 32) % e) as u32));
        let before = routed(&mut overlay, src, dst);
        for &link in &run_long {
            prop_assert!(!overlay.restore_link(link), "restored run-long {link:?}");
            prop_assert!(!overlay.fail_link(link), "re-failed run-long {link:?}");
            prop_assert!(overlay.is_down(link));
        }
        prop_assert_eq!(overlay.total_failed_links(), run_long.len());
        prop_assert_eq!(routed(&mut overlay, src, dst), before);
    }

    #[test]
    fn a_detour_survives_blocking_links_it_avoids(
        dims in prop::collection::vec(3u32..6, 2..4),
        cables in 1usize..5,
        fail_seed in any::<u64>(),
        extra in 1usize..12,
        seed in any::<u64>(),
    ) {
        // S: run-long cables. The pair is the first cut cable's ends, so
        // its route under S is a detour.
        let topo = Torus::new(&dims);
        let net = topo.network();
        let s_set = random_cables(net, cables, fail_seed);
        let (src, dst) = (net.link(s_set[0]).src, net.link(s_set[0]).dst);
        let mut under_s = FaultOverlay::new(&topo);
        for &link in &s_set {
            under_s.fail_for_run(link);
        }
        let Some(detour) = routed(&mut under_s, src, dst) else {
            return Ok(()); // S partitions the pair: nothing to compare.
        };
        // D: random cables the detour does not cross.
        let d_set: Vec<LinkId> = random_cables(net, extra, seed)
            .into_iter()
            .filter(|l| !detour.contains(l) && !s_set.contains(l))
            .collect();
        // Blocked mid-run on top of S, and for the run with S.
        let mut mid_run = FaultOverlay::new(&topo);
        let mut run_long = FaultOverlay::new(&topo);
        for &link in &s_set {
            mid_run.fail_for_run(link);
            run_long.fail_for_run(link);
        }
        for &link in &d_set {
            mid_run.fail_link(link);
            run_long.fail_for_run(link);
        }
        prop_assert_eq!(routed(&mut mid_run, src, dst), Some(detour.clone()));
        prop_assert_eq!(routed(&mut run_long, src, dst), Some(detour));
    }
}

// The mid-run overlay properties take the default case count, so
// `PROPTEST_CASES` reaches them (`scripts/check.sh` runs them at 512).
proptest! {
    #[test]
    fn overlay_torus_routes_avoid_down_links(
        dims in prop::collection::vec(2u32..5, 1..4),
        seed in any::<u64>(),
    ) {
        check_overlay(&Torus::new(&dims), &[], seed)?;
    }

    #[test]
    fn overlay_fattree_routes_avoid_down_links(
        k in 2u32..5,
        n in 2u32..4,
        seed in any::<u64>(),
    ) {
        check_overlay(&KAryTree::new(k, n), &[], seed)?;
    }

    #[test]
    fn overlay_ghc_routes_avoid_down_links(
        dims in prop::collection::vec(2u32..5, 1..3),
        seed in any::<u64>(),
    ) {
        check_overlay(&GeneralizedHypercube::new(&dims, 2), &[], seed)?;
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
        check_overlay(&topo, &[], seed)?;
    }
}
