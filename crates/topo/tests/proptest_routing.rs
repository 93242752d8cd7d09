//! Property tests for the routing invariants of every topology family:
//! routes are valid loop-free physical walks whose length equals the
//! analytic distance, routing is deterministic, and minimal where the
//! topology guarantees minimality.

use exaflow_netgraph::{bfs_distances_physical, NodeId};
use exaflow_topo::{
    check_route, ConnectionRule, Dragonfly, GeneralizedHypercube, Jellyfish, KAryTree, Nested,
    Topology, Torus, UpperTierKind,
};
use proptest::prelude::*;

fn torus_dims() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..6, 1..4)
}

/// Exhaustively cover the jellyfish parameter space the property test
/// samples from: every `(switches, graph_seed)` combination must yield a
/// connected graph (construction panics otherwise), so the proptest below
/// can never trip over an unlucky sample.
#[test]
fn jellyfish_proptest_space_is_constructible() {
    for switches in 4u32..12 {
        let fabric_degree = if switches % 2 == 0 { 3 } else { 4 };
        for graph_seed in 0u64..16 {
            let j = Jellyfish::new(switches, 1, fabric_degree, graph_seed);
            check_route(&j, NodeId(0), NodeId(switches - 1)).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn torus_routes_valid(dims in torus_dims(), seed in any::<u64>()) {
        let t = Torus::new(&dims);
        let n = t.num_endpoints() as u64;
        let s = NodeId((seed % n) as u32);
        let d = NodeId(((seed >> 32) % n) as u32);
        check_route(&t, s, d).unwrap();
    }

    #[test]
    fn torus_distance_minimal(dims in torus_dims(), src in any::<u64>()) {
        let t = Torus::new(&dims);
        let n = t.num_endpoints() as u64;
        let s = NodeId((src % n) as u32);
        let bfs = bfs_distances_physical(t.network(), s);
        for d in 0..n as u32 {
            prop_assert_eq!(t.distance(s, NodeId(d)), bfs[d as usize]);
        }
    }

    #[test]
    fn tree_routes_valid(k in 2u32..6, n in 1u32..4, seed in any::<u64>()) {
        let t = KAryTree::new(k, n);
        let e = t.num_endpoints() as u64;
        let s = NodeId((seed % e) as u32);
        let d = NodeId(((seed >> 32) % e) as u32);
        check_route(&t, s, d).unwrap();
    }

    #[test]
    fn tree_partial_routes_valid(k in 2u32..5, n in 2u32..4, frac in 1u64..100, seed in any::<u64>()) {
        let ports = (k as u64).pow(n);
        let eps = ((ports * frac / 100).max(1)) as usize;
        let t = KAryTree::with_endpoints(k, n, eps);
        let s = NodeId((seed % eps as u64) as u32);
        let d = NodeId(((seed >> 32) % eps as u64) as u32);
        check_route(&t, s, d).unwrap();
    }

    #[test]
    fn tree_distance_minimal(k in 2u32..5, n in 1u32..4, src in any::<u64>()) {
        let t = KAryTree::new(k, n);
        let e = t.num_endpoints() as u64;
        let s = NodeId((src % e) as u32);
        let bfs = bfs_distances_physical(t.network(), s);
        for d in 0..e as u32 {
            prop_assert_eq!(t.distance(s, NodeId(d)), bfs[d as usize]);
        }
    }

    #[test]
    fn ghc_routes_valid(
        dims in prop::collection::vec(1u32..5, 1..4),
        ports in 1u32..4,
        seed in any::<u64>(),
    ) {
        let g = GeneralizedHypercube::new(&dims, ports);
        let e = g.num_endpoints() as u64;
        let s = NodeId((seed % e) as u32);
        let d = NodeId(((seed >> 32) % e) as u32);
        check_route(&g, s, d).unwrap();
    }

    #[test]
    fn ghc_distance_minimal(dims in prop::collection::vec(2u32..5, 1..3), src in any::<u64>()) {
        let g = GeneralizedHypercube::new(&dims, 2);
        let e = g.num_endpoints() as u64;
        let s = NodeId((src % e) as u32);
        let bfs = bfs_distances_physical(g.network(), s);
        for d in 0..e as u32 {
            prop_assert_eq!(g.distance(s, NodeId(d)), bfs[d as usize]);
        }
    }

    #[test]
    fn nested_routes_valid(
        subtori in 1u64..9,
        t in prop::sample::select(vec![2u32, 4]),
        u in prop::sample::select(vec![1u32, 2, 4, 8]),
        tree in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let kind = if tree { UpperTierKind::Fattree } else { UpperTierKind::GeneralizedHypercube };
        let rule = ConnectionRule::from_u(u).unwrap();
        let topo = Nested::new(kind, subtori, t, rule);
        let e = topo.num_endpoints() as u64;
        let s = NodeId((seed % e) as u32);
        let d = NodeId(((seed >> 32) % e) as u32);
        check_route(&topo, s, d).unwrap();
    }

    #[test]
    fn nested_routing_deterministic(
        subtori in 1u64..6,
        u in prop::sample::select(vec![1u32, 2, 4, 8]),
        seed in any::<u64>(),
    ) {
        let topo = Nested::new(
            UpperTierKind::GeneralizedHypercube,
            subtori,
            2,
            ConnectionRule::from_u(u).unwrap(),
        );
        let e = topo.num_endpoints() as u64;
        let s = NodeId((seed % e) as u32);
        let d = NodeId(((seed >> 32) % e) as u32);
        prop_assert_eq!(topo.route_vec(s, d), topo.route_vec(s, d));
    }

    #[test]
    fn dragonfly_routes_valid_and_within_diameter(
        groups_frac in 1u64..100,
        a in 2u32..5,
        p in 1u32..4,
        h in 1u32..4,
        seed in any::<u64>(),
    ) {
        // Any group count from 2 up to the full a·h + 1.
        let max_groups = (a * h + 1) as u64;
        let groups = (2 + groups_frac * (max_groups - 2) / 100).min(max_groups) as u32;
        let g = Dragonfly::new(groups, a, p, h);
        let e = g.num_endpoints() as u64;
        let s = NodeId((seed % e) as u32);
        let d = NodeId(((seed >> 32) % e) as u32);
        let len = check_route(&g, s, d).unwrap();
        // Minimal dragonfly routing: injection + (local, global, local) +
        // ejection — never more than five physical cables.
        prop_assert!(len <= 5, "dragonfly route {s}->{d} takes {len} links");
    }

    #[test]
    fn dragonfly_balanced_routes_valid(p in 1u32..4, seed in any::<u64>()) {
        let g = Dragonfly::balanced(p);
        let e = g.num_endpoints() as u64;
        let s = NodeId((seed % e) as u32);
        let d = NodeId(((seed >> 32) % e) as u32);
        let len = check_route(&g, s, d).unwrap();
        prop_assert!(len <= 5);
    }

    #[test]
    fn jellyfish_routes_valid_and_minimal(
        switches in 4u32..12,
        endpoint_ports in 1u32..4,
        graph_seed in 0u64..16,
        seed in any::<u64>(),
    ) {
        // Keep switches * fabric_degree even so the regular graph exists.
        let fabric_degree = if switches % 2 == 0 { 3 } else { 4 };
        let j = Jellyfish::new(switches, endpoint_ports, fabric_degree, graph_seed);
        let e = j.num_endpoints() as u64;
        let s = NodeId((seed % e) as u32);
        let d = NodeId(((seed >> 32) % e) as u32);
        // check_route already asserts length == distance(); pin the other
        // side of that equation to the graph-theoretic shortest path.
        check_route(&j, s, d).unwrap();
        let bfs = bfs_distances_physical(j.network(), s);
        prop_assert_eq!(j.distance(s, d), bfs[d.0 as usize]);
    }

    #[test]
    fn nested_intra_subtorus_never_uses_switches(
        subtori in 1u64..6,
        u in prop::sample::select(vec![1u32, 2, 4, 8]),
        seed in any::<u64>(),
    ) {
        let topo = Nested::new(
            UpperTierKind::Fattree,
            subtori,
            2,
            ConnectionRule::from_u(u).unwrap(),
        );
        let sub = topo.subtorus_size();
        let s_local = seed % sub;
        let d_local = (seed >> 32) % sub;
        let path = topo.route_vec(NodeId(s_local as u32), NodeId(d_local as u32));
        for lid in path {
            let link = topo.network().link(lid);
            prop_assert!(topo.network().is_endpoint(link.src));
            prop_assert!(topo.network().is_endpoint(link.dst));
        }
    }
}

/// `diameter_bound` must dominate every pairwise distance, and where the
/// generator has a closed-form diameter the bound is exact (torus, tree, GHC).
#[test]
fn diameter_bound_dominates_all_pairs() {
    let topos: Vec<(Box<dyn Topology>, bool)> = vec![
        (Box::new(Torus::new(&[4, 4, 2])), true),
        (Box::new(Torus::new(&[5, 3])), true),
        (Box::new(KAryTree::new(4, 2)), true),
        (Box::new(KAryTree::with_endpoints(4, 2, 9)), true),
        (Box::new(GeneralizedHypercube::new(&[4, 4], 2)), true),
        (
            Box::new(Nested::new(
                UpperTierKind::Fattree,
                4,
                2,
                ConnectionRule::EveryNode,
            )),
            false,
        ),
        (
            Box::new(Nested::new(
                UpperTierKind::GeneralizedHypercube,
                4,
                2,
                ConnectionRule::EighthNodes,
            )),
            false,
        ),
        (Box::new(Dragonfly::new(3, 2, 2, 1)), false),
        (Box::new(Jellyfish::new(6, 2, 3, 7)), false),
    ];
    for (topo, exact) in &topos {
        let n = topo.num_endpoints() as u32;
        let bound = topo.diameter_bound();
        let mut max = 0u32;
        for s in (0..n).map(NodeId) {
            for d in (0..n).map(NodeId) {
                max = max.max(topo.distance(s, d));
            }
        }
        assert!(
            max <= bound,
            "{}: diameter_bound {bound} < observed diameter {max}",
            topo.name()
        );
        if *exact {
            assert_eq!(
                bound,
                max,
                "{}: bound should equal the exact diameter",
                topo.name()
            );
        }
    }
}
