//! Property tests for the routing invariants of every topology family:
//! routes are valid loop-free walks whose length equals the
//! analytic distance, routing is deterministic, and minimal where the
//! topology guarantees minimality — and the counting overrides of
//! `distance_histogram` tally exactly what one `distance` per pair does.

use exaflow_netgraph::{bfs_distances, LinkId, Network, NodeId};
use exaflow_topo::nested::ghc_upper_shape;
use exaflow_topo::{
    check_route, ConnectionRule, GeneralizedHypercube, KAryTree, Nested, Topology, Torus,
    UpperTierKind,
};
use proptest::prelude::*;

fn torus_dims() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..6, 1..4)
}

/// A view of a topology that forwards everything but `distance_histogram`,
/// which therefore runs the trait's default: one `distance` per pair.
struct PerPair<'a>(&'a dyn Topology);

impl Topology for PerPair<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn network(&self) -> &Network {
        self.0.network()
    }
    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        self.0.route(src, dst, path)
    }
    fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        self.0.distance(src, dst)
    }
    fn diameter_bound(&self) -> u32 {
        self.0.diameter_bound()
    }
}

/// From every source, the topology's `distance_histogram` fills the same
/// histogram and returns the same hop total as the per-pair default.
fn assert_counts_what_the_pair_loop_tallies(topo: &dyn Topology) {
    let slots = topo.diameter_bound() as usize + 1;
    for src in (0..topo.num_endpoints() as u32).map(NodeId) {
        let (mut counted, mut looped) = (vec![0u64; slots], vec![0u64; slots]);
        let counted_hops = topo.distance_histogram(src, &mut counted);
        let looped_hops = PerPair(topo).distance_histogram(src, &mut looped);
        assert_eq!(counted, looped, "{} from {src}", topo.name());
        assert_eq!(counted_hops, looped_hops, "{} from {src}", topo.name());
    }
}

/// Endpoint counts that put the population edge everywhere it matters in
/// a tree or GHC of `full` ports: alone, a pair, just past half (a partly
/// filled last leaf or router), one short of full, full.
fn populations(full: usize) -> Vec<usize> {
    let mut eps = vec![1, 2, full / 2 + 1, full.saturating_sub(1), full];
    eps.retain(|&e| (1..=full).contains(&e));
    eps.sort_unstable();
    eps.dedup();
    eps
}

/// The hybrids over the whole grid the paper draws from, at subtorus
/// counts that leave the upper tier partly empty and put its range edges
/// in the middle of a subtorus; t = 3 only exists fully uplinked. The
/// grid reaches every edge of the GHC's router-class counting, which the
/// test checks from the upper tier's shape.
#[test]
fn nested_histogram_counts_what_the_pair_loop_tallies() {
    let cases: [(u32, &[u64], &[ConnectionRule]); 4] = [
        (2, &[1, 2, 3, 5, 17], &ConnectionRule::all()),
        (4, &[1, 2, 3, 5, 17], &ConnectionRule::all()),
        (3, &[1, 2, 3, 5, 17], &[ConnectionRule::EveryNode]),
        (6, &[1, 3], &ConnectionRule::all()),
    ];
    let mut ghc_edges = [false; 4];
    for kind in [UpperTierKind::Fattree, UpperTierKind::GeneralizedHypercube] {
        for (t, subtori, rules) in cases {
            for &rule in rules {
                for &count in subtori {
                    let nested = Nested::new(kind, count, t, rule);
                    assert_counts_what_the_pair_loop_tallies(&nested);
                    if kind == UpperTierKind::GeneralizedHypercube {
                        let ports = nested.num_uplinks();
                        let (dims, per_router) = ghc_upper_shape(ports);
                        let (per_router, routers) =
                            (per_router as u64, dims.iter().map(|&d| d as u64).product());
                        for (seen, holds) in ghc_edges.iter_mut().zip([
                            // A partly populated router, empty ones past it.
                            !ports.is_multiple_of(per_router)
                                && ports.div_ceil(per_router) < routers,
                            // An own subtorus that cuts 3 routers or more.
                            ports / count > 2 * per_router,
                            dims.contains(&1),
                            dims.iter().any(|d| !d.is_power_of_two()),
                        ]) {
                            *seen |= holds;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        ghc_edges, [true; 4],
        "the grid misses an edge of the GHC counting"
    );
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
        let bfs = bfs_distances(t.network(), s);
        for d in 0..n as u32 {
            prop_assert_eq!(t.distance(s, NodeId(d)), bfs[d as usize]);
        }
    }

    #[test]
    fn torus_histogram_counts_what_the_pair_loop_tallies(dims in torus_dims()) {
        // `torus_dims` draws rings of 1, 2, odd and even sizes.
        assert_counts_what_the_pair_loop_tallies(&Torus::new(&dims));
    }

    #[test]
    fn tree_histogram_counts_what_the_pair_loop_tallies(k in 2u32..5, n in 1u32..4) {
        for eps in populations((k as usize).pow(n)) {
            assert_counts_what_the_pair_loop_tallies(&KAryTree::with_endpoints(k, n, eps));
        }
    }

    #[test]
    fn ghc_histogram_counts_what_the_pair_loop_tallies(
        dims in prop::collection::vec(1u32..5, 1..4),
        ports in 1u32..4,
    ) {
        let routers: usize = dims.iter().map(|&d| d as usize).product();
        for eps in populations(routers * ports as usize) {
            assert_counts_what_the_pair_loop_tallies(&GeneralizedHypercube::with_endpoints(
                &dims, ports, eps,
            ));
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
        let bfs = bfs_distances(t.network(), s);
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
        let bfs = bfs_distances(g.network(), s);
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
