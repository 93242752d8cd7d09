//! Property tests for the graph substrate: CSR adjacency is a faithful
//! index of the link list, and `find_link` agrees with a naive scan.

use exaflow_netgraph::{NetworkBuilder, NodeId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adjacency_indexes_every_link(
        nodes in 2usize..20,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..60),
    ) {
        let mut b = NetworkBuilder::new();
        for _ in 0..nodes {
            b.add_endpoint();
        }
        let mut expected = Vec::new();
        for (s, d) in edges {
            let s = s as usize % nodes;
            let mut d = d as usize % nodes;
            if s == d {
                d = (d + 1) % nodes;
            }
            let id = b.add_link(NodeId(s as u32), NodeId(d as u32));
            expected.push((id, s as u32, d as u32));
        }
        let net = b.build();
        // Every link appears exactly once in its source's adjacency group.
        for (id, s, d) in &expected {
            let group = net.out_links(NodeId(*s));
            prop_assert_eq!(group.iter().filter(|&&l| l == *id).count(), 1);
            prop_assert_eq!(net.link(*id).dst, NodeId(*d));
        }
        // Total adjacency size equals the link count.
        let total: usize = (0..nodes).map(|v| net.out_links(NodeId(v as u32)).len()).sum();
        prop_assert_eq!(total, net.num_links());
        // find_link agrees with a naive scan for every pair.
        for s in 0..nodes as u32 {
            for d in 0..nodes as u32 {
                let naive = expected
                    .iter()
                    .find(|(_, es, ed)| *es == s && *ed == d)
                    .is_some();
                prop_assert_eq!(net.find_link(NodeId(s), NodeId(d)).is_some(), naive);
            }
        }
    }

    #[test]
    fn bfs_distances_are_metric(
        nodes in 2usize..15,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 1..40),
    ) {
        let mut b = NetworkBuilder::new();
        for _ in 0..nodes {
            b.add_endpoint();
        }
        for (s, d) in edges {
            let s = s as usize % nodes;
            let mut d = d as usize % nodes;
            if s == d {
                d = (d + 1) % nodes;
            }
            b.add_duplex(NodeId(s as u32), NodeId(d as u32));
        }
        let net = b.build();
        let from0 = exaflow_netgraph::bfs_distances(&net, NodeId(0));
        // Triangle inequality over edges: d(v) <= d(u) + 1 for u -> v.
        for l in 0..net.num_links() {
            let link = net.link(exaflow_netgraph::LinkId(l as u32));
            let du = from0[link.src.index()];
            let dv = from0[link.dst.index()];
            if du != u32::MAX {
                prop_assert!(dv <= du + 1);
            }
        }
    }
}
