//! Breadth-first search over link hops.
//!
//! Used by tests and the analysis crate to cross-check the analytic distance
//! functions of each topology against ground truth on small instances.

use crate::ids::NodeId;
use crate::network::Network;

/// Reusable scratch buffers for repeated BFS sweeps from different sources,
/// avoiding per-call allocation (a Rust Performance Book staple).
#[derive(Debug, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

impl BfsScratch {
    /// Create scratch sized for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            dist: vec![u32::MAX; nodes],
            queue: Vec::with_capacity(nodes),
        }
    }

    /// Distances computed by the most recent run; `u32::MAX` = unreachable.
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// Run BFS from `src` (link hops, the metric of the paper's Table 1).
    pub fn run(&mut self, net: &Network, src: NodeId) {
        assert_eq!(
            self.dist.len(),
            net.num_nodes(),
            "scratch sized for a different network"
        );
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[src.index()] = 0;
        self.queue.push(src);
        let mut head = 0;
        while head < self.queue.len() {
            let node = self.queue[head];
            head += 1;
            let d = self.dist[node.index()];
            for &lid in net.out_links(node) {
                let next = net.link(lid).dst;
                if self.dist[next.index()] == u32::MAX {
                    self.dist[next.index()] = d + 1;
                    self.queue.push(next);
                }
            }
        }
    }
}

/// One-shot BFS distances from `src`.
pub fn bfs_distances(net: &Network, src: NodeId) -> Vec<u32> {
    let mut s = BfsScratch::new(net.num_nodes());
    s.run(net, src);
    s.dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// A 4-node directed ring: 0 -> 1 -> 2 -> 3 -> 0.
    fn ring4() -> Network {
        let mut b = NetworkBuilder::new();
        let eps: Vec<NodeId> = (0..4).map(|_| b.add_endpoint()).collect();
        for i in 0..4 {
            b.add_link(eps[i], eps[(i + 1) % 4]);
        }
        b.build()
    }

    #[test]
    fn ring_distances() {
        let net = ring4();
        let d = bfs_distances(&net, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_is_max() {
        let mut b = NetworkBuilder::new();
        b.add_endpoint();
        b.add_endpoint();
        let net = b.build();
        let d = bfs_distances(&net, NodeId(0));
        assert_eq!(d[1], u32::MAX);
    }

    #[test]
    fn scratch_reuse_across_sources() {
        let net = ring4();
        let mut s = BfsScratch::new(net.num_nodes());
        s.run(&net, NodeId(0));
        assert_eq!(s.distances()[3], 3);
        s.run(&net, NodeId(3));
        assert_eq!(s.distances()[0], 1);
        assert_eq!(s.distances()[2], 3);
    }

    #[test]
    #[should_panic(expected = "different network")]
    fn scratch_size_mismatch_panics() {
        let net = ring4();
        let mut s = BfsScratch::new(2);
        s.run(&net, NodeId(0));
    }
}
