//! Incremental construction of [`Network`]s.

use crate::ids::{LinkId, NodeId};
use crate::network::{Link, Network};

/// Builder for [`Network`].
///
/// Endpoints must be added before any switch, because endpoints are required
/// to occupy the contiguous id range `0..num_endpoints`. The builder enforces
/// this with a panic, which turns a topology-generator bug into an immediate
/// failure rather than a silently mis-indexed network.
#[derive(Default, Debug)]
pub struct NetworkBuilder {
    num_nodes: usize,
    links: Vec<Link>,
    num_endpoints: usize,
    switches_started: bool,
}

impl NetworkBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with capacity reserved for `links` unidirectional
    /// links.
    pub fn with_capacity(links: usize) -> Self {
        Self {
            links: Vec::with_capacity(links),
            ..Self::default()
        }
    }

    /// Add a compute endpoint. Panics if a switch was already added.
    pub fn add_endpoint(&mut self) -> NodeId {
        assert!(
            !self.switches_started,
            "all endpoints must be added before the first switch"
        );
        self.num_endpoints += 1;
        self.push_node()
    }

    /// Add `n` endpoints, returning the id of the first.
    pub fn add_endpoints(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.num_nodes as u32);
        for _ in 0..n {
            self.add_endpoint();
        }
        first
    }

    /// Add a switch node.
    pub fn add_switch(&mut self) -> NodeId {
        self.switches_started = true;
        self.push_node()
    }

    fn push_node(&mut self) -> NodeId {
        self.num_nodes += 1;
        NodeId(self.num_nodes as u32 - 1)
    }

    /// Add `n` switches, returning the id of the first.
    pub fn add_switches(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.num_nodes as u32);
        for _ in 0..n {
            self.add_switch();
        }
        first
    }

    /// Add a unidirectional link.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId) -> LinkId {
        assert!(src.index() < self.num_nodes, "link src {src} out of range");
        assert!(dst.index() < self.num_nodes, "link dst {dst} out of range");
        assert!(src != dst, "self-loop links are not allowed ({src})");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { src, dst });
        id
    }

    /// Add a bidirectional cable as two opposite links.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId) -> (LinkId, LinkId) {
        (self.add_link(a, b), self.add_link(b, a))
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of links added so far.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Finalise into an immutable [`Network`], building CSR adjacency.
    ///
    /// Link ids are preserved exactly as returned during construction; only
    /// the adjacency index is derived here.
    pub fn build(self) -> Network {
        let n = self.num_nodes;
        // Counting sort of link ids by source node; groups then sorted by
        // destination so `find_link` can binary-search.
        let mut counts = vec![0u32; n + 1];
        for l in &self.links {
            counts[l.src.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let out_offsets = counts.clone();
        let mut out_links = vec![LinkId(0); self.links.len()];
        let mut cursor = counts;
        for (i, l) in self.links.iter().enumerate() {
            let pos = cursor[l.src.index()] as usize;
            out_links[pos] = LinkId(i as u32);
            cursor[l.src.index()] += 1;
        }
        for node in 0..n {
            let lo = out_offsets[node] as usize;
            let hi = out_offsets[node + 1] as usize;
            out_links[lo..hi].sort_by_key(|&lid| (self.links[lid.index()].dst, lid));
        }
        Network {
            num_nodes: n,
            links: self.links,
            num_endpoints: self.num_endpoints,
            out_offsets,
            out_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "before the first switch")]
    fn endpoint_after_switch_panics() {
        let mut b = NetworkBuilder::new();
        b.add_switch();
        b.add_endpoint();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = NetworkBuilder::new();
        let e = b.add_endpoint();
        b.add_link(e, e);
    }

    #[test]
    fn bulk_add_returns_first_id() {
        let mut b = NetworkBuilder::new();
        let first_ep = b.add_endpoints(4);
        assert_eq!(first_ep, NodeId(0));
        let first_sw = b.add_switches(3);
        assert_eq!(first_sw, NodeId(4));
        assert_eq!(b.num_nodes(), 7);
    }

    #[test]
    fn link_ids_stable_through_build() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        let e2 = b.add_endpoint();
        let l0 = b.add_link(e2, e0);
        let l1 = b.add_link(e0, e1);
        let net = b.build();
        assert_eq!(net.link(l0).src, e2);
        assert_eq!(net.link(l1).dst, e1);
    }

    #[test]
    fn duplex_adds_opposite_pair() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        let (ab, ba) = b.add_duplex(e0, e1);
        let net = b.build();
        assert_eq!(net.link(ab).src, e0);
        assert_eq!(net.link(ab).dst, e1);
        assert_eq!(net.link(ba).src, e1);
        assert_eq!(net.link(ba).dst, e0);
    }

    #[test]
    fn empty_network_builds() {
        let net = NetworkBuilder::new().build();
        assert_eq!(net.num_nodes(), 0);
        assert_eq!(net.num_links(), 0);
    }
}
