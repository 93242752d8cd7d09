//! The immutable [`Network`] structure and its accessors.

use crate::ids::{LinkId, NodeId};
use serde::{Deserialize, Serialize};

/// What a node is: a compute endpoint or a pure switching element.
///
/// In direct networks (torus) the endpoint itself performs switching, so a
/// torus network contains only `Endpoint` nodes. Indirect networks (fattree,
/// generalised hypercube upper tiers) add `Switch` nodes.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NodeKind {
    /// A compute endpoint (a QFDB in the ExaNeSt system model).
    Endpoint,
    /// A switching element with no attached compute.
    Switch,
}

/// A unidirectional, capacitated link.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity in bits per second.
    pub capacity_bps: f64,
    /// Virtual links model NIC injection/ejection serialization; they share
    /// bandwidth like physical links but do not count as hops.
    pub is_virtual: bool,
}

/// An immutable interconnection network: nodes, links and CSR adjacency.
///
/// Construct via [`crate::NetworkBuilder`]. Endpoints occupy node ids
/// `0..num_endpoints()`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Network {
    pub(crate) kinds: Vec<NodeKind>,
    pub(crate) links: Vec<Link>,
    pub(crate) num_endpoints: usize,
    /// CSR offsets into `out_links`, length `nodes + 1`.
    pub(crate) out_offsets: Vec<u32>,
    /// Outgoing link ids grouped by source node, each group sorted by
    /// destination node id to allow binary-search lookup.
    pub(crate) out_links: Vec<LinkId>,
}

impl Network {
    /// Total number of nodes (endpoints + switches).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of compute endpoints. Endpoint ids are `0..num_endpoints()`.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        self.num_endpoints
    }

    /// Number of switch nodes.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.kinds.len() - self.num_endpoints
    }

    /// Total number of unidirectional links, including virtual NIC links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of physical (non-virtual) unidirectional links.
    pub fn num_physical_links(&self) -> usize {
        self.links.iter().filter(|l| !l.is_virtual).count()
    }

    /// The kind of `node`.
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// Whether `node` is an endpoint.
    #[inline]
    pub fn is_endpoint(&self, node: NodeId) -> bool {
        node.index() < self.num_endpoints
    }

    /// The link record for `link`.
    #[inline]
    pub fn link(&self, link: LinkId) -> &Link {
        &self.links[link.index()]
    }

    /// All links, indexable by [`LinkId::index`].
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Ids of links leaving `node`, sorted by destination node id.
    #[inline]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        let lo = self.out_offsets[node.index()] as usize;
        let hi = self.out_offsets[node.index() + 1] as usize;
        &self.out_links[lo..hi]
    }

    /// Find the first link from `src` to `dst`, if any.
    ///
    /// Uses binary search over the destination-sorted adjacency group, so a
    /// lookup is `O(log degree)`; topology routing functions use this to turn
    /// a node path into a link path.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        let group = self.out_links(src);
        let idx = group
            .binary_search_by(|&lid| self.links[lid.index()].dst.cmp(&dst))
            .ok()?;
        // Binary search may land anywhere in a run of parallel links; rewind
        // to the first one for determinism.
        let mut first = idx;
        while first > 0 && self.links[group[first - 1].index()].dst == dst {
            first -= 1;
        }
        Some(group[first])
    }

    /// Find the first *physical* link from `src` to `dst`, if any.
    pub fn find_physical_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        let group = self.out_links(src);
        let idx = group
            .binary_search_by(|&lid| self.links[lid.index()].dst.cmp(&dst))
            .ok()?;
        let mut first = idx;
        while first > 0 && self.links[group[first - 1].index()].dst == dst {
            first -= 1;
        }
        group[first..]
            .iter()
            .take_while(|&&lid| self.links[lid.index()].dst == dst)
            .copied()
            .find(|&lid| !self.links[lid.index()].is_virtual)
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Sum of capacities of all physical links, in bits/second.
    pub fn aggregate_physical_capacity_bps(&self) -> f64 {
        self.links
            .iter()
            .filter(|l| !l.is_virtual)
            .map(|l| l.capacity_bps)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn tiny() -> Network {
        // 2 endpoints, 1 switch; duplex endpoint<->switch links.
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        let s = b.add_switch();
        b.add_duplex(e0, s, 10e9);
        b.add_duplex(e1, s, 10e9);
        b.build()
    }

    #[test]
    fn counts() {
        let n = tiny();
        assert_eq!(n.num_nodes(), 3);
        assert_eq!(n.num_endpoints(), 2);
        assert_eq!(n.num_switches(), 1);
        assert_eq!(n.num_links(), 4);
        assert_eq!(n.num_physical_links(), 4);
    }

    #[test]
    fn kinds_and_ranges() {
        let n = tiny();
        assert_eq!(n.kind(NodeId(0)), NodeKind::Endpoint);
        assert_eq!(n.kind(NodeId(2)), NodeKind::Switch);
        assert!(n.is_endpoint(NodeId(1)));
        assert!(!n.is_endpoint(NodeId(2)));
    }

    #[test]
    fn find_link_works_both_directions() {
        let n = tiny();
        let l = n.find_link(NodeId(0), NodeId(2)).expect("e0 -> s");
        assert_eq!(n.link(l).src, NodeId(0));
        assert_eq!(n.link(l).dst, NodeId(2));
        let back = n.find_link(NodeId(2), NodeId(0)).expect("s -> e0");
        assert_eq!(n.link(back).dst, NodeId(0));
        assert!(n.find_link(NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn out_links_sorted_by_destination() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        let e2 = b.add_endpoint();
        let e3 = b.add_endpoint();
        // Insert in scrambled order; adjacency must come out dst-sorted.
        b.add_link(e3, e2, 1.0);
        b.add_link(e3, e0, 1.0);
        b.add_link(e3, e1, 1.0);
        let n = b.build();
        let dsts: Vec<u32> = n.out_links(e3).iter().map(|&l| n.link(l).dst.0).collect();
        assert_eq!(dsts, vec![0, 1, 2]);
    }

    #[test]
    fn aggregate_capacity_excludes_virtual() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        b.add_link(e0, e1, 10e9);
        b.add_virtual_link(e0, e1, 10e9);
        let n = b.build();
        assert_eq!(n.num_links(), 2);
        assert_eq!(n.num_physical_links(), 1);
        assert!((n.aggregate_physical_capacity_bps() - 10e9).abs() < 1.0);
    }

    #[test]
    fn find_physical_link_skips_virtual() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        b.add_virtual_link(e0, e1, 1.0);
        b.add_link(e0, e1, 2.0);
        let n = b.build();
        let l = n.find_physical_link(e0, e1).unwrap();
        assert!(!n.link(l).is_virtual);
        assert_eq!(n.link(l).capacity_bps, 2.0);
    }
}
