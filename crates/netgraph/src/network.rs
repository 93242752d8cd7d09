//! The immutable [`Network`] structure and its accessors.

use crate::ids::{LinkId, NodeId};

/// A unidirectional link. Every link runs at the study's one link rate, so a
/// link is its two endpoints.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// An immutable interconnection network: nodes, links and CSR adjacency.
///
/// Construct via [`crate::NetworkBuilder`]. Endpoints occupy node ids
/// `0..num_endpoints()`, switches the ids after them.
#[derive(Clone, Debug)]
pub struct Network {
    pub(crate) num_nodes: usize,
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
        self.num_nodes
    }

    /// Number of compute endpoints. Endpoint ids are `0..num_endpoints()`.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        self.num_endpoints
    }

    /// Number of switch nodes.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_nodes - self.num_endpoints
    }

    /// Total number of unidirectional links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
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

    /// Find the first (lowest-id) link from `src` to `dst`, if any.
    ///
    /// Binary-searches the adjacency group, which is sorted by destination
    /// and then by link id, so a lookup is `O(log degree)`.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        let group = self.out_links(src);
        let first = group.partition_point(|&lid| self.links[lid.index()].dst < dst);
        group
            .get(first)
            .copied()
            .filter(|&lid| self.links[lid.index()].dst == dst)
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as u32).map(NodeId)
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
        b.add_duplex(e0, s);
        b.add_duplex(e1, s);
        b.build()
    }

    #[test]
    fn counts() {
        let n = tiny();
        assert_eq!(n.num_nodes(), 3);
        assert_eq!(n.num_endpoints(), 2);
        assert_eq!(n.num_switches(), 1);
        assert_eq!(n.num_links(), 4);
    }

    #[test]
    fn endpoints_come_first() {
        let n = tiny();
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
    fn find_link_returns_the_first_of_parallel_links() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        let e2 = b.add_endpoint();
        let first = b.add_link(e0, e2);
        b.add_link(e0, e1);
        b.add_link(e0, e2);
        assert_eq!(b.build().find_link(e0, e2), Some(first));
    }

    #[test]
    fn out_links_sorted_by_destination() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        let e2 = b.add_endpoint();
        let e3 = b.add_endpoint();
        // Insert in scrambled order; adjacency must come out dst-sorted.
        b.add_link(e3, e2);
        b.add_link(e3, e0);
        b.add_link(e3, e1);
        let n = b.build();
        let dsts: Vec<u32> = n.out_links(e3).iter().map(|&l| n.link(l).dst.0).collect();
        assert_eq!(dsts, vec![0, 1, 2]);
    }
}
