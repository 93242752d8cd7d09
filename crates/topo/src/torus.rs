//! d-dimensional torus with dimension-order routing.
//!
//! The torus is a *direct* network: every node is a compute endpoint that
//! also switches traffic (in ExaNeSt, the QFDB's FPGA fabric implements the
//! router). Each node links to its two neighbours per dimension with
//! wrap-around; a dimension of size 2 contributes a single duplex cable and
//! a dimension of size 1 contributes none.
//!
//! Routing is deterministic dimension-order routing (DOR): dimensions are
//! corrected in index order, always taking the shorter way around the ring
//! (ties break towards the positive direction).
//!
//! The crate-private `grid` submodule exposes the link-construction and
//! DOR-routing machinery over an arbitrary base node id so the nested
//! hybrid topologies can stamp out many disjoint subtori inside one shared
//! network.

use crate::mixed_radix::MixedRadix;
use crate::{Tally, Topology, LINK_RATE_BPS};
use exaflow_netgraph::{LinkId, Network, NetworkBuilder, NodeId};
use std::sync::OnceLock;

/// Torus link construction and DOR routing over a node id range.
pub(crate) mod grid {
    use super::*;

    pub(crate) const NO_LINK: u32 = u32::MAX;

    /// Create torus links among the `shape.len()` nodes starting at node id
    /// `first` (the nodes must already exist in the builder). Returns the
    /// link table: `table[local * 2*ndims + 2*dim + dir]` with dir 0 = +1
    /// neighbour, 1 = −1 neighbour; `NO_LINK` where the ring is degenerate.
    pub(crate) fn build_links(
        b: &mut NetworkBuilder,
        first: u32,
        shape: &MixedRadix,
        capacity_bps: f64,
    ) -> Vec<u32> {
        let n = shape.len();
        let ndims = shape.ndims();
        let dims = shape.dims();
        let stride = 2 * ndims;
        let mut table = vec![NO_LINK; n as usize * stride];
        for node in 0..n {
            for dim in 0..ndims {
                let size = dims[dim];
                if size <= 1 {
                    continue;
                }
                let c = shape.coord(node, dim);
                let plus = shape.with_coord(node, dim, (c + 1) % size);
                let lid = b.add_link(
                    NodeId(first + node as u32),
                    NodeId(first + plus as u32),
                    capacity_bps,
                );
                table[node as usize * stride + 2 * dim] = lid.0;
                if size == 2 {
                    // +1 and −1 coincide: the single pair serves both
                    // directions (the reverse link is added by the peer's
                    // own +1 pass).
                    table[node as usize * stride + 2 * dim + 1] = lid.0;
                }
            }
        }
        // Dedicated −1-direction links for rings longer than 2.
        for node in 0..n {
            for dim in 0..ndims {
                let size = dims[dim];
                if size <= 2 {
                    continue;
                }
                let c = shape.coord(node, dim);
                let minus = shape.with_coord(node, dim, (c + size - 1) % size);
                let lid = b.add_link(
                    NodeId(first + node as u32),
                    NodeId(first + minus as u32),
                    capacity_bps,
                );
                table[node as usize * stride + 2 * dim + 1] = lid.0;
            }
        }
        table
    }

    /// Append the DOR route between local node indices `src` and `dst`,
    /// adding `offset` to every link id read from `table`.
    pub(crate) fn route(
        shape: &MixedRadix,
        table: &[u32],
        offset: u32,
        src: u64,
        dst: u64,
        path: &mut Vec<LinkId>,
    ) {
        if src == dst {
            return;
        }
        let ndims = shape.ndims();
        let stride = 2 * ndims;
        let mut at = src;
        for dim in 0..ndims {
            let a = shape.coord(at, dim);
            let b = shape.coord(dst, dim);
            let delta = shape.ring_delta(a, b, dim);
            let positive = delta >= 0;
            let size = shape.dims()[dim];
            let mut c = a;
            for _ in 0..delta.unsigned_abs() {
                let idx = at as usize * stride + 2 * dim + usize::from(!positive);
                let raw = table[idx];
                debug_assert_ne!(raw, NO_LINK, "missing torus link at {at} dim {dim}");
                path.push(LinkId(raw + offset));
                c = if positive {
                    (c + 1) % size
                } else {
                    (c + size - 1) % size
                };
                at = shape.with_coord(at, dim, c);
            }
        }
        debug_assert_eq!(at, dst);
    }

    /// Exact DOR hop count between local node indices.
    #[inline]
    pub(crate) fn distance(shape: &MixedRadix, src: u64, dst: u64) -> u32 {
        let mut d = 0;
        for dim in 0..shape.ndims() {
            d += shape.ring_distance(shape.coord(src, dim), shape.coord(dst, dim), dim);
        }
        d
    }

    /// How many nodes sit at each DOR distance from any one node:
    /// `profile[d]` nodes at distance `d`, the node itself at 0. A torus is
    /// vertex-transitive and dimensions add up independently, so this is
    /// the convolution of the per-ring distance counts, whatever the source.
    pub(crate) fn distance_profile(shape: &MixedRadix) -> Vec<u64> {
        let mut profile = vec![1u64];
        for (dim, &size) in shape.dims().iter().enumerate() {
            let mut ring = vec![0u64; size as usize / 2 + 1];
            for c in 0..size {
                ring[shape.ring_distance(0, c, dim) as usize] += 1;
            }
            let mut next = vec![0u64; profile.len() + ring.len() - 1];
            for (a, &x) in profile.iter().enumerate() {
                for (b, &y) in ring.iter().enumerate() {
                    next[a + b] += x * y;
                }
            }
            profile = next;
        }
        profile
    }
}

/// A d-dimensional torus of endpoints.
#[derive(Debug)]
pub struct Torus {
    shape: MixedRadix,
    capacity_bps: f64,
    /// [`grid::distance_profile`] of `shape`.
    profile: Vec<u64>,
    /// Wired on the first [`Topology::network`] or [`Topology::route`].
    wiring: OnceLock<Wiring>,
}

/// The network of a [`Torus`] and its DOR link table.
#[derive(Debug)]
struct Wiring {
    net: Network,
    link_table: Vec<u32>,
}

impl Torus {
    /// Build a torus with the given per-dimension sizes and 10 Gbps links.
    pub fn new(dims: &[u32]) -> Self {
        Self::with_capacity_bps(dims, LINK_RATE_BPS)
    }

    /// Build a torus with a custom link capacity.
    pub fn with_capacity_bps(dims: &[u32], capacity_bps: f64) -> Self {
        let shape = MixedRadix::new(dims);
        Torus {
            profile: grid::distance_profile(&shape),
            shape,
            capacity_bps,
            wiring: OnceLock::new(),
        }
    }

    fn wiring(&self) -> &Wiring {
        self.wiring.get_or_init(|| {
            let n = self.shape.len() as usize;
            let ndims = self.shape.ndims();
            let mut b = NetworkBuilder::with_capacity(n, n * 2 * ndims);
            b.add_endpoints(n);
            let link_table = grid::build_links(&mut b, 0, &self.shape, self.capacity_bps);
            Wiring {
                net: b.build(),
                link_table,
            }
        })
    }

    /// Per-dimension sizes.
    pub fn dims(&self) -> &[u32] {
        self.shape.dims()
    }

    /// The coordinate mapping.
    pub fn shape(&self) -> &MixedRadix {
        &self.shape
    }

    /// Endpoint id at the given coordinates.
    pub fn node_at(&self, coords: &[u32]) -> NodeId {
        NodeId(self.shape.encode(coords) as u32)
    }

    /// Coordinates of an endpoint.
    pub fn coords_of(&self, node: NodeId) -> Vec<u32> {
        self.shape.decode(node.0 as u64)
    }

    /// Torus diameter: sum over dimensions of `floor(size/2)`.
    pub fn diameter(&self) -> u32 {
        self.shape.dims().iter().map(|&d| d / 2).sum()
    }

    /// Exact average DOR distance over ordered pairs `src != dst`: the
    /// per-ring means summed over dimensions, rescaled to exclude the
    /// source itself.
    pub fn average_distance(&self) -> f64 {
        let shape = &self.shape;
        let n = shape.len() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (dim, &size) in shape.dims().iter().enumerate() {
            let total: u64 = (0..size as u64)
                .map(|k| shape.ring_distance(0, k as u32, dim) as u64)
                .sum();
            sum += total as f64 / size as f64;
        }
        sum * n / (n - 1.0)
    }
}

impl Topology for Torus {
    fn name(&self) -> String {
        let dims: Vec<String> = self.shape.dims().iter().map(|d| d.to_string()).collect();
        format!("Torus({})", dims.join("x"))
    }

    fn network(&self) -> &Network {
        &self.wiring().net
    }

    fn num_endpoints(&self) -> usize {
        self.shape.len() as usize
    }

    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        grid::route(
            &self.shape,
            &self.wiring().link_table,
            0,
            src.0 as u64,
            dst.0 as u64,
            path,
        );
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        grid::distance(&self.shape, src.0 as u64, dst.0 as u64)
    }

    fn diameter_bound(&self) -> u32 {
        self.diameter()
    }

    fn distance_histogram(&self, _src: NodeId, histogram: &mut [u64]) -> u64 {
        let mut tally = Tally::new(histogram);
        tally.add_profile(&self.profile);
        tally.hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_distances_leave_it_unwired, check_route};
    use exaflow_netgraph::bfs_distances_physical;

    #[test]
    fn distance_queries_leave_it_unwired() {
        for dims in [&[5u32, 4, 2][..], &[3, 1], &[6]] {
            assert_distances_leave_it_unwired(|| Torus::new(dims), |t| t.wiring.get().is_some());
        }
    }

    #[test]
    fn link_counts() {
        // 4x4x2: dims of size 4 contribute 2 unidirectional links per node,
        // the size-2 dim contributes one duplex pair per node pair.
        let t = Torus::new(&[4, 4, 2]);
        assert_eq!(t.network().num_endpoints(), 32);
        assert_eq!(t.network().num_links(), 32 * (2 + 2 + 1));
    }

    #[test]
    fn dim_of_size_one_has_no_links() {
        let t = Torus::new(&[3, 1]);
        assert_eq!(t.network().num_links(), 3 * 2);
        assert_eq!(t.distance(NodeId(0), NodeId(2)), 1);
    }

    #[test]
    fn routes_valid_and_match_distance() {
        let t = Torus::new(&[4, 3, 2]);
        let n = t.num_endpoints() as u32;
        for s in 0..n {
            for d in 0..n {
                check_route(&t, NodeId(s), NodeId(d)).unwrap();
            }
        }
    }

    #[test]
    fn distance_agrees_with_bfs() {
        // DOR in a torus is minimal, so DOR distance == BFS distance.
        let t = Torus::new(&[5, 4]);
        let bfs = bfs_distances_physical(t.network(), NodeId(7));
        for d in 0..t.num_endpoints() as u32 {
            assert_eq!(t.distance(NodeId(7), NodeId(d)), bfs[d as usize]);
        }
    }

    #[test]
    fn diameter_formula() {
        assert_eq!(Torus::new(&[8, 8, 4]).diameter(), 4 + 4 + 2);
        assert_eq!(Torus::new(&[5, 3]).diameter(), 2 + 1);
    }

    #[test]
    fn paper_full_scale_torus_reference() {
        // Table 1 caption: the 131072-node torus (64x64x32) has diameter 80
        // and average distance 40.
        let t = Torus::new(&[64, 64, 32]);
        assert_eq!(t.diameter(), 80);
        let avg = t.average_distance();
        assert!((avg - 40.0).abs() < 0.01, "avg = {avg}");
        assert!(t.wiring.get().is_none(), "closed forms need no network");
    }

    #[test]
    fn average_distance_exact_on_ring() {
        let t = Torus::new(&[4]);
        let expect = (1.0 + 2.0 + 1.0) / 3.0;
        assert!((t.average_distance() - expect).abs() < 1e-12);
    }

    #[test]
    fn average_distance_matches_brute_force() {
        let t = Torus::new(&[4, 3]);
        let n = t.num_endpoints() as u32;
        let mut sum = 0u64;
        let mut count = 0u64;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    sum += t.distance(NodeId(s), NodeId(d)) as u64;
                    count += 1;
                }
            }
        }
        let brute = sum as f64 / count as f64;
        assert!((t.average_distance() - brute).abs() < 1e-12);
    }

    #[test]
    fn wraparound_is_used() {
        let t = Torus::new(&[8]);
        assert_eq!(t.distance(NodeId(0), NodeId(6)), 2);
        assert_eq!(t.route_vec(NodeId(0), NodeId(6)).len(), 2);
    }

    #[test]
    fn tie_breaks_positive() {
        let t = Torus::new(&[4]);
        // 0 -> 2 is distance 2 either way; DOR must go positive: 0->1->2.
        let path = t.route_vec(NodeId(0), NodeId(2));
        assert_eq!(t.network().link(path[0]).dst, NodeId(1));
    }

    #[test]
    fn coords_roundtrip() {
        let t = Torus::new(&[4, 3, 2]);
        let n = t.node_at(&[3, 2, 1]);
        assert_eq!(t.coords_of(n), vec![3, 2, 1]);
    }

    #[test]
    fn dor_corrects_dimensions_in_order() {
        let t = Torus::new(&[4, 4]);
        // (0,0) -> (2,2): first hops move along dim 0.
        let path = t.route_vec(t.node_at(&[0, 0]), t.node_at(&[2, 2]));
        assert_eq!(path.len(), 4);
        let first_dst = t.network().link(path[0]).dst;
        assert_eq!(t.coords_of(first_dst), vec![1, 0]);
    }
}
