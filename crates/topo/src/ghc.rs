//! Generalised hypercube (Bhuyan & Agrawal) with e-cube routing.
//!
//! Routers sit at the points of a mixed-radix grid and every dimension is a
//! complete graph: a router links directly to the `a_i − 1` routers that
//! differ from it only in coordinate `i`. Each router additionally hosts up
//! to `ports_per_router` attached ports. The paper uses this topology as the
//! `NestGHC` upper tier, inspired by BCube-style container deployments.
//!
//! Routing is e-cube: correct each differing dimension in index order with a
//! single direct hop. Port-to-port distance is therefore
//! `2 + hamming(coords)` between distinct routers, 2 within a router, and 0
//! for self-traffic.
//!
//! [`GhcTier`] is the reusable core (mirroring [`crate::kary_tree::TreeTier`]):
//! the router grid, which answers distances, and `GhcTier::wire`, which
//! wires the router fabric into an existing [`NetworkBuilder`], attaches
//! caller-supplied nodes as ports and returns the link ids routes read.

use crate::mixed_radix::MixedRadix;
use crate::{Tally, Topology};
use exaflow_netgraph::{LinkId, Network, NetworkBuilder, NodeId};
use std::sync::OnceLock;

/// The router fabric of a generalised hypercube with its first
/// `num_ports` ports populated.
#[derive(Debug)]
pub struct GhcTier {
    shape: MixedRadix,
    ports_per_router: u32,
    num_ports: usize,
    /// Where each dimension starts in a router's row of [`GhcLinks`].
    dim_offset: Vec<u32>,
    link_stride: u32,
}

/// The link ids of a wired [`GhcTier`].
#[derive(Debug)]
pub(crate) struct GhcLinks {
    /// `ep_up[p]`, `ep_down[p]`: port ↔ home-router links.
    ep_up: Vec<u32>,
    ep_down: Vec<u32>,
    /// `router_links[router * link_stride + dim_offset[dim] + target_coord]`.
    router_links: Vec<u32>,
}

impl GhcTier {
    /// A GHC over the router grid `dims`, with ports attached to routers
    /// in blocks of `ports_per_router` and the first `num_ports` populated.
    pub(crate) fn new(dims: &[u32], ports_per_router: u32, num_ports: usize) -> Self {
        assert!(ports_per_router >= 1, "routers must host at least one port");
        let shape = MixedRadix::new(dims);
        let max_ports = shape.len() * ports_per_router as u64;
        assert!(
            num_ports as u64 <= max_ports,
            "{num_ports} ports exceed {max_ports}"
        );
        assert!(num_ports > 0, "at least one port required");
        let dim_offset: Vec<u32> = dims
            .iter()
            .scan(0u32, |acc, &d| {
                let here = *acc;
                *acc += d;
                Some(here)
            })
            .collect();
        GhcTier {
            shape,
            ports_per_router,
            num_ports,
            dim_offset,
            link_stride: dims.iter().sum(),
        }
    }

    /// Wire the GHC into `b`, attaching `ports` (existing nodes, one per
    /// populated port) to routers in blocks of `ports_per_router`.
    pub(crate) fn wire(&self, b: &mut NetworkBuilder, ports: &[NodeId]) -> GhcLinks {
        debug_assert_eq!(ports.len(), self.num_ports);
        let shape = &self.shape;
        let dims = shape.dims();
        let (dim_offset, link_stride) = (&self.dim_offset, self.link_stride);
        let routers = shape.len();
        let router_base = b.num_nodes() as u32;
        b.add_switches(routers as usize);
        let router_node = |r: u64| NodeId(router_base + r as u32);
        let mut ep_up = vec![0u32; ports.len()];
        let mut ep_down = vec![0u32; ports.len()];
        for (p, &node) in ports.iter().enumerate() {
            let home = router_node(p as u64 / self.ports_per_router as u64);
            let (upl, downl) = b.add_duplex(node, home);
            ep_up[p] = upl.0;
            ep_down[p] = downl.0;
        }
        let mut router_links = vec![u32::MAX; routers as usize * link_stride as usize];
        for r in 0..routers {
            for dim in 0..shape.ndims() {
                let my = shape.coord(r, dim);
                for target in my + 1..dims[dim] {
                    let peer = shape.with_coord(r, dim, target);
                    let (fwd, back) = b.add_duplex(router_node(r), router_node(peer));
                    router_links[r as usize * link_stride as usize
                        + dim_offset[dim] as usize
                        + target as usize] = fwd.0;
                    router_links[peer as usize * link_stride as usize
                        + dim_offset[dim] as usize
                        + my as usize] = back.0;
                }
            }
        }
        GhcLinks {
            ep_up,
            ep_down,
            router_links,
        }
    }

    /// Router grid shape.
    pub fn shape(&self) -> &MixedRadix {
        &self.shape
    }

    /// Number of routers.
    pub fn num_routers(&self) -> u64 {
        self.shape.len()
    }

    /// Ports per router.
    pub fn ports_per_router(&self) -> u32 {
        self.ports_per_router
    }

    /// Number of attached ports.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Home router index of a port.
    #[inline]
    pub fn home(&self, port: u64) -> u64 {
        port / self.ports_per_router as u64
    }

    #[inline]
    fn router_link(&self, links: &GhcLinks, r: u64, dim: usize, target: u32) -> LinkId {
        let idx = r as usize * self.link_stride as usize
            + self.dim_offset[dim] as usize
            + target as usize;
        let raw = links.router_links[idx];
        debug_assert_ne!(raw, u32::MAX, "missing GHC link r{r} dim{dim} -> {target}");
        LinkId(raw)
    }

    /// Append the port-to-port path (including both attach links) over
    /// the link ids `links` of this tier.
    pub(crate) fn route_ports(&self, links: &GhcLinks, src: u64, dst: u64, path: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        path.push(LinkId(links.ep_up[src as usize]));
        let mut r = self.home(src);
        let target = self.home(dst);
        if r != target {
            for dim in 0..self.shape.ndims() {
                let want = self.shape.coord(target, dim);
                if self.shape.coord(r, dim) != want {
                    path.push(self.router_link(links, r, dim, want));
                    r = self.shape.with_coord(r, dim, want);
                }
            }
        }
        debug_assert_eq!(r, target);
        path.push(LinkId(links.ep_down[dst as usize]));
    }

    /// Port-to-port hop count: `2 + hamming` across routers.
    #[inline]
    pub fn distance_ports(&self, src: u64, dst: u64) -> u32 {
        if src == dst {
            return 0;
        }
        let (a, b) = (self.home(src), self.home(dst));
        let mut d = 2;
        for dim in 0..self.shape.ndims() {
            if self.shape.coord(a, dim) != self.shape.coord(b, dim) {
                d += 1;
            }
        }
        d
    }

    /// Call `f(lo, hi, d)` on disjoint port ranges `[lo, hi)` that cover
    /// every populated port but `src` exactly once, each range at
    /// [`distance_ports`](Self::distance_ports) `d` from `src`, in port
    /// order. Ranges are maximal — consecutive routers at one distance are
    /// one range, so a row of routers off the home router's coordinate in
    /// dimension 0 gives one or two — except that the two ranges around
    /// `src` on its home router stay apart. Routers are walked in index
    /// order by a mixed-radix odometer that carries the Hamming distance to
    /// the home router along, so a router costs O(1) amortised instead of
    /// a coordinate decode.
    pub fn equidistant_ranges(&self, src: u64, mut f: impl FnMut(u64, u64, u32)) {
        let ports = self.num_ports as u64;
        let per_router = self.ports_per_router as u64;
        let dims = self.shape.dims();
        let home = self.home(src);
        let home_coords = self.shape.decode(home);
        let mut coords = vec![0u32; dims.len()];
        let mut hamming = home_coords.iter().filter(|&&c| c != 0).count() as u32;
        // The range being grown: its first port and its distance.
        let (mut run_lo, mut run_d) = (0u64, u32::MAX);
        for router in 0..ports.div_ceil(per_router) {
            let lo = router * per_router;
            if router == home {
                if run_lo < lo {
                    f(run_lo, lo, run_d);
                }
                if lo < src {
                    f(lo, src, 2);
                }
                (run_lo, run_d) = (src + 1, 2);
            } else if 2 + hamming != run_d {
                if run_lo < lo {
                    f(run_lo, lo, run_d);
                }
                (run_lo, run_d) = (lo, 2 + hamming);
            }
            // Step the odometer to the next router.
            for ((c, &size), &at_home) in coords.iter_mut().zip(dims).zip(&home_coords) {
                hamming -= u32::from(*c != at_home);
                *c = if *c + 1 < size { *c + 1 } else { 0 };
                hamming += u32::from(*c != at_home);
                if *c != 0 {
                    break;
                }
            }
        }
        if run_lo < ports {
            f(run_lo, ports, run_d);
        }
    }

    /// Largest possible port-to-port hop count: both attach links plus one
    /// router hop per grid dimension.
    pub fn max_distance_ports(&self) -> u32 {
        if self.num_ports <= 1 {
            return 0;
        }
        2 + self.shape.ndims() as u32
    }
}

/// A standalone generalised hypercube whose ports are compute endpoints.
#[derive(Debug)]
pub struct GeneralizedHypercube {
    tier: GhcTier,
    /// Wired on the first [`Topology::network`] or [`Topology::route`].
    wiring: OnceLock<Wiring>,
}

/// The network of a [`GeneralizedHypercube`] and its link ids.
#[derive(Debug)]
struct Wiring {
    net: Network,
    links: GhcLinks,
}

impl GeneralizedHypercube {
    /// Build a fully-populated GHC at 10 Gbps.
    pub fn new(dims: &[u32], ports_per_router: u32) -> Self {
        let routers = MixedRadix::new(dims).len();
        Self::with_endpoints(
            dims,
            ports_per_router,
            (routers * ports_per_router as u64) as usize,
        )
    }

    /// Build with only the first `num_eps` ports populated.
    pub fn with_endpoints(dims: &[u32], ports_per_router: u32, num_eps: usize) -> Self {
        GeneralizedHypercube {
            tier: GhcTier::new(dims, ports_per_router, num_eps),
            wiring: OnceLock::new(),
        }
    }

    fn wiring(&self) -> &Wiring {
        self.wiring.get_or_init(|| {
            let num_eps = self.tier.num_ports;
            let mut b = NetworkBuilder::new();
            let first = b.add_endpoints(num_eps);
            let ports: Vec<NodeId> = (0..num_eps as u32).map(|i| NodeId(first.0 + i)).collect();
            let links = self.tier.wire(&mut b, &ports);
            Wiring {
                net: b.build(),
                links,
            }
        })
    }

    /// The underlying tier.
    pub fn tier(&self) -> &GhcTier {
        &self.tier
    }

    /// Number of routers.
    pub fn num_routers(&self) -> u64 {
        self.tier.num_routers()
    }

    /// Ports per router.
    pub fn ports_per_router(&self) -> u32 {
        self.tier.ports_per_router
    }

    /// Diameter over populated ports.
    pub fn diameter(&self) -> u32 {
        let e = self.tier.num_ports as u64;
        if e <= 1 {
            return 0;
        }
        if e <= self.tier.ports_per_router as u64 {
            return 2; // all ports share one router
        }
        // Populated routers are the contiguous range 0..=last; a dimension
        // contributes to the worst-case hamming distance iff two populated
        // routers differ in it.
        let last = self.tier.home(e - 1);
        let dims = self.tier.shape.dims();
        let mut varying = 0;
        let mut stride: u64 = 1;
        for &d in dims {
            if d > 1 && last >= stride {
                varying += 1;
            }
            stride *= d as u64;
        }
        2 + varying
    }

    /// Exact average port-to-port distance over ordered pairs of populated
    /// endpoints (`src != dst`).
    pub fn average_distance(&self) -> f64 {
        let e = self.tier.num_ports as u64;
        if e <= 1 {
            return 0.0;
        }
        let p = self.tier.ports_per_router as u64;
        let shape = &self.tier.shape;
        if e == shape.len() * p {
            // Fully populated: dimensions are independent; sum (2 + hamming)
            // over all ordered endpoint pairs, then remove the e self-pairs
            // that would wrongly contribute 2.
            let routers = shape.len() as f64;
            let mut sum_h = 0.0;
            for &d in shape.dims() {
                sum_h += routers * routers * (d as f64 - 1.0) / d as f64;
            }
            let sum = (2.0 * routers * routers + sum_h) * (p * p) as f64 - 2.0 * e as f64;
            return sum / (e as f64 * (e as f64 - 1.0));
        }
        let routers_used = e.div_ceil(p);
        let pop = |r: u64| -> f64 {
            let lo = r * p;
            let hi = ((r + 1) * p).min(e);
            (hi - lo) as f64
        };
        let mut total = 0.0;
        for a in 0..routers_used {
            let ca = pop(a);
            for b in 0..routers_used {
                let cb = pop(b);
                if a == b {
                    total += ca * (ca - 1.0) * 2.0;
                } else {
                    let mut h = 0u32;
                    for dim in 0..shape.ndims() {
                        if shape.coord(a, dim) != shape.coord(b, dim) {
                            h += 1;
                        }
                    }
                    total += ca * cb * (2 + h) as f64;
                }
            }
        }
        total / (e as f64 * (e as f64 - 1.0))
    }
}

impl Topology for GeneralizedHypercube {
    fn name(&self) -> String {
        let dims: Vec<String> = self
            .tier
            .shape
            .dims()
            .iter()
            .map(|d| d.to_string())
            .collect();
        format!(
            "GHC({}; {} ports/router)",
            dims.join("x"),
            self.tier.ports_per_router
        )
    }

    fn network(&self) -> &Network {
        &self.wiring().net
    }

    fn num_endpoints(&self) -> usize {
        self.tier.num_ports
    }

    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        let links = &self.wiring().links;
        self.tier
            .route_ports(links, src.0 as u64, dst.0 as u64, path);
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        self.tier.distance_ports(src.0 as u64, dst.0 as u64)
    }

    fn diameter_bound(&self) -> u32 {
        self.diameter()
    }

    fn distance_histogram(&self, src: NodeId, histogram: &mut [u64]) -> u64 {
        let mut tally = Tally::new(histogram);
        self.tier
            .equidistant_ranges(src.0 as u64, |lo, hi, d| tally.add(d, hi - lo));
        tally.hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_distances_leave_it_unwired, check_route};
    use exaflow_netgraph::bfs_distances;

    #[test]
    fn counts_4ary_2cube() {
        // The paper's Figure 2b upper tier: a 4-ary 2-GHC = 16 routers.
        let g = GeneralizedHypercube::new(&[4, 4], 1);
        assert_eq!(g.num_routers(), 16);
        assert_eq!(g.num_endpoints(), 16);
        // Per dim: 4 rows/cols of K4 = 4 * 6 duplex pairs; 2 dims => 48.
        assert_eq!(g.network().num_links(), 2 * (16 + 48));
    }

    #[test]
    fn routes_valid_all_pairs() {
        let g = GeneralizedHypercube::new(&[3, 2, 4], 2);
        let n = g.num_endpoints() as u32;
        for s in (0..n).step_by(3) {
            for d in 0..n {
                check_route(&g, NodeId(s), NodeId(d)).unwrap();
            }
        }
    }

    #[test]
    fn distance_matches_bfs() {
        // e-cube is minimal in a GHC.
        let g = GeneralizedHypercube::new(&[4, 3], 2);
        let bfs = bfs_distances(g.network(), NodeId(5));
        for d in 0..g.num_endpoints() as u32 {
            assert_eq!(g.distance(NodeId(5), NodeId(d)), bfs[d as usize]);
        }
    }

    #[test]
    fn same_router_distance_two() {
        let g = GeneralizedHypercube::new(&[4, 4], 4);
        assert_eq!(g.distance(NodeId(0), NodeId(3)), 2);
        assert_eq!(g.distance(NodeId(0), NodeId(4)), 3); // adjacent router
    }

    #[test]
    fn diameter_full_and_partial() {
        assert_eq!(GeneralizedHypercube::new(&[4, 4], 1).diameter(), 4);
        assert_eq!(GeneralizedHypercube::new(&[2, 2, 2], 2).diameter(), 5);
        // 3 endpoints on a 4-port router: everything local.
        assert_eq!(
            GeneralizedHypercube::with_endpoints(&[4, 4], 4, 3).diameter(),
            2
        );
        // 5 endpoints, 1 port/router: routers 0..=4 of a 4x4 grid populated;
        // both dims vary.
        assert_eq!(
            GeneralizedHypercube::with_endpoints(&[4, 4], 1, 5).diameter(),
            4
        );
        // 3 endpoints, 1 port/router: routers (0,0),(1,0),(2,0): one dim.
        assert_eq!(
            GeneralizedHypercube::with_endpoints(&[4, 4], 1, 3).diameter(),
            3
        );
    }

    #[test]
    fn partial_diameter_matches_brute_force() {
        for eps in [2usize, 3, 5, 7, 9, 12] {
            let g = GeneralizedHypercube::with_endpoints(&[3, 2, 2], 1, eps);
            let n = g.num_endpoints() as u32;
            let mut max = 0;
            for s in 0..n {
                for d in 0..n {
                    max = max.max(g.distance(NodeId(s), NodeId(d)));
                }
            }
            assert_eq!(g.diameter(), max, "eps={eps}");
        }
    }

    #[test]
    fn average_distance_matches_brute_full() {
        let g = GeneralizedHypercube::new(&[3, 4], 2);
        let e = g.num_endpoints() as u32;
        let mut sum = 0u64;
        for s in 0..e {
            for d in 0..e {
                if s != d {
                    sum += g.distance(NodeId(s), NodeId(d)) as u64;
                }
            }
        }
        let brute = sum as f64 / (e as u64 * (e as u64 - 1)) as f64;
        assert!(
            (g.average_distance() - brute).abs() < 1e-9,
            "{} vs {brute}",
            g.average_distance()
        );
    }

    #[test]
    fn average_distance_matches_brute_partial() {
        let g = GeneralizedHypercube::with_endpoints(&[3, 3], 3, 20);
        let e = g.num_endpoints() as u32;
        let mut sum = 0u64;
        for s in 0..e {
            for d in 0..e {
                if s != d {
                    sum += g.distance(NodeId(s), NodeId(d)) as u64;
                }
            }
        }
        let brute = sum as f64 / (e as u64 * (e as u64 - 1)) as f64;
        assert!((g.average_distance() - brute).abs() < 1e-9);
    }

    #[test]
    fn equidistant_ranges_partition_the_other_ports() {
        // A size-1 dimension makes the odometer carry through it; 14 and 7
        // endpoints leave the last populated router partly filled.
        for eps in [18usize, 14, 7, 1] {
            let g = GeneralizedHypercube::with_endpoints(&[3, 1, 2], 3, eps);
            for src in 0..eps as u64 {
                let mut seen = vec![0u32; eps];
                g.tier().equidistant_ranges(src, |lo, hi, d| {
                    assert!(lo < hi, "empty range");
                    for port in lo..hi {
                        seen[port as usize] += 1;
                        assert_eq!(g.tier().distance_ports(src, port), d);
                    }
                });
                for (port, &count) in seen.iter().enumerate() {
                    assert_eq!(count, u32::from(port as u64 != src), "port {port}");
                }
            }
        }
    }

    #[test]
    fn equidistant_ranges_are_maximal() {
        // A 4x2x3 grid: off the home router's row, the routers of a row in
        // dimension 0 share a distance, and rows meet at equal distances.
        for eps in [48usize, 37, 9] {
            let g = GeneralizedHypercube::with_endpoints(&[4, 2, 3], 2, eps);
            let slots = g.diameter_bound() as usize + 1;
            for src in 0..eps as u32 {
                let mut ranges = Vec::new();
                g.tier()
                    .equidistant_ranges(src as u64, |lo, hi, d| ranges.push((lo, hi, d)));
                for pair in ranges.windows(2) {
                    let ((_, hi, d), (lo, _, next_d)) = (pair[0], pair[1]);
                    assert!(
                        hi != lo || d != next_d,
                        "from {src}: {:?} and {:?} touch at one distance",
                        pair[0],
                        pair[1]
                    );
                }
                let (mut counted, mut looped) = (vec![0u64; slots], vec![0u64; slots]);
                let counted_hops = g.distance_histogram(NodeId(src), &mut counted);
                let mut looped_hops = 0u64;
                for dst in (0..eps as u32).filter(|&d| d != src) {
                    let d = g.distance(NodeId(src), NodeId(dst));
                    looped[d as usize] += 1;
                    looped_hops += d as u64;
                }
                assert_eq!((counted, counted_hops), (looped, looped_hops), "from {src}");
            }
        }
    }

    #[test]
    fn distance_queries_leave_it_unwired() {
        for eps in [48usize, 37, 1] {
            assert_distances_leave_it_unwired(
                || GeneralizedHypercube::with_endpoints(&[4, 2, 3], 2, eps),
                |g| g.wiring.get().is_some(),
            );
        }
    }

    #[test]
    fn ecube_corrects_dims_in_order() {
        let g = GeneralizedHypercube::new(&[4, 4], 1);
        // 0 (0,0) -> 15 (3,3): first hop corrects dim 0 => router (3,0).
        let path = g.route_vec(NodeId(0), NodeId(15));
        assert_eq!(path.len(), 4); // up, dim0, dim1, down
        let second = g.network().link(path[1]).dst;
        assert_eq!(second, NodeId(16 + 3));
    }
}
