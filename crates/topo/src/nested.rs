//! The paper's hybrid multi-tier topologies: `NestTree(t, u)` and
//! `NestGHC(t, u)`.
//!
//! The system is partitioned into disjoint `t×t×t` subtori of QFDBs (the
//! hard-wired lower tier). One QFDB per `u` is *uplinked* according to the
//! Figure 3 connection rules and attaches, as a port, to an upper-tier
//! topology — a 3-stage fattree (`NestTree`) or a generalised hypercube
//! (`NestGHC`). Uplink ports are numbered globally in subtorus order, so
//! physically adjacent subtori attach to adjacent upper-tier ports.
//!
//! Routing follows the paper exactly:
//!
//! * traffic within a subtorus stays in the subtorus (DOR), reducing
//!   pressure on the upper tier;
//! * traffic between subtori routes DOR from the source to its closest
//!   uplinked node (possibly itself), minimally through the upper tier to
//!   the uplinked node closest to the destination, then DOR to the
//!   destination.

use crate::connection::{ConnectionRule, UplinkMap};
use crate::ghc::{GhcLinks, GhcTier};
use crate::kary_tree::{TreeLinks, TreeTier};
use crate::mixed_radix::{near_equal_dims, MixedRadix};
use crate::torus::grid;
use crate::{Tally, Topology};
use exaflow_netgraph::{LinkId, Network, NetworkBuilder, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Which topology forms the upper tier.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum UpperTierKind {
    /// A 3-stage k-ary tree (`NestTree`); arity is sized to fit the uplinks.
    Fattree,
    /// A generalised hypercube (`NestGHC`) with 16-port routers over a
    /// 4-dimensional near-balanced grid, per the paper's FPGA-router counts.
    GeneralizedHypercube,
}

impl UpperTierKind {
    /// The paper's name for the resulting hybrid.
    pub fn hybrid_name(self) -> &'static str {
        match self {
            UpperTierKind::Fattree => "NestTree",
            UpperTierKind::GeneralizedHypercube => "NestGHC",
        }
    }
}

/// Number of stages of every fattree in the study (paper §4.2: "we restrict
/// our study to fattrees with three stages").
pub const TREE_STAGES: u32 = 3;

/// Maximum endpoint ports per upper-tier GHC router (reverse-engineered
/// from the paper's Table 2: at u=1, 131072 uplinks need 8192 FPGA
/// routers, i.e. 16 ports each).
pub const GHC_MAX_PORTS_PER_ROUTER: u32 = 16;

/// Dimensions of the upper-tier GHC grid (4 dims reproduces the paper's
/// NestGHC(2,1) diameter of 6 = 2 endpoint hops + 4 router hops).
pub const GHC_NDIMS: usize = 4;

/// Size the upper-tier GHC for `uplinks` ports: the fewest routers (at most
/// [`GHC_MAX_PORTS_PER_ROUTER`] ports each) whose per-router fabric degree
/// `Σ(aᵢ − 1)` is at least **twice** the per-router port load. The 2×
/// margin reproduces the provisioning ratio of the paper's full-scale
/// design — 16-port FPGA routers on a grid with degree ≈ 35 — so the GHC
/// is not artificially oversubscribed relative to the paper when the
/// reproduction runs at reduced scales. At the paper's scale this yields
/// exactly its 8192 routers for u = 1.
///
/// Returns `(dims, ports_per_router)`.
pub fn ghc_upper_shape(uplinks: u64) -> (Vec<u32>, u32) {
    assert!(uplinks >= 1);
    let mut routers = uplinks.div_ceil(GHC_MAX_PORTS_PER_ROUTER as u64).max(1);
    loop {
        let dims = near_equal_dims(routers, GHC_NDIMS);
        let degree: u64 = dims.iter().map(|&a| (a - 1) as u64).sum();
        let ports = uplinks.div_ceil(routers);
        if degree >= 2 * ports || routers >= uplinks {
            return (dims, ports as u32);
        }
        routers *= 2;
    }
}

enum Upper {
    Tree(TreeTier),
    Ghc {
        tier: GhcTier,
        /// What sits below a fully populated router depends only on its
        /// index modulo `period`, a divisor of
        /// `U / gcd(U, ports_per_router)` for `U` uplinks a subtorus.
        period: usize,
        /// `below_router[res * width + j]`: endpoints `j` hops below a full
        /// router of residue `res` (in the layout of [`Descent`]).
        below_router: Vec<u64>,
    },
}

/// The link ids of a wired [`Upper`], of the same kind.
enum UpperLinks {
    Tree(TreeLinks),
    Ghc(GhcLinks),
}

impl Upper {
    fn wire(&self, b: &mut NetworkBuilder, ports: &[NodeId]) -> UpperLinks {
        match self {
            Upper::Tree(t) => UpperLinks::Tree(t.wire(b, ports)),
            Upper::Ghc { tier, .. } => UpperLinks::Ghc(tier.wire(b, ports)),
        }
    }

    #[inline]
    fn route_ports(&self, links: &UpperLinks, a: u64, b: u64, path: &mut Vec<LinkId>) {
        match (self, links) {
            (Upper::Tree(t), UpperLinks::Tree(l)) => t.route_ports(l, a, b, path),
            (Upper::Ghc { tier, .. }, UpperLinks::Ghc(l)) => tier.route_ports(l, a, b, path),
            _ => unreachable!("an upper tier is wired as its own kind"),
        }
    }

    fn num_switches(&self) -> u64 {
        match self {
            Upper::Tree(t) => t.num_switches(),
            Upper::Ghc { tier, .. } => tier.num_routers(),
        }
    }

    #[inline]
    fn distance_ports(&self, a: u64, b: u64) -> u32 {
        match self {
            Upper::Tree(t) => t.distance_ports(a, b),
            Upper::Ghc { tier, .. } => tier.distance_ports(a, b),
        }
    }

    #[inline]
    fn max_distance_ports(&self) -> u32 {
        match self {
            Upper::Tree(t) => t.max_distance_ports(),
            Upper::Ghc { tier, .. } => tier.max_distance_ports(),
        }
    }
}

/// Who sits below a range of upper-tier ports: the endpoints that descend
/// through it, counted by their DOR hops from the uplinked node. Every
/// subtorus has the same layout, so one prefix-sum table over the uplink
/// ordinals of a subtorus answers a port range of any alignment in
/// `O(width)`.
struct Descent {
    uplinks_per_sub: u64,
    /// One more than the longest `hops_to_uplink` of any local node.
    width: usize,
    /// `prefix[o * width + j]`: local nodes `j` hops from their uplink
    /// target whose target's ordinal is below `o`, for `o` in `0..=U`.
    prefix: Vec<u64>,
}

impl Descent {
    fn new(sub_shape: &MixedRadix, uplink_map: &UplinkMap) -> Self {
        let hops: Vec<usize> = (0..sub_shape.len())
            .map(|local| {
                let target = uplink_map.target(local as u32) as u64;
                grid::distance(sub_shape, local, target) as usize
            })
            .collect();
        let width = hops.iter().max().map_or(1, |&h| h + 1);
        let mut prefix = vec![0u64; (uplink_map.num_uplinks() + 1) * width];
        for (local, &h) in hops.iter().enumerate() {
            let ordinal = uplink_map.target_ordinal(local as u32) as usize;
            prefix[(ordinal + 1) * width + h] += 1;
        }
        for i in width..prefix.len() {
            prefix[i] += prefix[i - width];
        }
        Descent {
            uplinks_per_sub: uplink_map.num_uplinks() as u64,
            width,
            prefix,
        }
    }

    /// Call `f(j, count)` for each hop count `j`: `count` endpoints enter
    /// the upper tier `j` hops below global ports `[lo, hi)`.
    #[inline]
    fn below_ports(&self, lo: u64, hi: u64, mut f: impl FnMut(u32, u64)) {
        let per_sub = self.uplinks_per_sub;
        let whole = hi / per_sub - lo / per_sub;
        let full = &self.prefix[self.prefix.len() - self.width..];
        let upto_lo = &self.prefix[(lo % per_sub) as usize * self.width..];
        let upto_hi = &self.prefix[(hi % per_sub) as usize * self.width..];
        for j in 0..self.width {
            f(j as u32, whole * full[j] + upto_hi[j] - upto_lo[j]);
        }
    }

    /// For a GHC with `per_router` ports a router, the period of the
    /// routers' descent and its `below_router` table (see [`Upper::Ghc`]).
    /// Router `r`'s ports start at `r * per_router`, whose offset in a
    /// subtorus's ports repeats every `U / gcd(U, per_router)` routers; the
    /// rows may repeat sooner, and the shortest period is kept. With each
    /// of the four connection rules every uplink has the same descent, so
    /// that period is 1.
    fn router_profiles(&self, per_router: u64) -> (usize, Vec<u64>) {
        let (mut a, mut b) = (self.uplinks_per_sub, per_router);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        let offsets = (self.uplinks_per_sub / a) as usize;
        let mut below = vec![0u64; offsets * self.width];
        for (res, row) in below.chunks_mut(self.width).enumerate() {
            let lo = res as u64 * per_router;
            self.below_ports(lo, lo + per_router, |j, count| row[j as usize] = count);
        }
        let period = (1..=offsets)
            .filter(|&p| offsets.is_multiple_of(p))
            .find(|&p| {
                below[p * self.width..]
                    .iter()
                    .zip(&below)
                    .all(|(x, y)| x == y)
            })
            .expect("the offsets' own period");
        below.truncate(period * self.width);
        (period, below)
    }
}

/// A torus nested into an upper-tier fattree or generalised hypercube.
pub struct Nested {
    kind: UpperTierKind,
    rule: ConnectionRule,
    sub_shape: MixedRadix,
    sub_size: u64,
    num_subtori: u64,
    uplinks_per_sub: u64,
    uplink_map: UplinkMap,
    upper: Upper,
    /// [`grid::distance_profile`] of one subtorus.
    sub_profile: Vec<u64>,
    descent: Descent,
    /// Wired on the first [`Topology::network`] or [`Topology::route`].
    wiring: OnceLock<Wiring>,
}

/// The network of a [`Nested`] and its link ids.
struct Wiring {
    net: Network,
    /// DOR link table of subtorus 0, `sub_size * 2*ndims` entries. The
    /// same code wires every subtorus, one after another, so subtorus `s`'s
    /// link ids are these plus `s * links_per_sub`.
    torus_table: Vec<u32>,
    links_per_sub: u32,
    upper: UpperLinks,
}

impl Nested {
    /// Build a `NestTree(t,u)` or `NestGHC(t,u)` over `num_subtori`
    /// subtori of `t×t×t` QFDBs at 10 Gbps.
    pub fn new(kind: UpperTierKind, num_subtori: u64, t: u32, rule: ConnectionRule) -> Self {
        assert!(num_subtori >= 1, "at least one subtorus required");
        assert!(t >= 2, "subtorus must have at least 2 nodes per dimension");
        let sub_shape = MixedRadix::new(&[t, t, t]);
        let sub_size = sub_shape.len();
        let n = num_subtori * sub_size;
        assert!(
            n <= u32::MAX as u64 / 2,
            "system too large for u32 node ids"
        );
        let uplink_map = UplinkMap::new(&sub_shape, rule);
        let uplinks_per_sub = uplink_map.num_uplinks() as u64;
        let total_uplinks = num_subtori * uplinks_per_sub;
        let descent = Descent::new(&sub_shape, &uplink_map);
        let upper = match kind {
            UpperTierKind::Fattree => {
                let k = crate::kary_tree::KAryTree::arity_for_ports(total_uplinks, TREE_STAGES);
                Upper::Tree(TreeTier::new(k, TREE_STAGES, total_uplinks as usize))
            }
            UpperTierKind::GeneralizedHypercube => {
                let (dims, ports_per_router) = ghc_upper_shape(total_uplinks);
                let (period, below_router) = descent.router_profiles(ports_per_router as u64);
                Upper::Ghc {
                    tier: GhcTier::new(&dims, ports_per_router, total_uplinks as usize),
                    period,
                    below_router,
                }
            }
        };
        Nested {
            kind,
            rule,
            sub_profile: grid::distance_profile(&sub_shape),
            descent,
            sub_shape,
            sub_size,
            num_subtori,
            uplinks_per_sub,
            uplink_map,
            upper,
            wiring: OnceLock::new(),
        }
    }

    fn wiring(&self) -> &Wiring {
        self.wiring.get_or_init(|| {
            let mut b = NetworkBuilder::new();
            b.add_endpoints(self.num_endpoints());

            // Lower tier: one disjoint torus per subtorus.
            let before = b.num_links();
            let torus_table = grid::build_links(&mut b, 0, &self.sub_shape);
            let links_per_sub = (b.num_links() - before) as u32;
            for s in 1..self.num_subtori {
                let first = (s * self.sub_size) as u32;
                grid::build_links(&mut b, first, &self.sub_shape);
            }

            // Uplinked QFDB node ids in global port order.
            let mut ports = Vec::with_capacity(self.num_uplinks() as usize);
            for s in 0..self.num_subtori {
                for &local in self.uplink_map.uplinked() {
                    ports.push(NodeId((s * self.sub_size) as u32 + local));
                }
            }

            let upper = self.upper.wire(&mut b, &ports);
            Wiring {
                net: b.build(),
                torus_table,
                links_per_sub,
                upper,
            }
        })
    }

    /// Nodes per subtorus dimension (the paper's `t`).
    pub fn t(&self) -> u32 {
        self.sub_shape.dims()[0]
    }

    /// QFDBs per uplink (the paper's `u`).
    pub fn u(&self) -> u32 {
        self.rule.u()
    }

    /// The connection rule in use.
    pub fn rule(&self) -> ConnectionRule {
        self.rule
    }

    /// The upper-tier kind.
    pub fn kind(&self) -> UpperTierKind {
        self.kind
    }

    /// Number of subtori.
    pub fn num_subtori(&self) -> u64 {
        self.num_subtori
    }

    /// QFDBs per subtorus (`t³`).
    pub fn subtorus_size(&self) -> u64 {
        self.sub_size
    }

    /// Total uplinks (upper-tier ports).
    pub fn num_uplinks(&self) -> u64 {
        self.num_subtori * self.uplinks_per_sub
    }

    /// Switches in the upper tier.
    pub fn num_upper_switches(&self) -> u64 {
        self.upper.num_switches()
    }

    /// The subtorus coordinate mapping.
    pub fn subtorus_shape(&self) -> &MixedRadix {
        &self.sub_shape
    }

    /// Subtorus index of an endpoint.
    #[inline]
    pub fn subtorus_of(&self, ep: NodeId) -> u64 {
        ep.0 as u64 / self.sub_size
    }

    /// Local index of an endpoint within its subtorus.
    #[inline]
    pub fn local_of(&self, ep: NodeId) -> u32 {
        (ep.0 as u64 % self.sub_size) as u32
    }

    /// Global upper-tier port index used by an endpoint (its closest
    /// uplinked node's port).
    #[inline]
    pub fn port_of(&self, ep: NodeId) -> u64 {
        let sub = self.subtorus_of(ep);
        sub * self.uplinks_per_sub + self.uplink_map.target_ordinal(self.local_of(ep)) as u64
    }

    /// Whether an endpoint is itself uplinked.
    pub fn is_uplinked(&self, ep: NodeId) -> bool {
        self.uplink_map.is_uplinked(self.local_of(ep))
    }

    /// Intra-subtorus DOR hop count from an endpoint to its uplink target.
    #[inline]
    fn hops_to_uplink(&self, ep: NodeId) -> u32 {
        let local = self.local_of(ep);
        grid::distance(
            &self.sub_shape,
            local as u64,
            self.uplink_map.target(local) as u64,
        )
    }
}

impl Topology for Nested {
    fn name(&self) -> String {
        format!("{}(t={},u={})", self.kind.hybrid_name(), self.t(), self.u())
    }

    fn network(&self) -> &Network {
        &self.wiring().net
    }

    fn num_endpoints(&self) -> usize {
        (self.num_subtori * self.sub_size) as usize
    }

    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        let w = self.wiring();
        let s_sub = self.subtorus_of(src);
        let d_sub = self.subtorus_of(dst);
        let s_local = self.local_of(src) as u64;
        let d_local = self.local_of(dst) as u64;
        let s_offset = s_sub as u32 * w.links_per_sub;
        if s_sub == d_sub {
            // Paper rule: intra-subtorus traffic never leaves the subtorus.
            grid::route(
                &self.sub_shape,
                &w.torus_table,
                s_offset,
                s_local,
                d_local,
                path,
            );
            return;
        }
        let a_local = self.uplink_map.target(s_local as u32) as u64;
        let b_local = self.uplink_map.target(d_local as u32) as u64;
        grid::route(
            &self.sub_shape,
            &w.torus_table,
            s_offset,
            s_local,
            a_local,
            path,
        );
        self.upper
            .route_ports(&w.upper, self.port_of(src), self.port_of(dst), path);
        grid::route(
            &self.sub_shape,
            &w.torus_table,
            d_sub as u32 * w.links_per_sub,
            b_local,
            d_local,
            path,
        );
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let s_sub = self.subtorus_of(src);
        let d_sub = self.subtorus_of(dst);
        if s_sub == d_sub {
            return grid::distance(
                &self.sub_shape,
                self.local_of(src) as u64,
                self.local_of(dst) as u64,
            );
        }
        self.hops_to_uplink(src)
            + self
                .upper
                .distance_ports(self.port_of(src), self.port_of(dst))
            + self.hops_to_uplink(dst)
    }

    fn diameter_bound(&self) -> u32 {
        // DOR to the uplink node, across the upper tier, DOR to the
        // destination; each DOR leg is bounded by the subtorus diameter.
        let sub_diam: u32 = self.sub_shape.dims().iter().map(|&d| d / 2).sum();
        2 * sub_diam + self.upper.max_distance_ports()
    }

    fn distance_histogram(&self, src: NodeId, histogram: &mut [u64]) -> u64 {
        let mut tally = Tally::new(histogram);
        // The source's own subtorus never leaves the lower tier.
        tally.add_profile(&self.sub_profile);
        // Everyone else: up to the uplink, across the upper tier, down to
        // whoever descends below the ports reached. The rest of the
        // source's subtorus, `[own_lo, own_hi)`, is left out.
        let own_lo = self.subtorus_of(src) * self.uplinks_per_sub;
        let own_hi = own_lo + self.uplinks_per_sub;
        let climb = self.hops_to_uplink(src);
        let port = self.port_of(src);
        let descend = |tally: &mut Tally, lo: u64, hi: u64, across: u32| {
            self.descent.below_ports(lo, hi, |descend, count| {
                tally.add(climb + across + descend, count)
            });
        };
        match &self.upper {
            // Equidistant port ranges, clipped.
            Upper::Tree(tree) => tree.equidistant_ranges(port, |lo, hi, across| {
                for (lo, hi) in [(lo, hi.min(own_lo)), (lo.max(own_hi), hi)] {
                    if lo < hi {
                        descend(&mut tally, lo, hi, across);
                    }
                }
            }),
            // Whole routers by (Hamming distance, residue) class, each
            // class's descent read off its residue's profile; the routers
            // the own subtorus cuts and the partly populated one by range.
            Upper::Ghc {
                tier,
                period,
                below_router,
            } => {
                let mut classes = vec![0u64; (tier.shape().ndims() + 1) * period];
                tier.port_classes(
                    port,
                    own_lo..own_hi,
                    *period,
                    &mut classes,
                    |lo, hi, across| descend(&mut tally, lo, hi, across),
                );
                let width = self.descent.width;
                for (slot, &routers) in classes.iter().enumerate() {
                    if routers == 0 {
                        continue;
                    }
                    let (hamming, res) = ((slot / period) as u32, slot % period);
                    let below = &below_router[res * width..][..width];
                    for (descend, &count) in below.iter().enumerate() {
                        tally.add(climb + 2 + hamming + descend as u32, routers * count);
                    }
                }
            }
        }
        tally.hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_distances_leave_it_unwired, check_route};

    fn all_rules() -> [ConnectionRule; 4] {
        ConnectionRule::all()
    }

    #[test]
    fn figure2_examples_build() {
        // Figure 2b/2d: t=2, u=8 => one uplink per subtorus; 16 subtori give
        // a 4-ary 2-GHC-sized upper tier in the paper's drawing. We verify
        // our construction has the right uplink count.
        for kind in [UpperTierKind::Fattree, UpperTierKind::GeneralizedHypercube] {
            let n = Nested::new(kind, 16, 2, ConnectionRule::EighthNodes);
            assert_eq!(n.num_endpoints(), 16 * 8);
            assert_eq!(n.num_uplinks(), 16);
        }
    }

    #[test]
    fn routes_valid_all_kinds_and_rules() {
        for kind in [UpperTierKind::Fattree, UpperTierKind::GeneralizedHypercube] {
            for rule in all_rules() {
                let n = Nested::new(kind, 4, 2, rule);
                let e = n.num_endpoints() as u32;
                for s in 0..e {
                    for d in 0..e {
                        check_route(&n, NodeId(s), NodeId(d)).unwrap_or_else(|err| {
                            panic!("{err}");
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn routes_valid_t4() {
        for kind in [UpperTierKind::Fattree, UpperTierKind::GeneralizedHypercube] {
            let n = Nested::new(kind, 3, 4, ConnectionRule::QuarterNodes);
            let e = n.num_endpoints() as u32;
            for s in (0..e).step_by(7) {
                for d in (0..e).step_by(3) {
                    check_route(&n, NodeId(s), NodeId(d)).unwrap();
                }
            }
        }
    }

    #[test]
    fn intra_subtorus_stays_local() {
        let n = Nested::new(UpperTierKind::Fattree, 4, 2, ConnectionRule::EighthNodes);
        // Endpoints 0..8 are subtorus 0; a route between them must not touch
        // any switch node.
        let path = n.route_vec(NodeId(0), NodeId(7));
        for lid in path {
            let link = n.network().link(lid);
            assert!(n.network().is_endpoint(link.src));
            assert!(n.network().is_endpoint(link.dst));
        }
    }

    #[test]
    fn inter_subtorus_uses_upper_tier() {
        let n = Nested::new(UpperTierKind::Fattree, 4, 2, ConnectionRule::EveryNode);
        let path = n.route_vec(NodeId(0), NodeId(8));
        assert!(path
            .iter()
            .any(|&lid| !n.network().is_endpoint(n.network().link(lid).dst)));
        // u=1 with both endpoints uplinked: pure upper-tier path.
        assert_eq!(n.distance(NodeId(0), NodeId(8)), path.len() as u32);
    }

    #[test]
    fn diameter_shrinks_with_uplink_density() {
        // The paper's Table 1 trend: denser uplinks (smaller u) shorten the
        // worst-case path (monotonically at fixed t).
        let diam = |n: &Nested| {
            let e = n.num_endpoints() as u32;
            let mut m = 0;
            for s in 0..e {
                for d in 0..e {
                    m = m.max(n.distance(NodeId(s), NodeId(d)));
                }
            }
            m
        };
        for kind in [UpperTierKind::Fattree, UpperTierKind::GeneralizedHypercube] {
            let d: Vec<u32> = [
                ConnectionRule::EveryNode,
                ConnectionRule::HalfNodes,
                ConnectionRule::QuarterNodes,
                ConnectionRule::EighthNodes,
            ]
            .into_iter()
            .map(|rule| diam(&Nested::new(kind, 16, 2, rule)))
            .collect();
            // The densest configuration has the smallest diameter, the
            // sparsest the largest. (Middle densities are not strictly
            // ordered at this tiny scale because the upper tier shrinks
            // with u.)
            for mid in &d[1..3] {
                assert!(d[0] <= *mid && *mid <= d[3], "{kind:?}: {d:?}");
            }
        }
    }

    #[test]
    fn port_of_maps_to_closest_uplink() {
        let n = Nested::new(UpperTierKind::Fattree, 2, 2, ConnectionRule::EighthNodes);
        // Subtorus 0: only local node 0 uplinked; all 8 locals map to port 0.
        for ep in 0..8u32 {
            assert_eq!(n.port_of(NodeId(ep)), 0);
        }
        for ep in 8..16u32 {
            assert_eq!(n.port_of(NodeId(ep)), 1);
        }
    }

    #[test]
    fn distance_symmetric_for_symmetric_rules() {
        // u=1: distance should be symmetric (both directions pure upper
        // tier + equal torus segments).
        let n = Nested::new(
            UpperTierKind::GeneralizedHypercube,
            8,
            2,
            ConnectionRule::EveryNode,
        );
        let e = n.num_endpoints() as u32;
        for s in (0..e).step_by(5) {
            for d in (0..e).step_by(7) {
                assert_eq!(
                    n.distance(NodeId(s), NodeId(d)),
                    n.distance(NodeId(d), NodeId(s))
                );
            }
        }
    }

    #[test]
    fn every_uplink_descends_alike_so_one_router_class_per_distance() {
        // Were it not so, the residue classes would carry the difference:
        // `GhcTier::port_classes` is held to a walk at periods above 1.
        for t in 2..=8 {
            for rule in ConnectionRule::all() {
                let shape = MixedRadix::new(&[t, t, t]);
                if t % 2 == 1 && rule != ConnectionRule::EveryNode {
                    continue; // odd t exists only fully uplinked
                }
                let descent = Descent::new(&shape, &UplinkMap::new(&shape, rule));
                for per_router in [1u64, 3, 8, 16] {
                    let (period, below) = descent.router_profiles(per_router);
                    assert_eq!(period, 1, "t={t}, u={}, {per_router} ports", rule.u());
                    assert_eq!(below.iter().sum::<u64>(), per_router * rule.u() as u64);
                }
            }
        }
    }

    #[test]
    fn ghc_upper_shape_covers_port_load() {
        for uplinks in [1u64, 2, 16, 256, 1024, 16384, 131_072] {
            let (dims, p) = ghc_upper_shape(uplinks);
            assert_eq!(dims.len(), GHC_NDIMS);
            let routers: u64 = dims.iter().map(|&a| a as u64).product();
            assert!(routers * p as u64 >= uplinks, "uplinks={uplinks}");
            let degree: u64 = dims.iter().map(|&a| (a - 1) as u64).sum();
            assert!(
                degree >= 2 * p as u64 || routers >= uplinks,
                "uplinks={uplinks}: degree {degree} < 2x ports {p}"
            );
            assert!(p <= GHC_MAX_PORTS_PER_ROUTER);
        }
        // Paper scale at u=1: 16-port routers, like the Table 2 estimate.
        let (_, p) = ghc_upper_shape(131_072);
        assert_eq!(p, 16);
    }

    #[test]
    fn distance_queries_leave_it_unwired() {
        for kind in [UpperTierKind::Fattree, UpperTierKind::GeneralizedHypercube] {
            for (subtori, t, rule) in [
                (5u64, 2u32, ConnectionRule::QuarterNodes),
                (3, 4, ConnectionRule::EighthNodes),
                (2, 3, ConnectionRule::EveryNode),
            ] {
                let make = || Nested::new(kind, subtori, t, rule);
                assert_distances_leave_it_unwired(make, |n| n.wiring.get().is_some());
                let n = make();
                let switches = n.num_upper_switches();
                assert!(n.wiring.get().is_none());
                assert_eq!(n.network().num_switches() as u64, switches, "{}", n.name());
            }
        }
    }

    #[test]
    fn one_table_serves_every_subtorus() {
        // Rebuild the per-subtorus tables the way the lower tier is wired
        // and check each against subtorus 0's plus its offset.
        for t in [2u32, 3, 4] {
            let n = Nested::new(UpperTierKind::Fattree, 5, t, ConnectionRule::EveryNode);
            let w = n.wiring();
            let mut b = NetworkBuilder::new();
            b.add_endpoints(n.num_endpoints());
            for s in 0..n.num_subtori() {
                let first = (s * n.subtorus_size()) as u32;
                let table = grid::build_links(&mut b, first, n.subtorus_shape());
                assert_eq!(table.len(), w.torus_table.len());
                for (i, (&raw, &base)) in table.iter().zip(&w.torus_table).enumerate() {
                    let shifted = base + s as u32 * w.links_per_sub;
                    assert_eq!(raw, shifted, "t={t}, subtorus {s}, entry {i}");
                }
            }
        }
    }

    #[test]
    fn accessors() {
        let n = Nested::new(UpperTierKind::Fattree, 4, 2, ConnectionRule::HalfNodes);
        assert_eq!(n.t(), 2);
        assert_eq!(n.u(), 2);
        assert_eq!(n.num_subtori(), 4);
        assert_eq!(n.subtorus_size(), 8);
        assert_eq!(n.num_uplinks(), 16);
        assert_eq!(n.name(), "NestTree(t=2,u=2)");
        assert!(n.num_upper_switches() > 0);
        assert!(n.is_uplinked(NodeId(0)));
        assert!(!n.is_uplinked(NodeId(1)));
        assert_eq!(n.subtorus_of(NodeId(9)), 1);
        assert_eq!(n.local_of(NodeId(9)), 1);
    }
}
