//! Topology generators and deterministic routing functions.
//!
//! This crate implements every network arrangement studied in
//! *"Design Exploration of Multi-tier Interconnection Networks for Exascale
//! Systems"* (ICPP 2019):
//!
//! * [`Torus`] — d-dimensional torus with dimension-order routing (DOR);
//!   the hard-wired lower tier of the ExaNeSt system and the `Torus3D`
//!   baseline of the paper's figures.
//! * [`KAryTree`] — the k-ary n-tree fattree (Petrini & Vanneschi) with
//!   minimal UP*/DOWN* destination-based routing; the `Fattree` baseline and
//!   the `NestTree` upper tier.
//! * [`GeneralizedHypercube`] — the GHC (Bhuyan & Agrawal) with e-cube
//!   routing; the `NestGHC` upper tier.
//! * [`Nested`] — the paper's hybrid multi-tier topologies `NestTree(t,u)`
//!   and `NestGHC(t,u)`: disjoint t×t×t subtori whose uplinked nodes attach
//!   to an upper-tier fattree or GHC, with the paper's three-segment routing
//!   (DOR to the nearest uplinked node, minimal routing in the upper tier,
//!   DOR to the destination) and the rule that intra-subtorus traffic never
//!   leaves its subtorus.
//! * [`connection`] — the four uplink-density connection rules of Figure 3
//!   (u ∈ {1, 2, 4, 8} QFDBs per uplink).
//!
//! One extension beyond the paper, flagged in its module doc:
//! [`FaultOverlay`] (link failures, run-long or mid-run, with
//! fault-tolerant rerouting, from the paper's future-work list). The
//! overlay borrows a topology rather than wrapping it: every [`Topology`]
//! is healthy, and its `route` is total.
//!
//! All routing functions are deterministic arithmetic over link-id arrays:
//! each generator records the link ids it creates so the hot routing path
//! performs O(1) array lookups per hop instead of adjacency searches. A
//! route therefore costs O(hops) to compute, which is why no layer of this
//! crate precomputes or stores all-pairs paths.
//!
//! The paper's generators build in two parts. What names, counts and
//! measures distances (shapes, distance profiles, uplink maps, tier radices)
//! is built by the constructor; the network and its link-id tables are
//! wired once, inside a `OnceLock`, on the first [`Topology::network`] or
//! [`Topology::route`] call. Table 1's distance analysis therefore runs at
//! 131,072 QFDBs without a link in memory.

pub mod connection;
pub mod failures;
pub mod ghc;
pub mod kary_tree;
pub mod mixed_radix;
pub mod nested;
pub mod torus;

pub use connection::{ConnectionRule, UplinkMap};
pub use failures::{failed_links_name, FaultOverlay, RouteError};
pub use ghc::GeneralizedHypercube;
pub use kary_tree::KAryTree;
pub use mixed_radix::MixedRadix;
pub use nested::{Nested, UpperTierKind};
pub use torus::Torus;

use exaflow_netgraph::{LinkId, Network, NodeId};

/// Rate of every link: the ExaNeSt transceivers' 10 Gbps. The simulator
/// gives each link resource this capacity.
pub const LINK_RATE_BPS: f64 = 10e9;

/// A network topology with deterministic single-path routing.
///
/// Endpoints are the node ids `0..num_endpoints()`; routing is defined only
/// between endpoints. Implementations must guarantee:
///
/// * `route(s, s, ..)` appends nothing,
/// * the appended path is a loop-free walk `s → d`,
/// * `distance(s, d)` equals the length of `route(s, d, ..)`,
/// * routing is a pure function of `(s, d)`.
///
/// These invariants are exercised by this crate's property tests. Every
/// generator answers [`Topology::distance`] and [`Topology::diameter_bound`]
/// in closed form, so both are required methods.
pub trait Topology: Send + Sync {
    /// Human-readable name, e.g. `NestGHC(t=2,u=4)`.
    fn name(&self) -> String;

    /// The underlying graph.
    ///
    /// The paper's generators ([`Torus`], [`KAryTree`],
    /// [`GeneralizedHypercube`], [`Nested`]) wire it on the first call to
    /// this or to [`Topology::route`]: names, counts and distances are
    /// arithmetic, so a distance analysis never builds a link.
    fn network(&self) -> &Network;

    /// Number of compute endpoints.
    fn num_endpoints(&self) -> usize {
        self.network().num_endpoints()
    }

    /// Append the deterministic route from endpoint `src` to endpoint `dst`
    /// onto `path`. Appends nothing when `src == dst`.
    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>);

    /// Number of link hops of the deterministic route, in closed
    /// form: no route is computed and nothing is wired.
    fn distance(&self, src: NodeId, dst: NodeId) -> u32;

    /// Route into a fresh vector (convenience wrapper).
    fn route_vec(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut p = Vec::new();
        self.route(src, dst, &mut p);
        p
    }

    /// An inclusive upper bound on [`Topology::distance`] over all endpoint
    /// pairs, so histogram consumers can size buffers once instead of
    /// growing them per pair: the exact diameter for [`Torus`], [`KAryTree`]
    /// and [`GeneralizedHypercube`], a leg-by-leg sum for [`Nested`]. The
    /// bound is for the healthy network: a [`FaultOverlay`] detour may
    /// exceed it.
    fn diameter_bound(&self) -> u32;

    /// Tally `distance(src, d)` for every endpoint `d != src` into
    /// `histogram`, which the caller pre-sizes to `diameter_bound() + 1`
    /// slots (no growth in the hot loop), and return the hops summed over
    /// those destinations.
    ///
    /// The default is the per-pair loop, `O(E)` calls of `distance`; it is
    /// the reference the overrides are tested against. [`Torus`],
    /// [`KAryTree`], [`GeneralizedHypercube`] and [`Nested`] override it
    /// with *counting*: seen from one source their destinations fall into a
    /// few equidistant classes whose sizes are arithmetic, so a source costs
    /// far less than `E` distance evaluations. Counts and the hop total are
    /// integers, so an override must reproduce the default exactly.
    fn distance_histogram(&self, src: NodeId, histogram: &mut [u64]) -> u64 {
        let mut hops = 0u64;
        for d in 0..self.num_endpoints() as u32 {
            if d == src.0 {
                continue;
            }
            let dist = self.distance(src, NodeId(d));
            histogram[dist as usize] += 1;
            hops += dist as u64;
        }
        hops
    }
}

/// The running state of one [`Topology::distance_histogram`] override:
/// whole equidistant classes are added at once.
pub(crate) struct Tally<'a> {
    histogram: &'a mut [u64],
    /// Hops summed over everything added so far.
    pub(crate) hops: u64,
}

impl<'a> Tally<'a> {
    pub(crate) fn new(histogram: &'a mut [u64]) -> Self {
        Tally { histogram, hops: 0 }
    }

    /// `count` destinations at `distance` hops.
    #[inline]
    pub(crate) fn add(&mut self, distance: u32, count: u64) {
        self.histogram[distance as usize] += count;
        self.hops += distance as u64 * count;
    }

    /// Every node of a torus [`distance_profile`](torus::grid::distance_profile)
    /// but the source itself, which is its slot 0.
    pub(crate) fn add_profile(&mut self, profile: &[u64]) {
        for (d, &count) in profile.iter().enumerate().skip(1) {
            self.add(d as u32, count);
        }
    }
}

/// Check the routing invariants for a `(src, dst)` pair; used by tests.
///
/// Returns the path length on success.
pub fn check_route(topo: &dyn Topology, src: NodeId, dst: NodeId) -> Result<u32, String> {
    let path = topo.route_vec(src, dst);
    exaflow_netgraph::validate_path(topo.network(), src, dst, &path)
        .map_err(|e| format!("{}: route {src}->{dst}: {e}", topo.name()))?;
    let d = topo.distance(src, dst);
    if d != path.len() as u32 {
        return Err(format!(
            "{}: distance({src},{dst}) = {d} but route has {} hops",
            topo.name(),
            path.len()
        ));
    }
    Ok(d)
}

/// Query distances of `make()` the way a distance analysis does, then check
/// that this wired nothing (`is_wired` reads the generator's wiring slot),
/// and that wiring it afterwards, through `route`, gives the same links and
/// routes as a twin wired through `network` before any query.
#[cfg(test)]
pub(crate) fn assert_distances_leave_it_unwired<T: Topology>(
    make: impl Fn() -> T,
    is_wired: impl Fn(&T) -> bool,
) {
    let late = make();
    let e = late.num_endpoints() as u32;
    let mut histogram = vec![0u64; late.diameter_bound() as usize + 1];
    let name = late.name();
    for s in 0..e {
        late.distance_histogram(NodeId(s), &mut histogram);
        late.distance(NodeId(s), NodeId(e - 1 - s));
    }
    assert!(!is_wired(&late), "{name}: a distance query wired it");

    let early = make();
    let _ = early.network();
    assert!(is_wired(&early), "{name}: network() left it unwired");
    for s in (0..e).step_by((e as usize / 7).max(1)).map(NodeId) {
        for d in (0..e).step_by((e as usize / 11).max(1)).map(NodeId) {
            let route = late.route_vec(s, d);
            assert_eq!(route, early.route_vec(s, d), "{name}: {s}->{d}");
        }
    }
    assert!(is_wired(&late), "{name}: route() left it unwired");
    assert_eq!(late.network().links(), early.network().links(), "{name}");
}
