//! k-ary n-tree fattrees (Petrini & Vanneschi) with destination-based
//! minimal UP*/DOWN* routing.
//!
//! A k-ary n-tree has `k^n` endpoint ports and `n·k^(n-1)` switches of radix
//! `2k` arranged in `n` stages. Switches are identified by `(level, word)`
//! where `word` is an (n-1)-digit base-k number; switch `(l, w)` connects to
//! `(l+1, w')` iff the words agree on every digit except digit `l`.
//! Port `p` attaches to leaf switch `(0, p / k)`.
//!
//! Routing ascends to the lowest common ancestor level, choosing the free
//! word digits from the *destination* (the classic d-mod-k scheme, which
//! spreads uniform traffic and makes the downward route a pure function of
//! the destination), then descends along forced links. The paper uses this
//! tree both as its `Fattree` baseline (restricted to three stages) and as
//! the `NestTree` upper tier.
//!
//! [`TreeTier`] is the reusable core: the radices, which answer distances,
//! and [`TreeTier::wire`], which wires the switch fabric into an existing
//! [`NetworkBuilder`] and attaches an arbitrary caller-supplied list of
//! nodes as ports — endpoints for the standalone [`KAryTree`], uplinked
//! torus QFDBs for `NestTree` — and returns the link ids routes read.

use crate::{Tally, Topology, LINK_RATE_BPS};
use exaflow_netgraph::{LinkId, Network, NetworkBuilder, NodeId};
use std::sync::OnceLock;

/// The switch fabric of a k-ary n-tree with its first `num_ports` ports
/// populated.
#[derive(Debug)]
pub struct TreeTier {
    k: u32,
    n: u32,
    num_ports: usize,
    /// k^(n-1): switches per level.
    words: u64,
}

/// The link ids of a wired [`TreeTier`].
#[derive(Debug)]
pub(crate) struct TreeLinks {
    /// Port uplink / downlink link ids, indexed by port.
    ep_up: Vec<u32>,
    ep_down: Vec<u32>,
    /// `up[(l*words + w)*k + v]` = link (l,w) → (l+1, w[l←v]).
    up: Vec<u32>,
    /// `down[(l*words + w')*k + v]` = link (l+1,w') → (l, w'[l←v]).
    down: Vec<u32>,
}

impl TreeTier {
    /// A k-ary n-tree whose first `num_ports` ports are populated.
    ///
    /// Panics if `num_ports` exceeds `k^n` or is zero.
    pub(crate) fn new(k: u32, n: u32, num_ports: usize) -> Self {
        assert!(k >= 2, "arity must be >= 2");
        assert!(n >= 1, "at least one stage required");
        let max_ports = (k as u64).checked_pow(n).expect("tree size overflow");
        assert!(
            num_ports as u64 <= max_ports,
            "{num_ports} ports exceed {max_ports} of a {k}-ary {n}-tree"
        );
        assert!(num_ports > 0, "at least one port required");
        TreeTier {
            k,
            n,
            num_ports,
            words: (k as u64).pow(n - 1),
        }
    }

    /// Wire the tree into `b`, attaching `ports` (existing nodes, one per
    /// populated port) to the tree ports in order, and thinning the
    /// capacity of every switch-to-switch link by `oversubscription` (≥ 1):
    /// a factor of 4 models a 4:1 thintree, the k:k'-ary n-tree of
    /// Navaridas et al. 2010 cited by the paper, at flow-level fidelity
    /// (aggregate upward bandwidth rather than individual trunk cables).
    /// The paper's own fattrees use no oversubscription (factor 1).
    pub(crate) fn wire(
        &self,
        b: &mut NetworkBuilder,
        ports: &[NodeId],
        capacity_bps: f64,
        oversubscription: f64,
    ) -> TreeLinks {
        debug_assert_eq!(ports.len(), self.num_ports);
        let fabric_bps = capacity_bps / oversubscription;
        let (k, n, words) = (self.k, self.n, self.words);
        let switch_base = b.num_nodes() as u32;
        b.add_switches((n as u64 * words) as usize);
        let switch_id =
            |l: u32, w: u64| -> NodeId { NodeId(switch_base + (l as u64 * words + w) as u32) };
        let mut ep_up = vec![0u32; ports.len()];
        let mut ep_down = vec![0u32; ports.len()];
        for (p, &node) in ports.iter().enumerate() {
            let leaf = switch_id(0, p as u64 / k as u64);
            let (upl, downl) = b.add_duplex(node, leaf, capacity_bps);
            ep_up[p] = upl.0;
            ep_down[p] = downl.0;
        }
        let table_len = (n as usize - 1) * words as usize * k as usize;
        let mut up = vec![0u32; table_len];
        let mut down = vec![0u32; table_len];
        for l in 0..n - 1 {
            let stride = (k as u64).pow(l);
            for w in 0..words {
                let wl = (w / stride) % k as u64;
                for v in 0..k as u64 {
                    let w_up = (w as i64 + (v as i64 - wl as i64) * stride as i64) as u64;
                    let (a, bk) = b.add_duplex(switch_id(l, w), switch_id(l + 1, w_up), fabric_bps);
                    up[((l as u64 * words + w) * k as u64 + v) as usize] = a.0;
                    down[((l as u64 * words + w_up) * k as u64 + wl) as usize] = bk.0;
                }
            }
        }
        TreeLinks {
            ep_up,
            ep_down,
            up,
            down,
        }
    }

    /// Tree arity (half the switch radix).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of stages.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of attached ports.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Total port slots (`k^n`), populated or not.
    pub fn max_ports(&self) -> u64 {
        (self.k as u64).pow(self.n)
    }

    /// Number of switches (`n · k^(n-1)`).
    pub fn num_switches(&self) -> u64 {
        self.n as u64 * self.words
    }

    /// Highest digit position at which two leaf words differ, if any.
    #[inline]
    fn highest_diff_digit(&self, wa: u64, wb: u64) -> Option<u32> {
        if wa == wb {
            return None;
        }
        let k = self.k as u64;
        let mut pos = None;
        let (mut x, mut y, mut p) = (wa, wb, 0u32);
        while x != 0 || y != 0 {
            if x % k != y % k {
                pos = Some(p);
            }
            x /= k;
            y /= k;
            p += 1;
        }
        pos
    }

    /// Append the port-to-port path (including both port attach links)
    /// over the link ids `links` of this tier.
    pub(crate) fn route_ports(
        &self,
        links: &TreeLinks,
        src: u64,
        dst: u64,
        path: &mut Vec<LinkId>,
    ) {
        if src == dst {
            return;
        }
        let k = self.k as u64;
        path.push(LinkId(links.ep_up[src as usize]));
        let leaf_s = src / k;
        let leaf_d = dst / k;
        if let Some(hi) = self.highest_diff_digit(leaf_s, leaf_d) {
            let levels = hi + 1;
            // Ascend with d-mod-k load spreading: the free word digit of
            // each up step is digit l of the *full destination id*, so
            // flows to the k endpoints of one leaf fan out over k distinct
            // subtrees and flows to one destination converge on a single
            // apex (the InfiniBand-style deterministic fattree routing).
            let mut w = leaf_s;
            for l in 0..levels {
                let stride = k.pow(l);
                let v = (dst / stride) % k;
                let wl = (w / stride) % k;
                path.push(LinkId(
                    links.up[((l as u64 * self.words + w) * k + v) as usize],
                ));
                w = (w as i64 + (v as i64 - wl as i64) * stride as i64) as u64;
            }
            // Descend along forced links: step level l+1 → l fixes word
            // digit l to the destination word's digit.
            for l in (0..levels).rev() {
                let stride = k.pow(l);
                let v = (leaf_d / stride) % k;
                let wl = (w / stride) % k;
                path.push(LinkId(
                    links.down[((l as u64 * self.words + w) * k + v) as usize],
                ));
                w = (w as i64 + (v as i64 - wl as i64) * stride as i64) as u64;
            }
            debug_assert_eq!(w, leaf_d, "descent must land on the destination leaf");
        }
        path.push(LinkId(links.ep_down[dst as usize]));
    }

    /// Port-to-port hop count: 0, 2 (same leaf) or `2·(hi+1) + 2`.
    #[inline]
    pub fn distance_ports(&self, src: u64, dst: u64) -> u32 {
        if src == dst {
            return 0;
        }
        let k = self.k as u64;
        match self.highest_diff_digit(src / k, dst / k) {
            None => 2,
            Some(hi) => 2 * (hi + 1) + 2,
        }
    }

    /// Call `f(lo, hi, d)` on disjoint port ranges `[lo, hi)` that cover
    /// every populated port but `src` exactly once, each range at
    /// [`distance_ports`](Self::distance_ports) `d` from `src`. Level `i`
    /// gives what the aligned block of `kⁱ` ports around `src` adds to the
    /// block of `kⁱ⁻¹` — at most one range below it and one above, so at
    /// most `2·n` ranges — at distance `2·i`, clipped to the populated
    /// ports.
    pub fn equidistant_ranges(&self, src: u64, mut f: impl FnMut(u64, u64, u32)) {
        let ports = self.num_ports as u64;
        let (mut inner_lo, mut inner_hi) = (src, src + 1);
        let mut width = 1u64;
        for level in 1..=self.n {
            width *= self.k as u64;
            let lo = src / width * width;
            let hi = (lo + width).min(ports);
            if lo < inner_lo {
                f(lo, inner_lo, 2 * level);
            }
            if inner_hi < hi {
                f(inner_hi, hi, 2 * level);
            }
            (inner_lo, inner_hi) = (lo, hi);
        }
    }

    /// Largest port-to-port hop count over populated ports. Ports `0` and
    /// `num_ports - 1` differ in the highest digit any populated pair can
    /// differ in, so their distance is the populated diameter.
    pub fn max_distance_ports(&self) -> u32 {
        if self.num_ports <= 1 {
            return 0;
        }
        self.distance_ports(0, self.num_ports as u64 - 1)
    }
}

/// A standalone k-ary n-tree whose ports are compute endpoints.
#[derive(Debug)]
pub struct KAryTree {
    tier: TreeTier,
    capacity_bps: f64,
    oversubscription: f64,
    /// Wired on the first [`Topology::network`] or [`Topology::route`].
    wiring: OnceLock<Wiring>,
}

/// The network of a [`KAryTree`] and its link ids.
#[derive(Debug)]
struct Wiring {
    net: Network,
    links: TreeLinks,
}

impl KAryTree {
    /// Build a fully-populated k-ary n-tree (`k^n` endpoints) at 10 Gbps.
    pub fn new(k: u32, n: u32) -> Self {
        let eps = (k as u64).pow(n);
        Self::with_endpoints(k, n, eps as usize)
    }

    /// Build a k-ary n-tree with only the first `num_eps` ports populated.
    pub fn with_endpoints(k: u32, n: u32, num_eps: usize) -> Self {
        Self::with_capacity_bps(k, n, num_eps, LINK_RATE_BPS)
    }

    /// Build with a custom link capacity.
    pub fn with_capacity_bps(k: u32, n: u32, num_eps: usize, capacity_bps: f64) -> Self {
        Self::with_oversubscription(k, n, num_eps, capacity_bps, 1.0)
    }

    /// Build a thinned tree: switch-to-switch capacity divided by
    /// `oversubscription` (a flow-level k:k\'-ary n-tree; see
    /// [`TreeTier::wire`]). Extension beyond the paper, which studies
    /// non-blocking fattrees only.
    pub fn with_oversubscription(
        k: u32,
        n: u32,
        num_eps: usize,
        capacity_bps: f64,
        oversubscription: f64,
    ) -> Self {
        assert!(
            oversubscription >= 1.0 && oversubscription.is_finite(),
            "oversubscription factor must be >= 1, got {oversubscription}"
        );
        KAryTree {
            tier: TreeTier::new(k, n, num_eps),
            capacity_bps,
            oversubscription,
            wiring: OnceLock::new(),
        }
    }

    fn wiring(&self) -> &Wiring {
        self.wiring.get_or_init(|| {
            let num_eps = self.tier.num_ports;
            let mut b = NetworkBuilder::new();
            let first = b.add_endpoints(num_eps);
            let ports: Vec<NodeId> = (0..num_eps as u32).map(|i| NodeId(first.0 + i)).collect();
            let links = self
                .tier
                .wire(&mut b, &ports, self.capacity_bps, self.oversubscription);
            Wiring {
                net: b.build(),
                links,
            }
        })
    }

    /// The underlying tier.
    pub fn tier(&self) -> &TreeTier {
        &self.tier
    }

    /// Tree arity.
    pub fn k(&self) -> u32 {
        self.tier.k
    }

    /// Number of stages.
    pub fn n(&self) -> u32 {
        self.tier.n
    }

    /// Number of switches.
    pub fn num_switches(&self) -> u64 {
        self.tier.num_switches()
    }

    /// Smallest arity `k` such that a k-ary `n`-tree has at least `ports`
    /// endpoint ports. Used to size `NestTree` upper tiers.
    pub fn arity_for_ports(ports: u64, n: u32) -> u32 {
        assert!(ports >= 1 && n >= 1);
        let mut k = 2u32;
        while (k as u64).pow(n) < ports {
            k += 1;
        }
        k
    }

    /// Diameter over populated endpoints.
    pub fn diameter(&self) -> u32 {
        if self.tier.num_ports <= 1 {
            return 0;
        }
        self.tier.distance_ports(0, self.tier.num_ports as u64 - 1)
    }

    /// Exact average port-to-port distance over ordered pairs of populated
    /// endpoints, `src != dst`.
    pub fn average_distance(&self) -> f64 {
        let e = self.tier.num_ports as u64;
        if e <= 1 {
            return 0.0;
        }
        let k = self.tier.k as u64;
        if e == self.tier.max_ports() {
            let mut sum = (k - 1) as f64 * 2.0;
            for j in 0..self.tier.n - 1 {
                let count = (k - 1) as f64 * k.pow(j) as f64 * k as f64;
                sum += count * (2 * (j + 1) + 2) as f64;
            }
            return sum / (e - 1) as f64;
        }
        // Partial population: distance depends only on the two leaf words.
        let leaves = e.div_ceil(k);
        let pop = |leaf: u64| -> f64 {
            let lo = leaf * k;
            let hi = ((leaf + 1) * k).min(e);
            (hi - lo) as f64
        };
        let mut total = 0f64;
        for la in 0..leaves {
            let ca = pop(la);
            for lb in 0..leaves {
                let cb = pop(lb);
                if la == lb {
                    total += ca * (ca - 1.0) * 2.0;
                } else {
                    let hi = self.tier.highest_diff_digit(la, lb).expect("distinct");
                    total += ca * cb * (2 * (hi + 1) + 2) as f64;
                }
            }
        }
        total / (e * (e - 1)) as f64
    }
}

impl Topology for KAryTree {
    fn name(&self) -> String {
        if self.tier.num_ports as u64 == self.tier.max_ports() {
            format!("Fattree({}-ary {}-tree)", self.tier.k, self.tier.n)
        } else {
            format!(
                "Fattree({}-ary {}-tree, {} of {} ports)",
                self.tier.k,
                self.tier.n,
                self.tier.num_ports,
                self.tier.max_ports()
            )
        }
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
    use exaflow_netgraph::bfs_distances_physical;

    #[test]
    fn counts_4ary_2tree() {
        // The paper's Figure 2c example: 16 endpoints, 8 switches.
        let t = KAryTree::new(4, 2);
        assert_eq!(t.num_endpoints(), 16);
        assert_eq!(t.num_switches(), 8);
        assert_eq!(t.network().num_switches(), 8);
        assert_eq!(t.network().num_links(), 2 * (16 + 16));
    }

    #[test]
    fn routes_valid_all_pairs() {
        let t = KAryTree::new(3, 3);
        let n = t.num_endpoints() as u32;
        for s in 0..n {
            for d in 0..n {
                check_route(&t, NodeId(s), NodeId(d)).unwrap();
            }
        }
    }

    #[test]
    fn distances_match_bfs() {
        // UP*/DOWN* through the LCA is minimal in a k-ary n-tree.
        let t = KAryTree::new(4, 2);
        for s in [0u32, 5, 15] {
            let bfs = bfs_distances_physical(t.network(), NodeId(s));
            for d in 0..t.num_endpoints() as u32 {
                assert_eq!(
                    t.distance(NodeId(s), NodeId(d)),
                    bfs[d as usize],
                    "({s},{d})"
                );
            }
        }
    }

    #[test]
    fn diameter_is_2n() {
        assert_eq!(KAryTree::new(2, 3).diameter(), 6);
        assert_eq!(KAryTree::new(4, 2).diameter(), 4);
        // Any 3-stage fattree has diameter 6 — the paper's reference value.
        assert_eq!(KAryTree::new(3, 3).diameter(), 6);
    }

    #[test]
    fn same_leaf_distance_two() {
        let t = KAryTree::new(4, 2);
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 2);
        assert_eq!(t.distance(NodeId(0), NodeId(3)), 2);
        assert_eq!(t.distance(NodeId(0), NodeId(4)), 4);
    }

    #[test]
    fn partial_population_routes() {
        let t = KAryTree::with_endpoints(4, 2, 10);
        assert_eq!(t.num_endpoints(), 10);
        let n = t.num_endpoints() as u32;
        for s in 0..n {
            for d in 0..n {
                check_route(&t, NodeId(s), NodeId(d)).unwrap();
            }
        }
    }

    #[test]
    fn average_distance_closed_form_matches_brute() {
        for (k, n) in [(2u32, 2u32), (4, 2), (2, 3), (3, 3)] {
            let t = KAryTree::new(k, n);
            let e = t.num_endpoints() as u32;
            let mut sum = 0u64;
            for s in 0..e {
                for d in 0..e {
                    if s != d {
                        sum += t.distance(NodeId(s), NodeId(d)) as u64;
                    }
                }
            }
            let brute = sum as f64 / (e as u64 * (e as u64 - 1)) as f64;
            assert!(
                (t.average_distance() - brute).abs() < 1e-9,
                "k={k} n={n}: {} vs {brute}",
                t.average_distance()
            );
        }
    }

    #[test]
    fn average_distance_partial_matches_brute() {
        let t = KAryTree::with_endpoints(3, 3, 17);
        let e = t.num_endpoints() as u32;
        let mut sum = 0u64;
        for s in 0..e {
            for d in 0..e {
                if s != d {
                    sum += t.distance(NodeId(s), NodeId(d)) as u64;
                }
            }
        }
        let brute = sum as f64 / (e as u64 * (e as u64 - 1)) as f64;
        assert!((t.average_distance() - brute).abs() < 1e-9);
    }

    #[test]
    fn equidistant_ranges_partition_the_other_ports() {
        // Full, and cut in the middle of a leaf and of a level-2 block.
        for eps in [27usize, 20, 11, 1] {
            let t = KAryTree::with_endpoints(3, 3, eps);
            for src in 0..eps as u64 {
                let mut seen = vec![0u32; eps];
                let mut ranges = 0;
                t.tier().equidistant_ranges(src, |lo, hi, d| {
                    assert!(lo < hi, "empty range");
                    ranges += 1;
                    for port in lo..hi {
                        seen[port as usize] += 1;
                        assert_eq!(t.tier().distance_ports(src, port), d);
                    }
                });
                assert!(ranges <= 2 * 3, "{ranges} ranges from {src}");
                for (port, &count) in seen.iter().enumerate() {
                    assert_eq!(count, u32::from(port as u64 != src), "port {port}");
                }
            }
        }
    }

    #[test]
    fn arity_for_ports_minimal() {
        assert_eq!(KAryTree::arity_for_ports(4096, 3), 16);
        assert_eq!(KAryTree::arity_for_ports(4097, 3), 17);
        assert_eq!(KAryTree::arity_for_ports(1, 3), 2);
        assert_eq!(KAryTree::arity_for_ports(131072, 3), 51);
    }

    #[test]
    fn up_routes_spread_over_subtrees() {
        // d-mod-k: flows from one leaf to the k endpoints of another leaf
        // fan out over k distinct apex switches, and flows from different
        // sources to one destination converge on the same apex.
        let t = KAryTree::new(4, 3);
        let apex = |path: &[LinkId]| {
            let apex_link = path[path.len() / 2 - 1];
            t.network().link(apex_link).dst
        };
        let mut apexes = std::collections::HashSet::new();
        for dst in 32..48u32 {
            apexes.insert(apex(&t.route_vec(NodeId(0), NodeId(dst))));
        }
        assert!(apexes.len() >= 4, "only {} distinct apexes", apexes.len());
        let p1 = t.route_vec(NodeId(0), NodeId(37));
        let p2 = t.route_vec(NodeId(55), NodeId(37));
        assert_eq!(apex(&p1), apex(&p2));
    }

    #[test]
    fn routing_is_deterministic() {
        let t = KAryTree::new(5, 3);
        for (s, d) in [(0u32, 99u32), (37, 11), (124, 0)] {
            assert_eq!(
                t.route_vec(NodeId(s), NodeId(d)),
                t.route_vec(NodeId(s), NodeId(d))
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_endpoints_panics() {
        KAryTree::with_endpoints(2, 2, 5);
    }

    #[test]
    fn oversubscription_thins_fabric_links() {
        let full = KAryTree::new(4, 2);
        let thin = KAryTree::with_oversubscription(4, 2, 16, 10e9, 4.0);
        // Endpoint links keep line rate; switch-switch links are thinned.
        let mut fabric_caps = std::collections::HashSet::new();
        for l in thin.network().links() {
            let is_ep_link = thin.network().is_endpoint(l.src) || thin.network().is_endpoint(l.dst);
            if is_ep_link {
                assert_eq!(l.capacity_bps, 10e9);
            } else {
                fabric_caps.insert(l.capacity_bps.to_bits());
            }
        }
        assert_eq!(fabric_caps.len(), 1);
        assert_eq!(f64::from_bits(*fabric_caps.iter().next().unwrap()), 2.5e9);
        // Structure identical to the full tree.
        assert_eq!(thin.network().num_links(), full.network().num_links());
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn oversubscription_below_one_rejected() {
        KAryTree::with_oversubscription(4, 2, 16, 10e9, 0.5);
    }

    #[test]
    fn switch_node_layout() {
        let t = KAryTree::new(2, 2);
        // 4 endpoints then switches: (0,0),(0,1),(1,0),(1,1).
        let (net, links) = (t.network(), &t.wiring().links);
        assert_eq!(net.link(LinkId(links.ep_up[0])).dst, NodeId(4));
        // Switch (0,1) up through word digit 0 = 1 lands on (1,1).
        assert_eq!(net.link(LinkId(links.up[3])).dst, NodeId(7));
    }

    #[test]
    fn distance_queries_leave_it_unwired() {
        for (k, n, eps) in [(3u32, 3u32, 27usize), (3, 3, 20), (4, 2, 1)] {
            assert_distances_leave_it_unwired(
                || KAryTree::with_endpoints(k, n, eps),
                |t| t.wiring.get().is_some(),
            );
        }
    }
}
