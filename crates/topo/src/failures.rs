//! Link-failure injection with fault-tolerant rerouting.
//!
//! **Extension beyond the paper** (flagged as future work in its §6: "we
//! are developing … mechanisms for fault tolerance"): [`Degraded`] wraps
//! any topology, marks a set of links as failed, and transparently reroutes
//! affected endpoint pairs over the surviving physical links via BFS. Pairs
//! whose deterministic route is unaffected keep their original path, so the
//! performance impact of a failure stays local — which is what makes the
//! wrapper useful for availability experiments.
//!
//! A destination that became unreachable (the failures partitioned the
//! network) surfaces as a [`RouteError`] through [`Topology::try_route`];
//! the infallible [`Topology::route`] keeps the documented panic for
//! callers that have already validated connectivity.
//!
//! [`Degraded`] models failures that exist *before* a run starts;
//! [`FaultOverlay`] is its dynamic sibling — a mutable overlay the
//! simulation engine drives with link-down/link-up transitions mid-run.
//! Neither memoises: a route is a pure function of `(src, dst)` and the
//! current failure set, and the engine keeps the one route memo, cleared
//! at every transition.

use crate::{RouteError, Topology};
use exaflow_netgraph::{LinkId, Network, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};

/// Reusable per-thread buffers for [`Degraded::is_affected`] and the BFS
/// reroute: the failure-resilience harness calls both once per flow, and a
/// fresh path vector plus an O(V) predecessor array per call thrashes the
/// allocator. Thread-local (rather than interior mutability on `Degraded`)
/// keeps the wrapper `Sync`, which the parallel suite runner relies on.
#[derive(Default)]
struct Scratch {
    path: Vec<LinkId>,
    pred: Vec<u32>,
    queue: VecDeque<NodeId>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// BFS a shortest path from `src` to `dst` over links for which `blocked`
/// returns `false`, appending it to `out`. Returns `false` (leaving `out`
/// untouched) when no such path exists. Shared by [`Degraded`] (static
/// failure sets) and [`FaultOverlay`] (mid-run transitions).
fn bfs_route(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    blocked: impl Fn(LinkId) -> bool,
    out: &mut Vec<LinkId>,
) -> bool {
    let n = net.num_nodes();
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let pred = &mut scratch.pred;
        pred.clear();
        pred.resize(n, u32::MAX);
        let queue = &mut scratch.queue;
        queue.clear();
        pred[src.index()] = u32::MAX - 1; // visited marker for the source
        queue.push_back(src);
        'search: while let Some(node) = queue.pop_front() {
            for &lid in net.out_links(node) {
                if net.link(lid).is_virtual || blocked(lid) {
                    continue;
                }
                let next = net.link(lid).dst;
                if pred[next.index()] == u32::MAX {
                    pred[next.index()] = lid.0;
                    if next == dst {
                        break 'search;
                    }
                    queue.push_back(next);
                }
            }
        }
        if pred[dst.index()] == u32::MAX {
            return false;
        }
        // Walk predecessors back to the source.
        let start = out.len();
        let mut at = dst;
        while at != src {
            let lid = LinkId(pred[at.index()]);
            out.push(lid);
            at = net.link(lid).src;
        }
        out[start..].reverse();
        true
    })
}

/// A topology with some links out of service.
///
/// `distance` and `distance_histogram` keep the trait defaults on purpose
/// (route length, and one `distance` per pair): a single detour breaks
/// every equidistant class the wrapped topology counts by, so the wrapper
/// must not forward `distance_histogram` to `inner`.
pub struct Degraded<T: Topology> {
    inner: T,
    failed: HashSet<u32>,
    /// Duplex cables asked for / actually failed; both zero for
    /// [`Degraded::new`], which takes explicit links rather than a count.
    cables_requested: usize,
    cables_applied: usize,
}

impl<T: Topology> Degraded<T> {
    /// Wrap `inner` with the given failed links.
    pub fn new(inner: T, failed: impl IntoIterator<Item = LinkId>) -> Self {
        Degraded {
            inner,
            failed: failed.into_iter().map(|l| l.0).collect(),
            cables_requested: 0,
            cables_applied: 0,
        }
    }

    /// Fail `count` random physical cables (both directions of each duplex
    /// pair), deterministic in `seed`. NIC-virtual links are never failed,
    /// and a cable is skipped when it is the last surviving link of either
    /// of its end nodes — a failure study needs a degraded network, not a
    /// partitioned one. Fewer than `count` cables fail if the network runs
    /// out of safely removable ones; compare [`Degraded::cables_applied`]
    /// against [`Degraded::cables_requested`] to detect the shortfall.
    pub fn with_random_failures(inner: T, count: usize, seed: u64) -> Self {
        let net = inner.network();
        // Collect one representative per duplex pair (src < dst).
        let mut cables: Vec<(LinkId, Option<LinkId>)> = Vec::new();
        for (i, link) in net.links().iter().enumerate() {
            if link.is_virtual || link.src > link.dst {
                continue;
            }
            let reverse = net.find_physical_link(link.dst, link.src);
            cables.push((LinkId(i as u32), reverse));
        }
        let mut degree = vec![0u32; net.num_nodes()];
        for link in net.links() {
            if !link.is_virtual {
                degree[link.src.index()] += 1;
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        cables.shuffle(&mut rng);
        let mut failed = HashSet::new();
        let mut taken = 0;
        for (fwd, rev) in cables {
            if taken >= count {
                break;
            }
            let link = net.link(fwd);
            if degree[link.src.index()] <= 1 || degree[link.dst.index()] <= 1 {
                continue;
            }
            degree[link.src.index()] -= 1;
            degree[link.dst.index()] -= 1;
            failed.insert(fwd.0);
            if let Some(r) = rev {
                failed.insert(r.0);
            }
            taken += 1;
        }
        Degraded {
            inner,
            failed,
            cables_requested: count,
            cables_applied: taken,
        }
    }

    /// The wrapped topology.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Ids of failed links.
    pub fn failed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.failed.iter().map(|&l| LinkId(l))
    }

    /// Number of failed unidirectional links.
    pub fn num_failed(&self) -> usize {
        self.failed.len()
    }

    /// Duplex cables requested by [`Degraded::with_random_failures`]
    /// (zero for [`Degraded::new`]).
    pub fn cables_requested(&self) -> usize {
        self.cables_requested
    }

    /// Duplex cables actually failed by [`Degraded::with_random_failures`]
    /// — less than [`Degraded::cables_requested`] when the network ran out
    /// of safely removable cables (zero for [`Degraded::new`]).
    pub fn cables_applied(&self) -> usize {
        self.cables_applied
    }

    /// Whether the deterministic route of `(src, dst)` crosses a failure.
    pub fn is_affected(&self, src: NodeId, dst: NodeId) -> bool {
        // Take the buffer out rather than borrowing across `inner.route`,
        // which may itself be a `Degraded` using the same scratch.
        let mut path = SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().path));
        path.clear();
        self.inner.route(src, dst, &mut path);
        let affected = path.iter().any(|l| self.failed.contains(&l.0));
        SCRATCH.with(|s| s.borrow_mut().path = path);
        affected
    }

    /// BFS a shortest path over surviving physical links, or report the
    /// partition as a [`RouteError`].
    fn try_reroute(
        &self,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), RouteError> {
        let net = self.inner.network();
        if bfs_route(net, src, dst, |lid| self.failed.contains(&lid.0), out) {
            Ok(())
        } else {
            Err(RouteError {
                src,
                dst,
                topology: self.inner.name(),
                failed_links: self.failed.len(),
            })
        }
    }
}

impl<T: Topology> Topology for Degraded<T> {
    fn name(&self) -> String {
        format!("{} [{} failed links]", self.inner.name(), self.failed.len())
    }

    fn network(&self) -> &Network {
        self.inner.network()
    }

    /// Panics if `dst` became unreachable — use [`Topology::try_route`]
    /// when the failure set comes from untrusted configuration.
    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        self.try_route(src, dst, path)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_route(
        &self,
        src: NodeId,
        dst: NodeId,
        path: &mut Vec<LinkId>,
    ) -> Result<(), RouteError> {
        if src == dst {
            return Ok(());
        }
        let start = path.len();
        self.inner.route(src, dst, path);
        if path[start..].iter().any(|l| self.failed.contains(&l.0)) {
            path.truncate(start);
            self.try_reroute(src, dst, path)?;
        }
        Ok(())
    }

    fn link_is_failed(&self, link: LinkId) -> bool {
        self.failed.contains(&link.0)
    }

    fn num_failed_links(&self) -> usize {
        self.failed.len()
    }

    // `distance` and `distance_histogram` fall back to the defaults (route
    // length, per pair): with failures there is no closed form.
}

/// A **time-varying** failure overlay: the dynamic counterpart of
/// [`Degraded`], consumed by the simulation engine's mid-run fault
/// injection.
///
/// Where `Degraded` freezes a failure set before a run starts, a
/// `FaultOverlay` borrows any topology (including a `Degraded` one — its
/// static failures are honoured through [`Topology::link_is_failed`]) and
/// applies link-down / link-up transitions *during* a run.
///
/// A route is canonical for the current failure set: the wrapped
/// topology's deterministic route when it avoids every down link,
/// otherwise the shortest BFS detour over links that are neither
/// statically nor dynamically failed. Nothing is memoised here, so a
/// transition is one set update.
pub struct FaultOverlay<'a> {
    topo: &'a dyn Topology,
    /// Dynamically failed links (on top of whatever `topo` already failed).
    down: HashSet<u32>,
}

impl<'a> FaultOverlay<'a> {
    /// A healthy overlay over `topo` (no dynamic failures yet).
    pub fn new(topo: &'a dyn Topology) -> Self {
        FaultOverlay {
            topo,
            down: HashSet::new(),
        }
    }

    /// The wrapped topology.
    pub fn topology(&self) -> &'a dyn Topology {
        self.topo
    }

    /// Whether `link` is out of service right now (dynamically or in the
    /// wrapped topology's static failure set).
    pub fn is_down(&self, link: LinkId) -> bool {
        self.down.contains(&link.0) || self.topo.link_is_failed(link)
    }

    /// Total failed links: dynamic plus the wrapped topology's static set.
    pub fn total_failed_links(&self) -> usize {
        self.down.len() + self.topo.num_failed_links()
    }

    /// Take `link` out of service. Returns `false` (a no-op) when the link
    /// is virtual, already statically failed, or already down.
    pub fn fail_link(&mut self, link: LinkId) -> bool {
        let net = self.topo.network();
        !net.link(link).is_virtual && !self.topo.link_is_failed(link) && self.down.insert(link.0)
    }

    /// Return a dynamically-failed `link` to service. Returns `false` when
    /// the link was not dynamically down (static failures cannot be
    /// restored — they belong to the wrapped topology).
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        self.down.remove(&link.0)
    }

    /// Route `src → dst` avoiding every currently-failed link, appending to
    /// `out`. Prefers the wrapped topology's deterministic route; falls
    /// back to a BFS over surviving links, and reports a partition as a
    /// [`RouteError`].
    pub fn try_route(
        &self,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), RouteError> {
        if src == dst {
            return Ok(());
        }
        let start = out.len();
        // The wrapped topology already avoids its own static failures (and
        // errors on a static partition, which no dynamic repair can fix).
        self.topo.try_route(src, dst, out)?;
        if !out[start..].iter().any(|l| self.down.contains(&l.0)) {
            return Ok(());
        }
        out.truncate(start);
        let net = self.topo.network();
        let (down, topo) = (&self.down, self.topo);
        let found = bfs_route(
            net,
            src,
            dst,
            |lid| down.contains(&lid.0) || topo.link_is_failed(lid),
            out,
        );
        if !found {
            return Err(RouteError {
                src,
                dst,
                topology: self.topo.name(),
                failed_links: self.total_failed_links(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_route, Torus};

    fn first_route_link(t: &Torus, s: u32, d: u32) -> LinkId {
        t.route_vec(NodeId(s), NodeId(d))[0]
    }

    #[test]
    fn unaffected_pairs_keep_routes() {
        let t = Torus::new(&[4, 4]);
        let far_link = first_route_link(&t, 10, 11);
        let original = t.route_vec(NodeId(0), NodeId(3));
        let degraded = Degraded::new(Torus::new(&[4, 4]), [far_link]);
        assert_eq!(degraded.route_vec(NodeId(0), NodeId(3)), original);
        assert!(!degraded.is_affected(NodeId(0), NodeId(3)));
    }

    #[test]
    fn affected_pairs_reroute_validly() {
        let t = Torus::new(&[4, 4]);
        let broken = first_route_link(&t, 0, 1);
        let degraded = Degraded::new(Torus::new(&[4, 4]), [broken]);
        assert!(degraded.is_affected(NodeId(0), NodeId(1)));
        let d = check_route(&degraded, NodeId(0), NodeId(1)).unwrap();
        // The detour around a single failed torus link is 3 hops.
        assert_eq!(d, 3);
        let path = degraded.route_vec(NodeId(0), NodeId(1));
        assert!(!path.contains(&broken));
    }

    #[test]
    fn all_pairs_survive_scattered_failures() {
        let degraded = Degraded::with_random_failures(Torus::new(&[4, 4, 2]), 4, 7);
        assert!(degraded.num_failed() >= 4); // duplex pairs: 2 per cable
        assert_eq!(degraded.cables_requested(), 4);
        assert_eq!(degraded.cables_applied(), 4);
        let e = degraded.num_endpoints() as u32;
        for s in 0..e {
            for d in 0..e {
                check_route(&degraded, NodeId(s), NodeId(d)).unwrap();
            }
        }
    }

    #[test]
    fn random_failures_deterministic() {
        let a = Degraded::with_random_failures(Torus::new(&[4, 4]), 3, 9);
        let b = Degraded::with_random_failures(Torus::new(&[4, 4]), 3, 9);
        let fa: Vec<u32> = a.failed_links().map(|l| l.0).collect();
        let fb: Vec<u32> = b.failed_links().map(|l| l.0).collect();
        let mut fa = fa;
        let mut fb = fb;
        fa.sort_unstable();
        fb.sort_unstable();
        assert_eq!(fa, fb);
    }

    #[test]
    fn oversized_failure_request_truncates_with_signal() {
        // A 2x2 torus has far fewer than 100 safely removable cables: the
        // shortfall must be visible, not silent.
        let d = Degraded::with_random_failures(Torus::new(&[2, 2]), 100, 3);
        assert_eq!(d.cables_requested(), 100);
        assert!(d.cables_applied() < 100);
        // And no node lost its last link (that is the point of the cap;
        // global connectivity is not guaranteed and partitions surface as
        // `RouteError` through `try_route`).
        let net = d.network();
        for node in 0..net.num_nodes() as u32 {
            let surviving = net
                .out_links(NodeId(node))
                .iter()
                .filter(|l| !net.link(**l).is_virtual)
                .filter(|l| !d.failed_links().any(|f| f == **l))
                .count();
            assert!(surviving >= 1, "node {node} was isolated");
        }
    }

    #[test]
    fn virtual_links_never_failed() {
        // Build a network with virtual links via the simulator convention is
        // not possible from Torus (it has none); assert the torus case
        // simply fails physical cables.
        let d = Degraded::with_random_failures(Torus::new(&[8]), 2, 1);
        for l in d.failed_links() {
            assert!(!d.network().link(l).is_virtual);
        }
    }

    #[test]
    #[should_panic(expected = "cannot reach")]
    fn partition_panics() {
        // A 2-node ring has a single duplex pair; failing it partitions.
        let t = Torus::new(&[2]);
        let links: Vec<LinkId> = (0..t.network().num_links() as u32).map(LinkId).collect();
        let degraded = Degraded::new(t, links);
        degraded.route_vec(NodeId(0), NodeId(1));
    }

    #[test]
    fn partition_is_a_typed_error_via_try_route() {
        let t = Torus::new(&[2]);
        let links: Vec<LinkId> = (0..t.network().num_links() as u32).map(LinkId).collect();
        let failed = links.len();
        let degraded = Degraded::new(t, links);
        let mut path = Vec::new();
        let err = degraded
            .try_route(NodeId(0), NodeId(1), &mut path)
            .unwrap_err();
        assert_eq!(err.src, NodeId(0));
        assert_eq!(err.dst, NodeId(1));
        assert_eq!(err.failed_links, failed);
        assert!(err.to_string().contains("cannot reach"), "{err}");
        // The output buffer is left clean on failure.
        assert!(path.is_empty());
    }

    #[test]
    fn name_reports_failures() {
        let d = Degraded::new(Torus::new(&[4]), [LinkId(0)]);
        assert!(d.name().contains("1 failed link"));
    }

    fn duplex(t: &Torus, a: u32, b: u32) -> [LinkId; 2] {
        let net = t.network();
        [
            net.find_physical_link(NodeId(a), NodeId(b)).unwrap(),
            net.find_physical_link(NodeId(b), NodeId(a)).unwrap(),
        ]
    }

    #[test]
    fn overlay_healthy_routes_match_topology() {
        let t = Torus::new(&[4, 4]);
        let overlay = FaultOverlay::new(&t);
        for (s, d) in [(0u32, 5u32), (3, 12), (15, 0)] {
            let mut path = Vec::new();
            overlay.try_route(NodeId(s), NodeId(d), &mut path).unwrap();
            assert_eq!(path, t.route_vec(NodeId(s), NodeId(d)));
        }
    }

    #[test]
    fn overlay_fail_and_restore_roundtrip() {
        let t = Torus::new(&[4]);
        let broken = first_route_link(&t, 0, 1);
        let original = t.route_vec(NodeId(0), NodeId(1));
        let mut overlay = FaultOverlay::new(&t);

        assert!(overlay.fail_link(broken));
        assert!(!overlay.fail_link(broken), "double-fail is a no-op");
        let mut detour = Vec::new();
        overlay
            .try_route(NodeId(0), NodeId(1), &mut detour)
            .unwrap();
        assert!(!detour.contains(&broken));
        assert_eq!(detour.len(), 3, "detour around one ring link is 3 hops");
        // The detour is canonical: a second call agrees.
        let mut again = Vec::new();
        overlay.try_route(NodeId(0), NodeId(1), &mut again).unwrap();
        assert_eq!(detour, again);

        assert!(overlay.restore_link(broken));
        assert!(!overlay.restore_link(broken), "double-restore is a no-op");
        let mut back = Vec::new();
        overlay.try_route(NodeId(0), NodeId(1), &mut back).unwrap();
        assert_eq!(
            back, original,
            "restoration reverts to the deterministic route"
        );
    }

    #[test]
    fn overlay_partition_is_typed_error() {
        // Ring 0-1-2-3: cutting cables (0,1) and (2,3) splits {0,3}|{1,2}.
        let t = Torus::new(&[4]);
        let mut overlay = FaultOverlay::new(&t);
        for l in duplex(&t, 0, 1).into_iter().chain(duplex(&t, 2, 3)) {
            assert!(overlay.fail_link(l));
        }
        let mut path = Vec::new();
        let err = overlay
            .try_route(NodeId(0), NodeId(1), &mut path)
            .unwrap_err();
        assert_eq!((err.src, err.dst), (NodeId(0), NodeId(1)));
        assert_eq!(err.failed_links, 4);
        assert!(path.is_empty(), "output buffer left clean on failure");
        // Repairing one cut cable restores reachability.
        for l in duplex(&t, 0, 1) {
            assert!(overlay.restore_link(l));
        }
        overlay.try_route(NodeId(0), NodeId(1), &mut path).unwrap();
        assert!(!path.is_empty());
    }

    #[test]
    fn overlay_honours_static_failures_of_degraded() {
        // Statically fail (0,1); dynamically fail (1,2). The route 0 -> 2
        // must avoid both, and restoring the *static* link is refused.
        let t = Torus::new(&[6]);
        let static_cut = duplex(&t, 0, 1);
        let degraded = Degraded::new(Torus::new(&[6]), static_cut);
        let dynamic_cut = duplex(degraded.inner(), 1, 2);
        let mut overlay = FaultOverlay::new(&degraded);
        for l in dynamic_cut {
            assert!(overlay.fail_link(l));
        }
        assert!(
            !overlay.fail_link(static_cut[0]),
            "statically failed already"
        );
        assert!(!overlay.restore_link(static_cut[0]));
        let mut path = Vec::new();
        overlay.try_route(NodeId(0), NodeId(2), &mut path).unwrap();
        for l in static_cut.into_iter().chain(dynamic_cut) {
            assert!(!path.contains(&l), "path crosses failed link {l:?}");
        }
        assert_eq!(overlay.total_failed_links(), 2 + 2);
    }
}
