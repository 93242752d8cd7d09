//! Link failures with fault-tolerant rerouting.
//!
//! **Extension beyond the paper** (flagged as future work in its §6: "we
//! are developing … mechanisms for fault tolerance"): a [`FaultOverlay`]
//! borrows any topology and keeps one state per link — up, down, or failed
//! for the whole run. The simulation engine fails the run-long set (cables
//! cut before t = 0) when a run starts and drives link-down / link-up
//! transitions mid-run; a repair never restores a run-long failure.
//!
//! A route is canonical for the current failure set: the topology's own
//! deterministic route when it avoids every down link, otherwise the first
//! shortest detour a breadth-first search finds over live physical links.
//! Pairs whose route is unaffected keep it, so the performance impact of a
//! failure stays local. The BFS visits links in adjacency order, so its
//! path is the lexicographically least shortest live path; blocking more
//! links that path avoids leaves it the least, which is why a detour found
//! under the run-long set alone survives later faults it does not cross.
//!
//! Nothing is memoised here: a transition is one state update, and the
//! engine keeps the one route memo, cleared at every transition. A
//! destination the failures cut off is a [`RouteError`].

use crate::Topology;
use exaflow_netgraph::{LinkId, NodeId};
use std::collections::VecDeque;

/// Routing failure: `dst` cannot be reached from `src` over live links.
///
/// The generators route totally by construction; only a [`FaultOverlay`]
/// whose failed links partition the network reports one, so bulk
/// experiment drivers see a per-experiment error instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteError {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Display name of the network that failed to route.
    pub topology: String,
    /// Number of failed unidirectional links.
    pub failed_links: usize,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} cannot reach {} after {} link failures",
            self.topology, self.src, self.dst, self.failed_links
        )
    }
}

impl std::error::Error for RouteError {}

/// The display name of `topology` with `failed_links` links failed for the
/// whole run: `"Torus(8x8x8) [4 failed links]"`.
pub fn failed_links_name(topology: &str, failed_links: usize) -> String {
    format!("{topology} [{failed_links} failed links]")
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum LinkState {
    Up,
    /// Failed mid-run; a repair restores it.
    Down,
    /// Failed for the whole run; nothing restores it.
    FailedForRun,
}

/// A failure overlay over a topology: the links that are out of service,
/// run-long or for now, and the canonical route around them.
pub struct FaultOverlay<'a> {
    topo: &'a dyn Topology,
    /// One state per link of `topo`'s network.
    state: Vec<LinkState>,
    /// Links not up, and how many of those are failed for the run.
    failed: usize,
    run_long: usize,
    /// BFS buffers: predecessor link per node (`u32::MAX`: unvisited) and
    /// the frontier.
    pred: Vec<u32>,
    queue: VecDeque<NodeId>,
}

impl<'a> FaultOverlay<'a> {
    /// A healthy overlay over `topo`: every link up.
    pub fn new(topo: &'a dyn Topology) -> Self {
        FaultOverlay {
            topo,
            state: vec![LinkState::Up; topo.network().num_links()],
            failed: 0,
            run_long: 0,
            pred: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Whether `link` is out of service right now.
    pub fn is_down(&self, link: LinkId) -> bool {
        self.state[link.index()] != LinkState::Up
    }

    /// Links out of service right now, run-long failures included.
    pub fn total_failed_links(&self) -> usize {
        self.failed
    }

    /// Fail `link` for the rest of the run. Returns `false` (a no-op) when
    /// the link is virtual or already failed for the run; a link that was
    /// down becomes failed for the run.
    pub fn fail_for_run(&mut self, link: LinkId) -> bool {
        let state = &mut self.state[link.index()];
        if self.topo.network().link(link).is_virtual || *state == LinkState::FailedForRun {
            return false;
        }
        self.failed += usize::from(*state == LinkState::Up);
        self.run_long += 1;
        *state = LinkState::FailedForRun;
        true
    }

    /// Take `link` out of service until a repair. Returns `false` (a
    /// no-op) when the link is virtual or already out of service.
    pub fn fail_link(&mut self, link: LinkId) -> bool {
        let state = &mut self.state[link.index()];
        if self.topo.network().link(link).is_virtual || *state != LinkState::Up {
            return false;
        }
        *state = LinkState::Down;
        self.failed += 1;
        true
    }

    /// Return a downed `link` to service. Returns `false` when the link
    /// was not down: up already, or failed for the run (never restored).
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        let state = &mut self.state[link.index()];
        if *state != LinkState::Down {
            return false;
        }
        *state = LinkState::Up;
        self.failed -= 1;
        true
    }

    /// Route `src → dst` avoiding every failed link, appending to `out`:
    /// the topology's deterministic route when it avoids them all,
    /// otherwise the BFS detour over live links (see the module docs). An
    /// unreachable destination is a [`RouteError`], with `out` untouched.
    ///
    /// The error names the bare topology and counts the run-long failures
    /// when those alone cut `dst` off; otherwise it names the topology with
    /// its run-long count ([`failed_links_name`]) and counts every failed
    /// link.
    pub fn try_route(
        &mut self,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), RouteError> {
        if src == dst {
            return Ok(());
        }
        let start = out.len();
        self.topo.route(src, dst, out);
        if self.failed == 0 || !out[start..].iter().any(|&l| self.is_down(l)) {
            return Ok(());
        }
        out.truncate(start);
        if self.search(src, dst, |s| s != LinkState::Up) {
            let mut at = dst;
            while at != src {
                let lid = LinkId(self.pred[at.index()]);
                out.push(lid);
                at = self.topo.network().link(lid).src;
            }
            out[start..].reverse();
            return Ok(());
        }
        let name = self.topo.name();
        let (topology, failed_links) = if self.run_long == 0 {
            (name, self.failed)
        } else if self.run_long == self.failed
            || !self.search(src, dst, |s| s == LinkState::FailedForRun)
        {
            // The run-long failures alone cut `dst` off.
            (name, self.run_long)
        } else {
            (failed_links_name(&name, self.run_long), self.failed)
        };
        Err(RouteError {
            src,
            dst,
            topology,
            failed_links,
        })
    }

    /// Breadth-first search from `src` over physical links whose state
    /// `blocked` accepts, stopping when `dst` is reached; leaves each
    /// visited node's predecessor link in `pred`. Returns whether `dst`
    /// was reached.
    fn search(&mut self, src: NodeId, dst: NodeId, blocked: impl Fn(LinkState) -> bool) -> bool {
        let net = self.topo.network();
        let (pred, queue) = (&mut self.pred, &mut self.queue);
        pred.clear();
        pred.resize(net.num_nodes(), u32::MAX);
        queue.clear();
        pred[src.index()] = u32::MAX - 1; // visited marker for the source
        queue.push_back(src);
        while let Some(node) = queue.pop_front() {
            for &lid in net.out_links(node) {
                let link = net.link(lid);
                if link.is_virtual || blocked(self.state[lid.index()]) {
                    continue;
                }
                if pred[link.dst.index()] == u32::MAX {
                    pred[link.dst.index()] = lid.0;
                    if link.dst == dst {
                        return true;
                    }
                    queue.push_back(link.dst);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus;

    fn duplex(t: &Torus, a: u32, b: u32) -> [LinkId; 2] {
        let net = t.network();
        [
            net.find_physical_link(NodeId(a), NodeId(b)).unwrap(),
            net.find_physical_link(NodeId(b), NodeId(a)).unwrap(),
        ]
    }

    fn route(overlay: &mut FaultOverlay, s: u32, d: u32) -> Result<Vec<LinkId>, RouteError> {
        let mut path = Vec::new();
        overlay.try_route(NodeId(s), NodeId(d), &mut path)?;
        Ok(path)
    }

    #[test]
    fn unaffected_pairs_keep_routes() {
        let t = Torus::new(&[4, 4]);
        let far_link = t.route_vec(NodeId(10), NodeId(11))[0];
        let mut overlay = FaultOverlay::new(&t);
        assert!(overlay.fail_for_run(far_link));
        let original = t.route_vec(NodeId(0), NodeId(3));
        assert_eq!(route(&mut overlay, 0, 3).unwrap(), original);
    }

    #[test]
    fn fail_and_restore_roundtrip() {
        let t = Torus::new(&[4]);
        let broken = t.route_vec(NodeId(0), NodeId(1))[0];
        let original = t.route_vec(NodeId(0), NodeId(1));
        let mut overlay = FaultOverlay::new(&t);

        assert!(overlay.fail_link(broken));
        assert!(!overlay.fail_link(broken), "double-fail is a no-op");
        let detour = route(&mut overlay, 0, 1).unwrap();
        assert!(!detour.contains(&broken));
        assert_eq!(detour.len(), 3, "detour around one ring link is 3 hops");
        // The detour is canonical: a second call agrees.
        assert_eq!(route(&mut overlay, 0, 1).unwrap(), detour);

        assert!(overlay.restore_link(broken));
        assert!(!overlay.restore_link(broken), "double-restore is a no-op");
        assert_eq!(
            route(&mut overlay, 0, 1).unwrap(),
            original,
            "restoration reverts to the deterministic route"
        );
    }

    #[test]
    fn partition_is_typed_error() {
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
        assert_eq!(err.topology, "Torus(4)");
        assert!(err.to_string().contains("cannot reach"), "{err}");
        assert!(path.is_empty(), "output buffer left clean on failure");
        // Repairing one cut cable restores reachability.
        for l in duplex(&t, 0, 1) {
            assert!(overlay.restore_link(l));
        }
        assert!(!route(&mut overlay, 0, 1).unwrap().is_empty());
    }

    #[test]
    fn run_long_failures_are_never_restored() {
        // Fail (0,1) for the run and (1,2) mid-run. The route 0 -> 2 must
        // avoid both, and neither a repair nor a second failure touches
        // the run-long cable.
        let t = Torus::new(&[6]);
        let run_long = duplex(&t, 0, 1);
        let dynamic = duplex(&t, 1, 2);
        let mut overlay = FaultOverlay::new(&t);
        for l in run_long {
            assert!(overlay.fail_for_run(l));
            assert!(!overlay.fail_for_run(l), "double run-long fail is a no-op");
        }
        for l in dynamic {
            assert!(overlay.fail_link(l));
        }
        assert!(
            !overlay.fail_link(run_long[0]),
            "failed for the run already"
        );
        assert!(!overlay.restore_link(run_long[0]));
        assert!(overlay.is_down(run_long[0]));
        let path = route(&mut overlay, 0, 2).unwrap();
        for l in run_long.into_iter().chain(dynamic) {
            assert!(!path.contains(&l), "path crosses failed link {l:?}");
        }
        assert_eq!(overlay.total_failed_links(), 2 + 2);
        // A downed link failed for the run is counted once.
        assert!(overlay.fail_for_run(dynamic[0]));
        assert!(!overlay.restore_link(dynamic[0]));
        assert_eq!(overlay.total_failed_links(), 4);
    }

    #[test]
    fn errors_tell_a_run_long_partition_from_a_mid_run_one() {
        // Ring of 4: (0,1) cut for the run; cutting (2,3) mid-run isolates
        // {1,2} from {0,3}.
        let t = Torus::new(&[4]);
        let mut overlay = FaultOverlay::new(&t);
        for l in duplex(&t, 0, 1) {
            overlay.fail_for_run(l);
        }
        for l in duplex(&t, 2, 3) {
            overlay.fail_link(l);
        }
        let err = route(&mut overlay, 0, 1).unwrap_err();
        assert_eq!(err.topology, "Torus(4) [2 failed links]");
        assert_eq!(err.failed_links, 4);
        // Cut for the run as well: the run-long set alone partitions.
        for l in duplex(&t, 2, 3) {
            overlay.fail_for_run(l);
        }
        let err = route(&mut overlay, 0, 1).unwrap_err();
        assert_eq!((err.topology.as_str(), err.failed_links), ("Torus(4)", 4));
    }
}
