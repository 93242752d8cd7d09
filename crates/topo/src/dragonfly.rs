//! Dragonfly topology (Kim, Dally, Scott, Abts — ISCA'08).
//!
//! **Extension beyond the paper**: the paper's related-work section singles
//! out the dragonfly as "one of the latest network organizations … getting
//! great interest" but does not evaluate it; this implementation makes it
//! available as an additional comparator for the design exploration.
//!
//! Structure, with `p` endpoints, `a` routers per group and `h` global
//! ports per router (balanced designs use `a = 2p = 2h`):
//!
//! * routers within a group form a complete graph,
//! * every router owns `h` global ports; with the *absolute* arrangement,
//!   global port `q ∈ [0, a·h)` of group `i` connects to group `q` (skipping
//!   `i` itself), giving exactly one global cable per group pair at the
//!   maximum size `g = a·h + 1`,
//! * minimal routing takes at most one local hop, one global hop and one
//!   more local hop (diameter 5 counting the two endpoint links).

use crate::{Topology, LINK_RATE_BPS};
use exaflow_netgraph::{LinkId, Network, NetworkBuilder, NodeId};

/// A dragonfly of `groups` groups, `a` routers per group, `p` endpoints per
/// router and `h` global ports per router.
#[derive(Debug)]
pub struct Dragonfly {
    net: Network,
    groups: u32,
    a: u32,
    p: u32,
    h: u32,
    /// `local[(g*a + r1)*a + r2]` = link (g,r1) → (g,r2); unused on diagonal.
    local: Vec<u32>,
    /// `global[g*a*h + q]` = global link leaving port q of group g.
    global: Vec<u32>,
    /// endpoint ↔ router attach links.
    ep_up: Vec<u32>,
    ep_down: Vec<u32>,
}

impl Dragonfly {
    /// The balanced dragonfly for a given `p`: `a = 2p`, `h = p`, and the
    /// full `a·h + 1` groups.
    pub fn balanced(p: u32) -> Self {
        let a = 2 * p;
        let h = p;
        Self::new(a * h + 1, a, p, h)
    }

    /// Build a dragonfly at 10 Gbps. `groups` must be at least 1 and at
    /// most `a·h + 1` (one global cable per group pair, no parallel cables).
    pub fn new(groups: u32, a: u32, p: u32, h: u32) -> Self {
        assert!(groups >= 1 && a >= 1 && p >= 1 && h >= 1);
        assert!(
            groups <= a * h + 1,
            "{groups} groups exceed the {} supported by a*h global ports",
            a * h + 1
        );
        let routers = groups as u64 * a as u64;
        let eps = routers * p as u64;
        let mut b = NetworkBuilder::new();
        b.add_endpoints(eps as usize);
        let router_base = eps as u32;
        let router_node = |g: u32, r: u32| NodeId(router_base + g * a + r);
        b.add_switches(routers as usize);

        let mut ep_up = vec![0u32; eps as usize];
        let mut ep_down = vec![0u32; eps as usize];
        for e in 0..eps as u32 {
            let router = e / p;
            let (up, down) = b.add_duplex(NodeId(e), NodeId(router_base + router), LINK_RATE_BPS);
            ep_up[e as usize] = up.0;
            ep_down[e as usize] = down.0;
        }

        // Local complete graphs.
        let mut local = vec![u32::MAX; (groups * a) as usize * a as usize];
        for g in 0..groups {
            for r1 in 0..a {
                for r2 in r1 + 1..a {
                    let (fwd, back) =
                        b.add_duplex(router_node(g, r1), router_node(g, r2), LINK_RATE_BPS);
                    local[((g * a + r1) * a + r2) as usize] = fwd.0;
                    local[((g * a + r2) * a + r1) as usize] = back.0;
                }
            }
        }

        // Global links, absolute arrangement: port q of group i targets
        // group q (shifted past i); build each cable once from the lower
        // group id.
        let mut global = vec![u32::MAX; (groups * a * h) as usize];
        for i in 0..groups {
            for q in 0..a * h {
                let j = if q < i { q } else { q + 1 };
                if j >= groups || j < i {
                    continue; // unused port at reduced size, or already built
                }
                // Reverse port on group j that targets group i.
                let q_back = i; // i < j, so no shift
                let (fwd, back) = b.add_duplex(
                    router_node(i, q / h),
                    router_node(j, q_back / h),
                    LINK_RATE_BPS,
                );
                global[(i * a * h + q) as usize] = fwd.0;
                global[(j * a * h + q_back) as usize] = back.0;
            }
        }

        Dragonfly {
            net: b.build(),
            groups,
            a,
            p,
            h,
            local,
            global,
            ep_up,
            ep_down,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Routers per group.
    pub fn routers_per_group(&self) -> u32 {
        self.a
    }

    /// Endpoints per router.
    pub fn endpoints_per_router(&self) -> u32 {
        self.p
    }

    /// Global ports per router.
    pub fn global_ports_per_router(&self) -> u32 {
        self.h
    }

    #[inline]
    fn router_of(&self, ep: u32) -> (u32, u32) {
        let router = ep / self.p;
        (router / self.a, router % self.a)
    }

    /// The global port of group `src_g` that reaches group `dst_g`.
    #[inline]
    fn global_port(&self, src_g: u32, dst_g: u32) -> u32 {
        debug_assert_ne!(src_g, dst_g);
        if dst_g < src_g {
            dst_g
        } else {
            dst_g - 1
        }
    }

    #[inline]
    fn local_link(&self, g: u32, r1: u32, r2: u32) -> LinkId {
        let raw = self.local[((g * self.a + r1) * self.a + r2) as usize];
        debug_assert_ne!(raw, u32::MAX);
        LinkId(raw)
    }
}

impl Topology for Dragonfly {
    fn name(&self) -> String {
        format!(
            "Dragonfly(g={},a={},p={},h={})",
            self.groups, self.a, self.p, self.h
        )
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        let (gs, rs) = self.router_of(src.0);
        let (gd, rd) = self.router_of(dst.0);
        path.push(LinkId(self.ep_up[src.0 as usize]));
        if gs == gd {
            if rs != rd {
                path.push(self.local_link(gs, rs, rd));
            }
        } else {
            let q = self.global_port(gs, gd);
            let exit = q / self.h;
            if rs != exit {
                path.push(self.local_link(gs, rs, exit));
            }
            path.push(LinkId(self.global[(gs * self.a * self.h + q) as usize]));
            let entry = self.global_port(gd, gs) / self.h;
            if entry != rd {
                path.push(self.local_link(gd, entry, rd));
            }
        }
        path.push(LinkId(self.ep_down[dst.0 as usize]));
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let (gs, rs) = self.router_of(src.0);
        let (gd, rd) = self.router_of(dst.0);
        if gs == gd {
            return 2 + u32::from(rs != rd);
        }
        let exit = self.global_port(gs, gd) / self.h;
        let entry = self.global_port(gd, gs) / self.h;
        2 + u32::from(rs != exit) + 1 + u32::from(entry != rd)
    }

    fn diameter_bound(&self) -> u32 {
        // up + local + global + local + down, counting the endpoint links.
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_route;
    use exaflow_netgraph::bfs_distances_physical;

    #[test]
    fn balanced_sizing() {
        let d = Dragonfly::balanced(2);
        // p=2: a=4, h=2, groups = 9, routers 36, endpoints 72.
        assert_eq!(d.groups(), 9);
        assert_eq!(d.num_endpoints(), 72);
        assert_eq!(d.network().num_switches(), 36);
    }

    #[test]
    fn routes_valid_all_pairs() {
        let d = Dragonfly::balanced(2);
        let e = d.num_endpoints() as u32;
        for s in (0..e).step_by(5) {
            for t in 0..e {
                check_route(&d, NodeId(s), NodeId(t)).unwrap();
            }
        }
    }

    #[test]
    fn routing_is_hierarchically_minimal() {
        // Dragonfly minimal routing is the shortest local-global-local
        // path. Graph-theoretic BFS can occasionally do better in small
        // configurations by chaining two global links, so the route is
        // bounded by BFS + 2 (one local detour on each side), never below
        // BFS.
        let d = Dragonfly::new(5, 2, 1, 2);
        for s in [0u32, 3, 7] {
            let bfs = bfs_distances_physical(d.network(), NodeId(s));
            for t in 0..d.num_endpoints() as u32 {
                let dist = d.distance(NodeId(s), NodeId(t));
                assert!(dist >= bfs[t as usize], "({s},{t})");
                assert!(dist <= bfs[t as usize] + 2, "({s},{t})");
            }
        }
        // With h = 1 the direct global link leaves the only candidate
        // router, and l-g-l *is* graph-minimal.
        let d1 = Dragonfly::new(3, 2, 1, 1);
        for s in 0..d1.num_endpoints() as u32 {
            let bfs = bfs_distances_physical(d1.network(), NodeId(s));
            for t in 0..d1.num_endpoints() as u32 {
                assert_eq!(
                    d1.distance(NodeId(s), NodeId(t)),
                    bfs[t as usize],
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn diameter_is_five() {
        let d = Dragonfly::balanced(2);
        let mut max = 0;
        for s in 0..d.num_endpoints() as u32 {
            for t in 0..d.num_endpoints() as u32 {
                max = max.max(d.distance(NodeId(s), NodeId(t)));
            }
        }
        assert_eq!(max, 5);
    }

    #[test]
    fn one_global_cable_per_group_pair() {
        let d = Dragonfly::balanced(2);
        // Count global links (router-router across groups).
        let base = d.num_endpoints() as u32;
        let a = d.routers_per_group();
        let mut count = 0;
        for l in d.network().links() {
            if l.src.0 >= base && l.dst.0 >= base {
                let gs = (l.src.0 - base) / a;
                let gd = (l.dst.0 - base) / a;
                if gs != gd {
                    count += 1;
                }
            }
        }
        // 9 groups: 36 pairs, 2 directed links each.
        assert_eq!(count, 72);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_groups_panics() {
        Dragonfly::new(10, 2, 1, 2);
    }
}
