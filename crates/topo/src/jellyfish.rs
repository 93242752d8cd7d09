//! Jellyfish: switches wired as a random regular graph (Singla et al.,
//! NSDI'12).
//!
//! **Extension beyond the paper**: discussed in its related-work section
//! ("demonstrated to be able to outperform tree-like topologies … but its
//! lack of structure brings many challenges") and provided here as an extra
//! comparator. Each of `switches` switches exposes `endpoint_ports`
//! endpoints and `fabric_degree` inter-switch cables, wired by a seeded
//! stub-matching construction with swap fix-ups (no self-loops, no parallel
//! cables). Routing is deterministic shortest-path over a precomputed
//! all-pairs BFS forest — the practical stand-in for the paper's k-shortest
//!-paths routing at flow-level granularity.

use crate::{Topology, LINK_RATE_BPS};
use exaflow_netgraph::{LinkId, Network, NetworkBuilder, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A Jellyfish random-graph network.
#[derive(Debug)]
pub struct Jellyfish {
    net: Network,
    switches: u32,
    endpoint_ports: u32,
    /// `next_link[s*switches + d]` = first link of the shortest path from
    /// switch s towards switch d (u32::MAX on the diagonal).
    next_link: Vec<u32>,
    /// `dist[s*switches + d]` = switch-level hop count.
    dist: Vec<u16>,
    ep_up: Vec<u32>,
    ep_down: Vec<u32>,
}

impl Jellyfish {
    /// Build a jellyfish at 10 Gbps.
    ///
    /// Panics if the random regular graph cannot be constructed (odd total
    /// degree) or ends up disconnected for the given seed (rare for
    /// `fabric_degree >= 3`; pick another seed).
    pub fn new(switches: u32, endpoint_ports: u32, fabric_degree: u32, seed: u64) -> Self {
        assert!(switches >= 2 && endpoint_ports >= 1);
        assert!(
            fabric_degree >= 1 && fabric_degree < switches,
            "fabric degree {fabric_degree} must be in 1..{switches}"
        );
        assert!(
            (switches as u64 * fabric_degree as u64).is_multiple_of(2),
            "total fabric degree must be even"
        );
        let edges = random_regular_graph(switches, fabric_degree, seed);

        let eps = switches as u64 * endpoint_ports as u64;
        let mut b = NetworkBuilder::new();
        b.add_endpoints(eps as usize);
        let switch_base = eps as u32;
        b.add_switches(switches as usize);

        let mut ep_up = vec![0u32; eps as usize];
        let mut ep_down = vec![0u32; eps as usize];
        for e in 0..eps as u32 {
            let sw = e / endpoint_ports;
            let (up, down) = b.add_duplex(NodeId(e), NodeId(switch_base + sw), LINK_RATE_BPS);
            ep_up[e as usize] = up.0;
            ep_down[e as usize] = down.0;
        }
        // Adjacency in link-id form for the BFS forest.
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); switches as usize];
        for &(x, y) in &edges {
            let (fwd, back) = b.add_duplex(
                NodeId(switch_base + x),
                NodeId(switch_base + y),
                LINK_RATE_BPS,
            );
            adj[x as usize].push((y, fwd.0));
            adj[y as usize].push((x, back.0));
        }
        // Deterministic neighbour order.
        for a in &mut adj {
            a.sort_unstable();
        }

        // All-pairs BFS: next_link[s][d] = first hop from s toward d.
        // Computed by BFS from each *destination* over reversed edges —
        // equivalently BFS from d storing, for every s, the link s uses.
        let s_count = switches as usize;
        let mut next_link = vec![u32::MAX; s_count * s_count];
        let mut dist = vec![u16::MAX; s_count * s_count];
        let mut queue = std::collections::VecDeque::new();
        for d in 0..s_count {
            dist[d * s_count + d] = 0;
            queue.clear();
            queue.push_back(d as u32);
            while let Some(v) = queue.pop_front() {
                let dv = dist[d * s_count + v as usize];
                // For each neighbour u of v, u can reach d via v.
                for &(u, _link_vu) in &adj[v as usize] {
                    let slot = d * s_count + u as usize;
                    if dist[slot] == u16::MAX {
                        dist[slot] = dv + 1;
                        // u's first hop toward d is its link to v.
                        let link_uv = adj[u as usize]
                            .iter()
                            .find(|&&(w, _)| w == v)
                            .expect("symmetric adjacency")
                            .1;
                        next_link[u as usize * s_count + d] = link_uv;
                        queue.push_back(u);
                    }
                }
            }
        }
        // Connectivity check.
        for s in 0..s_count {
            for d in 0..s_count {
                assert!(
                    dist[d * s_count + s] != u16::MAX,
                    "jellyfish seed produced a disconnected graph (switch {s} / {d})"
                );
            }
        }
        // Re-index dist to [s][d] layout for the public distance query.
        let mut dist_sd = vec![0u16; s_count * s_count];
        for s in 0..s_count {
            for d in 0..s_count {
                dist_sd[s * s_count + d] = dist[d * s_count + s];
            }
        }

        Jellyfish {
            net: b.build(),
            switches,
            endpoint_ports,
            next_link,
            dist: dist_sd,
            ep_up,
            ep_down,
        }
    }

    /// Number of switches.
    pub fn num_switches(&self) -> u32 {
        self.switches
    }

    /// Endpoints per switch.
    pub fn endpoint_ports(&self) -> u32 {
        self.endpoint_ports
    }

    #[inline]
    fn switch_of(&self, ep: u32) -> u32 {
        ep / self.endpoint_ports
    }
}

/// Seeded random regular graph on `n` vertices with degree `r`: stub
/// matching with rejection of self-loops/parallel edges and pairwise swap
/// fix-ups, retried with derived seeds until simple (in practice the first
/// or second attempt succeeds).
fn random_regular_graph(n: u32, r: u32, seed: u64) -> Vec<(u32, u32)> {
    for attempt in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt));
        let mut stubs: Vec<u32> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v, r as usize))
            .collect();
        stubs.shuffle(&mut rng);
        let mut edges: Vec<(u32, u32)> = stubs
            .chunks_exact(2)
            .map(|c| (c[0].min(c[1]), c[0].max(c[1])))
            .collect();
        // Swap fix-ups: resolve self-loops and duplicates by exchanging
        // endpoints with a random other edge.
        let mut ok = false;
        for _ in 0..10 * edges.len() {
            let mut seen = std::collections::HashSet::new();
            let bad: Vec<usize> = edges
                .iter()
                .enumerate()
                .filter(|(_, &(x, y))| x == y || !seen.insert((x, y)))
                .map(|(i, _)| i)
                .collect();
            if bad.is_empty() {
                ok = true;
                break;
            }
            for &i in &bad {
                let j = rand::Rng::random_range(&mut rng, 0..edges.len());
                if i == j {
                    continue;
                }
                let (a, bq) = edges[i];
                let (c, d) = edges[j];
                edges[i] = (a.min(d), a.max(d));
                edges[j] = (c.min(bq), c.max(bq));
            }
        }
        if ok {
            return edges;
        }
    }
    panic!("failed to build a simple {r}-regular graph on {n} vertices");
}

impl Topology for Jellyfish {
    fn name(&self) -> String {
        format!(
            "Jellyfish({} switches, {} eps/switch)",
            self.switches, self.endpoint_ports
        )
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        path.push(LinkId(self.ep_up[src.0 as usize]));
        let mut s = self.switch_of(src.0);
        let d = self.switch_of(dst.0);
        while s != d {
            let lid = self.next_link[(s as usize) * self.switches as usize + d as usize];
            debug_assert_ne!(lid, u32::MAX);
            path.push(LinkId(lid));
            // The link's destination node is a switch; recover its index.
            let node = self.net.link(LinkId(lid)).dst;
            s = node.0 - self.num_endpoints() as u32;
        }
        path.push(LinkId(self.ep_down[dst.0 as usize]));
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let s = self.switch_of(src.0);
        let d = self.switch_of(dst.0);
        2 + self.dist[(s as usize) * self.switches as usize + d as usize] as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_route;
    use exaflow_netgraph::bfs_distances_physical;

    #[test]
    fn sizes_and_degrees() {
        let j = Jellyfish::new(16, 2, 4, 1);
        assert_eq!(j.num_endpoints(), 32);
        assert_eq!(j.network().num_switches(), 16);
        // Every switch: 2 endpoint duplex + 4 fabric duplex = 12 directed.
        for sw in j.network().switch_ids() {
            assert_eq!(j.network().out_degree(sw), 6);
        }
    }

    #[test]
    fn routes_valid_all_pairs() {
        let j = Jellyfish::new(12, 2, 3, 7);
        let e = j.num_endpoints() as u32;
        for s in 0..e {
            for d in 0..e {
                check_route(&j, NodeId(s), NodeId(d)).unwrap();
            }
        }
    }

    #[test]
    fn distances_match_bfs() {
        let j = Jellyfish::new(10, 1, 3, 3);
        for s in [0u32, 4, 9] {
            let bfs = bfs_distances_physical(j.network(), NodeId(s));
            for d in 0..j.num_endpoints() as u32 {
                assert_eq!(
                    j.distance(NodeId(s), NodeId(d)),
                    bfs[d as usize],
                    "({s},{d})"
                );
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Jellyfish::new(12, 1, 3, 9);
        let b = Jellyfish::new(12, 1, 3, 9);
        assert_eq!(a.network().num_links(), b.network().num_links());
        for (la, lb) in a.network().links().iter().zip(b.network().links()) {
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn regular_graph_is_simple_and_regular() {
        let edges = random_regular_graph(20, 5, 42);
        assert_eq!(edges.len(), 50);
        let mut deg = [0u32; 20];
        let mut seen = std::collections::HashSet::new();
        for &(x, y) in &edges {
            assert_ne!(x, y, "self-loop");
            assert!(seen.insert((x, y)), "parallel edge {x}-{y}");
            deg[x as usize] += 1;
            deg[y as usize] += 1;
        }
        assert!(deg.iter().all(|&d| d == 5));
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_degree_sum_rejected() {
        Jellyfish::new(5, 1, 3, 0);
    }
}
