//! Summary statistics over a [`Network`].

use crate::network::Network;

/// Structural summary of a network, used in reports and sanity checks.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkStats {
    /// Number of compute endpoints.
    pub endpoints: usize,
    /// Number of switch nodes.
    pub switches: usize,
    /// Unidirectional links.
    pub links: usize,
    /// Minimum out-degree over all nodes.
    pub min_degree: usize,
    /// Maximum out-degree over all nodes.
    pub max_degree: usize,
}

impl NetworkStats {
    /// Compute statistics for `net`.
    pub fn of(net: &Network) -> Self {
        let mut min_degree = usize::MAX;
        let mut max_degree = 0;
        for node in net.node_ids() {
            let deg = net.out_links(node).len();
            min_degree = min_degree.min(deg);
            max_degree = max_degree.max(deg);
        }
        if net.num_nodes() == 0 {
            min_degree = 0;
        }
        NetworkStats {
            endpoints: net.num_endpoints(),
            switches: net.num_switches(),
            links: net.num_links(),
            min_degree,
            max_degree,
        }
    }
}

impl std::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} endpoints, {} switches, {} links (degree {}..{})",
            self.endpoints, self.switches, self.links, self.min_degree, self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    #[test]
    fn stats_of_star() {
        let mut b = NetworkBuilder::new();
        let eps: Vec<_> = (0..3).map(|_| b.add_endpoint()).collect();
        let hub = b.add_switch();
        for &e in &eps {
            b.add_duplex(e, hub);
        }
        let net = b.build();
        let s = NetworkStats::of(&net);
        assert_eq!(s.endpoints, 3);
        assert_eq!(s.switches, 1);
        assert_eq!(s.links, 6);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.max_degree, 3);
    }

    #[test]
    fn stats_of_empty() {
        let net = NetworkBuilder::new().build();
        let s = NetworkStats::of(&net);
        assert_eq!(s.endpoints, 0);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn display_mentions_counts() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        b.add_duplex(e0, e1);
        let s = NetworkStats::of(&b.build());
        let text = s.to_string();
        assert!(text.contains("2 endpoints"));
        assert!(text.contains("2 links"));
    }
}
