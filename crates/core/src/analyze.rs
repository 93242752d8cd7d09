//! Paper-scale distance analysis driver: build each requested topology at
//! a [`SystemScale`], sweep or sample its distance distribution with the
//! parallel engine in `exaflow_analysis`, and emit a kind-tagged report.
//!
//! This is the layer that makes [`SystemScale::PAPER`] actually runnable
//! for Table 1: the paper's generators count distances by equidistant
//! class and wire their network only on first use, which a distance
//! analysis never makes, so a topology here costs its shapes and tier
//! radices, not a full-scale network; they are built one at a time and
//! dropped after their sweep. Sources are either
//! *all* endpoints (bit-identical to the sequential exact path at any
//! thread count) or a stratified deterministic sample whose seed derives
//! from the topology spec's content fingerprint — re-running the same spec
//! always measures the same sources, and the report carries the seed so a
//! result can be reproduced from its JSON alone.

use crate::error::ExperimentError;
use crate::journal::fingerprint_value;
use crate::scale::SystemScale;
use crate::topospec::TopologySpec;
use exaflow_analysis::{distance_estimate, distance_sweep, DistanceStats};
use exaflow_topo::UpperTierKind;
use serde::{Deserialize, Serialize};

/// How many source endpoints a distance analysis measures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SourceBudget {
    /// Every endpoint: exact statistics, bit-identical to
    /// [`exaflow_analysis::distance_stats_exact`] at any thread count.
    All,
    /// A stratified deterministic sample of this many sources (estimates
    /// carry `stderr` / `confidence_95`). A budget covering every endpoint
    /// degenerates to [`SourceBudget::All`].
    Sample(usize),
}

/// One analyzed topology: its spec, the sampling seed derived from the
/// spec fingerprint, and the measured statistics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistanceAnalysisRow {
    /// Human-readable topology name, e.g. `Torus(64x64x32)`.
    pub topology: String,
    /// The spec the topology was built from.
    pub spec: TopologySpec,
    /// Sampling seed: the upper half of the spec's content fingerprint.
    /// Unused (but still reported) for all-sources runs.
    pub seed: u64,
    /// Measured distance statistics.
    pub stats: DistanceStats,
}

/// Kind-tagged report printed by `exaflow analyze`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistanceAnalysisReport {
    /// Always `"distance_analysis"`.
    pub kind: String,
    /// System size every row was built at.
    pub scale_qfdbs: u64,
    /// Requested sources per topology; absent means every endpoint.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub requested_sources: Option<usize>,
    /// Worker threads used for the sweeps (statistics are identical at
    /// every thread count; only wall time changes).
    pub threads: usize,
    /// One row per analyzed topology, in input order.
    pub rows: Vec<DistanceAnalysisRow>,
}

/// Deterministic sampling seed for a spec: the upper 16 hex digits of its
/// canonical-JSON content fingerprint. Two specs share a seed iff they are
/// the same spec, so sampled results are reproducible per configuration
/// without any global RNG state.
pub fn spec_seed(spec: &TopologySpec) -> u64 {
    let fp = fingerprint_value(&serde_json::to_value(spec).expect("topology specs serialize"));
    u64::from_str_radix(&fp[..16], 16).expect("fingerprint is lowercase hex")
}

/// The Table 1 baseline specs at `scale`: the monolithic torus and the
/// standalone 3-stage fattree, plus (when `hybrids`) the paper's
/// NestTree(t=2, u=4) and NestGHC(t=2, u=4) multi-tier designs.
pub fn table1_specs(scale: SystemScale, hybrids: bool) -> Result<Vec<TopologySpec>, String> {
    let mut specs = vec![scale.torus_spec(), scale.fattree_spec()];
    if hybrids {
        specs.push(scale.nested_spec(UpperTierKind::Fattree, 2, 4)?);
        specs.push(scale.nested_spec(UpperTierKind::GeneralizedHypercube, 2, 4)?);
    }
    Ok(specs)
}

/// Build and analyze each spec at `scale` in order, dropping every
/// topology before the next is built. No link is wired: the sweep reads
/// only distances, which the paper's generators answer by arithmetic. The
/// report is deterministic: no timestamps, no machine-dependent fields.
pub fn analyze_distances(
    scale: SystemScale,
    specs: &[TopologySpec],
    sources: SourceBudget,
    threads: usize,
) -> Result<DistanceAnalysisReport, ExperimentError> {
    let mut rows = Vec::with_capacity(specs.len());
    for spec in specs {
        let topo = spec.build()?;
        let seed = spec_seed(spec);
        let stats = match sources {
            SourceBudget::All => distance_sweep(topo.as_ref(), threads),
            SourceBudget::Sample(n) => distance_estimate(topo.as_ref(), n, seed, threads),
        };
        rows.push(DistanceAnalysisRow {
            topology: topo.name(),
            spec: spec.clone(),
            seed,
            stats,
        });
    }
    Ok(DistanceAnalysisReport {
        kind: "distance_analysis".to_string(),
        scale_qfdbs: scale.qfdbs,
        requested_sources: match sources {
            SourceBudget::All => None,
            SourceBudget::Sample(n) => Some(n),
        },
        threads,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaflow_analysis::distance_stats_exact;

    #[test]
    fn seeds_are_stable_and_spec_sensitive() {
        let s = SystemScale::new(64).unwrap();
        let a = spec_seed(&s.torus_spec());
        assert_eq!(a, spec_seed(&s.torus_spec()), "same spec, same seed");
        assert_ne!(a, spec_seed(&s.fattree_spec()), "different spec");
        assert_ne!(
            a,
            spec_seed(&SystemScale::new(128).unwrap().torus_spec()),
            "different scale"
        );
    }

    #[test]
    fn all_sources_report_matches_exact_stats() {
        let scale = SystemScale::new(64).unwrap();
        let specs = table1_specs(scale, true).unwrap();
        let report = analyze_distances(scale, &specs, SourceBudget::All, 2).unwrap();
        assert_eq!(report.kind, "distance_analysis");
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.requested_sources, None);
        for (row, spec) in report.rows.iter().zip(&specs) {
            let topo = spec.build().unwrap();
            assert_eq!(
                row.stats,
                distance_stats_exact(topo.as_ref()),
                "{}",
                row.topology
            );
            assert!(row.stats.exact);
        }
    }

    #[test]
    fn sampled_report_is_reproducible_and_flagged() {
        let scale = SystemScale::new(256).unwrap();
        let specs = table1_specs(scale, false).unwrap();
        let a = analyze_distances(scale, &specs, SourceBudget::Sample(16), 1).unwrap();
        let b = analyze_distances(scale, &specs, SourceBudget::Sample(16), 4).unwrap();
        assert_eq!(a.rows, b.rows, "thread count must not perturb sampled rows");
        assert_eq!(a.requested_sources, Some(16));
        for row in &a.rows {
            assert!(!row.stats.exact);
            assert_eq!(row.stats.sources_measured, 16);
            assert!(row.stats.stderr.is_some());
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let scale = SystemScale::new(64).unwrap();
        let specs = table1_specs(scale, false).unwrap();
        let report = analyze_distances(scale, &specs, SourceBudget::Sample(8), 1).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: DistanceAnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
