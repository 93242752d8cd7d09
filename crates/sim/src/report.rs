//! Simulation results.

use crate::trace::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    /// Workload completion time in seconds (the paper's "execution time").
    pub makespan_seconds: f64,
    /// Number of flows simulated.
    pub flows: u64,
    /// Number of completion events (rate recomputations). With batching,
    /// this is far below `flows` for symmetric workloads.
    pub events: u64,
    /// Total progressive-filling freeze iterations across all events.
    pub maxmin_iterations: u64,
    /// Per-flow completion times (seconds), when requested via
    /// [`crate::SimConfig::record_flow_times`].
    pub completion_times: Option<Vec<f64>>,
    /// Bytes carried per resource (all links first, then per-endpoint
    /// injection ports, then ejection ports), when requested via
    /// [`crate::SimConfig::collect_link_stats`].
    pub resource_bytes: Option<Vec<f64>>,
    /// Number of links of the simulated topology (layout key for
    /// `resource_bytes`).
    pub num_links: u64,
    /// Number of endpoints of the simulated topology.
    pub num_endpoints: u64,
    /// Flows dropped by the `skip_unreachable` recovery policy because a
    /// mid-run fault made their destination unreachable. Zero for fault-free
    /// runs.
    #[serde(default)]
    pub skipped_flows: u64,
    /// Ids of the dropped flows (their `completion_times` entries record the
    /// drop time, not a delivery).
    #[serde(default)]
    pub skipped_flow_ids: Vec<u32>,
    /// Link-down/link-up events from the fault schedule that actually fired
    /// before the workload completed.
    #[serde(default)]
    pub fault_events_applied: u64,
    /// Water-filling passes the solver executed: at most one per event,
    /// none when an event changed no rate. Each pass merges the log of the
    /// one before and costs what its change reaches; effort metric, not
    /// physics.
    #[serde(default)]
    pub rate_recomputes: u64,
    /// Flows absorbed into an existing identical-path solver entry.
    #[serde(default)]
    pub flows_coalesced: u64,
    /// Routes served by the run's route memo, at activation or at a
    /// reroute: lookups of a `(src, dst)` pair already routed since the
    /// last fault transition.
    #[serde(default)]
    pub route_cache_hits: u64,
    /// Counters and histograms collected when tracing is enabled (see
    /// [`crate::SimConfig::trace`] and [`crate::trace`]); `None` — and the
    /// report bit-identical to pre-tracing builds — otherwise. Contains
    /// solver wall-clock timings, so traced reports are not bit-comparable
    /// across reruns.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<MetricsSnapshot>,
}

impl SimReport {
    /// Flows actually delivered to their destination (total minus skipped).
    pub fn delivered_flows(&self) -> u64 {
        self.flows - self.skipped_flows
    }

    /// Average events per flow — a measure of how much completion batching
    /// compressed the event loop.
    pub fn events_per_flow(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.events as f64 / self.flows as f64
        }
    }

    /// The `n` busiest *links* (excludes NIC injection/ejection resources)
    /// as `(link index, bytes carried)`, hottest first. Empty when link
    /// statistics were not collected.
    pub fn hottest_links(&self, n: usize) -> Vec<(usize, f64)> {
        let Some(bytes) = &self.resource_bytes else {
            return Vec::new();
        };
        let mut links: Vec<(usize, f64)> = bytes[..self.num_links as usize]
            .iter()
            .copied()
            .enumerate()
            .collect();
        links.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        links.truncate(n);
        links
    }

    /// Bytes injected by each endpoint (empty without link statistics).
    pub fn injection_bytes(&self) -> &[f64] {
        match &self.resource_bytes {
            Some(b) => {
                let lo = self.num_links as usize;
                &b[lo..lo + self.num_endpoints as usize]
            }
            None => &[],
        }
    }

    /// Bytes ejected at each endpoint (empty without link statistics).
    pub fn ejection_bytes(&self) -> &[f64] {
        match &self.resource_bytes {
            Some(b) => {
                let lo = self.num_links as usize + self.num_endpoints as usize;
                &b[lo..lo + self.num_endpoints as usize]
            }
            None => &[],
        }
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "makespan {:.6} s over {} flows ({} events)",
            self.makespan_seconds, self.flows, self.events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimReport {
        SimReport {
            makespan_seconds: 1.5,
            flows: 10,
            events: 4,
            maxmin_iterations: 9,
            completion_times: None,
            resource_bytes: None,
            num_links: 2,
            num_endpoints: 2,
            skipped_flows: 0,
            skipped_flow_ids: Vec::new(),
            fault_events_applied: 0,
            rate_recomputes: 0,
            flows_coalesced: 0,
            route_cache_hits: 0,
            metrics: None,
        }
    }

    #[test]
    fn delivered_flows_subtracts_skipped() {
        let mut r = base();
        assert_eq!(r.delivered_flows(), 10);
        r.skipped_flows = 3;
        r.skipped_flow_ids = vec![1, 4, 7];
        assert_eq!(r.delivered_flows(), 7);
    }

    #[test]
    fn fault_fields_default_when_absent_from_json() {
        // Reports serialized before fault injection existed must still load.
        let json = r#"{"makespan_seconds":1.0,"flows":2,"events":1,
            "maxmin_iterations":1,"completion_times":null,
            "resource_bytes":null,"num_links":2,"num_endpoints":2}"#;
        let r: SimReport = serde_json::from_str(json).unwrap();
        assert_eq!(r.skipped_flows, 0);
        assert!(r.skipped_flow_ids.is_empty());
        assert_eq!(r.fault_events_applied, 0);

        // Reports serialized while the engine had an in-run worker pool
        // carry three counters it no longer has; they are ignored.
        let json = r#"{"makespan_seconds":1.0,"flows":2,"events":1,
            "maxmin_iterations":1,"completion_times":null,
            "resource_bytes":null,"num_links":2,"num_endpoints":2,
            "solver_threads":2,"parallel_solves":5,"parallel_route_batches":1,
            "route_cache_hits":3}"#;
        let r: SimReport = serde_json::from_str(json).unwrap();
        assert_eq!(r.events, 1);
        assert_eq!(r.route_cache_hits, 3);
    }

    #[test]
    fn events_per_flow_handles_zero() {
        let mut r = base();
        r.flows = 0;
        r.events = 0;
        assert_eq!(r.events_per_flow(), 0.0);
    }

    #[test]
    fn display_format() {
        let r = base();
        let s = r.to_string();
        assert!(s.contains("1.5"));
        assert!(s.contains("10 flows"));
        assert_eq!(r.events_per_flow(), 0.4);
    }

    #[test]
    fn hottest_links_empty_without_stats() {
        assert!(base().hottest_links(3).is_empty());
        assert!(base().injection_bytes().is_empty());
        assert!(base().ejection_bytes().is_empty());
    }

    #[test]
    fn hottest_links_sorted_and_scoped_to_links() {
        let mut r = base();
        // links: [5, 9], injection: [100, 0], ejection: [0, 100]
        r.resource_bytes = Some(vec![5.0, 9.0, 100.0, 0.0, 0.0, 100.0]);
        let hot = r.hottest_links(5);
        assert_eq!(hot, vec![(1, 9.0), (0, 5.0)]);
        assert_eq!(r.injection_bytes(), &[100.0, 0.0]);
        assert_eq!(r.ejection_bytes(), &[0.0, 100.0]);
    }
}
