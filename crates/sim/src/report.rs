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
    /// Number of unidirectional links of the simulated topology.
    pub num_links: u64,
    /// Number of endpoints of the simulated topology, each with one NIC
    /// injection and one ejection resource.
    pub num_endpoints: u64,
    /// Flows dropped by the `skip_unreachable` recovery policy because a
    /// mid-run fault made their destination unreachable. Zero for fault-free
    /// runs.
    #[serde(default)]
    pub skipped_flows: u64,
    /// Ids of the dropped flows, in drop order (a traced run records each
    /// drop time as a `flow_skipped` event).
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
    /// Counters collected when tracing is enabled (see
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

        // Reports serialized while the engine could record per-flow times
        // and per-resource bytes still load; both vectors are ignored.
        let json = r#"{"makespan_seconds":1.0,"flows":2,"events":1,
            "maxmin_iterations":1,"completion_times":[0.5,1.0],
            "resource_bytes":[8.0,0.0,8.0,0.0,0.0,8.0],"num_links":2,
            "num_endpoints":2}"#;
        let r: SimReport = serde_json::from_str(json).unwrap();
        assert_eq!(r.flows, 2);
        assert_eq!(r.num_links, 2);
        assert!(r.skipped_flow_ids.is_empty());
    }

    #[test]
    fn display_format() {
        let r = base();
        let s = r.to_string();
        assert!(s.contains("1.5"));
        assert!(s.contains("10 flows"));
    }
}
