//! Event tracing and run metrics for the flow engine.
//!
//! When tracing is enabled — [`SimConfig::trace`](crate::SimConfig::trace)
//! or an explicit [`TraceSink`] passed to
//! [`Simulator::run_with`](crate::Simulator::run_with) — the engine emits
//! one [`TraceEvent`] at every state transition: activation, transfer
//! start, completion, skip, rate recomputation, fault application/repair
//! and reroute. The stream is **self-contained**: the
//! leading [`TraceEvent::RunStarted`] header carries the resource
//! capacities, and every path-changing event carries the full resource
//! path, so [`crate::trace_check::check_trace`] can replay a trace and
//! verify the engine's global invariants without the topology in hand.
//!
//! Tracing is **zero-cost when off**: every emission site is guarded by a
//! single branch on a local flag, no event is constructed, no counter is
//! touched, and the report is bit-identical to a build without this module
//! (held by the root test `engine_equiv::fault_free_reports_bit_identical_across_modes`
//! and `scripts/check.sh`). With
//! [`SimConfig::trace`](crate::SimConfig::trace) but no sink — metrics
//! only — the sites bump their counter and still construct no event.
//!
//! Events contain no wall-clock data — a trace is a pure function of
//! (topology, workload, config, schedule), bit-identical across reruns.
//! Wall-clock timings live only in [`MetricsSnapshot`], surfaced
//! through [`SimReport::metrics`](crate::SimReport::metrics).

use serde::{Deserialize, Serialize};

/// One engine state transition, kind-tagged for JSONL serialisation
/// (`{"event":"flow_started",...}`, one object per line).
///
/// All times are simulated seconds. Resource ids follow the engine's
/// scheme: `0..links` are topology links, `links..links+endpoints` are NIC
/// injection ports, `links+endpoints..links+2·endpoints` ejection ports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum TraceEvent {
    /// Trace header, always first: enough static context to replay the
    /// rest of the stream without the topology.
    RunStarted {
        /// Flows in the DAG.
        flows: u64,
        /// Unidirectional topology links (resource ids `0..links`).
        links: u64,
        /// Endpoints (each owns one injection and one ejection resource).
        endpoints: u64,
        /// The engine's completion-batching tolerance — the oracle's
        /// per-flow byte-conservation slack.
        batch_epsilon: f64,
        /// Capacity of every resource, bits/second, indexed by resource id.
        capacities_bps: Vec<f64>,
        /// Links down for the whole run, ascending (omitted when none).
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        failed_links: Vec<u32>,
    },
    /// All dependencies satisfied; the flow left the pending set.
    FlowActivated {
        t: f64,
        flow: u32,
        src: u32,
        dst: u32,
        bytes: u64,
        /// Dependency predecessors — all terminal (finished or skipped)
        /// by this point, which the oracle verifies.
        preds: Vec<u32>,
    },
    /// The flow entered the active set and starts transferring on this
    /// resource path, at the instant it activated.
    FlowStarted { t: f64, flow: u32, path: Vec<u32> },
    /// The flow delivered all its bytes (or was degenerate: zero bytes or
    /// self-traffic, in which case it finishes without ever starting).
    FlowFinished { t: f64, flow: u32 },
    /// The `skip_unreachable` policy dropped the flow: an active fault cut
    /// off its destination.
    FlowSkipped { t: f64, flow: u32 },
    /// The solver reassigned rates. `flows` and `rates_bps` are parallel
    /// arrays covering the whole active set; these rates hold until the
    /// next timestamped event. `entries_solved` (the entries the solver's
    /// pass froze from its heap, re-deriving their rates; the rest kept
    /// their logged round) and `full_pass` (whether a pass ran at all:
    /// every pass covers the whole flow set) measure solver effort, not
    /// physics.
    RateRecompute {
        t: f64,
        flows: Vec<u32>,
        rates_bps: Vec<f64>,
        entries_solved: u64,
        full_pass: bool,
    },
    /// A scheduled link-down event took effect.
    FaultApplied { t: f64, link: u32 },
    /// A scheduled link-up event took effect.
    FaultCleared { t: f64, link: u32 },
    /// A fault interrupted the flow and the recovery policy found a detour.
    /// `restarted` means transferred bytes were discarded
    /// ([`RecoveryPolicy::RerouteRestart`](crate::RecoveryPolicy)).
    RerouteTaken {
        t: f64,
        flow: u32,
        path: Vec<u32>,
        restarted: bool,
    },
    /// Terminal: the run stopped at its deterministic event budget
    /// ([`SimConfig::max_events`](crate::SimConfig)). No event may follow;
    /// unresolved flows are cut, not lost — the oracle checks conservation
    /// up to this point and waives the completeness check.
    BudgetExhausted { t: f64, events: u64 },
    /// Terminal: the run stopped at its wall-clock deadline
    /// ([`SimConfig::max_wall_s`](crate::SimConfig)). Same trace semantics
    /// as [`TraceEvent::BudgetExhausted`].
    DeadlineExceeded { t: f64, events: u64 },
}

impl TraceEvent {
    /// Simulated time of the event; `None` for the [`RunStarted`] header.
    ///
    /// [`RunStarted`]: TraceEvent::RunStarted
    pub fn time(&self) -> Option<f64> {
        match self {
            TraceEvent::RunStarted { .. } => None,
            TraceEvent::FlowActivated { t, .. }
            | TraceEvent::FlowStarted { t, .. }
            | TraceEvent::FlowFinished { t, .. }
            | TraceEvent::FlowSkipped { t, .. }
            | TraceEvent::RateRecompute { t, .. }
            | TraceEvent::FaultApplied { t, .. }
            | TraceEvent::FaultCleared { t, .. }
            | TraceEvent::RerouteTaken { t, .. }
            | TraceEvent::BudgetExhausted { t, .. }
            | TraceEvent::DeadlineExceeded { t, .. } => Some(*t),
        }
    }
}

/// Receiver of the engine's event stream. Implementations must be cheap:
/// `record` is called on the hot path of a traced run.
pub trait TraceSink {
    fn record(&mut self, event: &TraceEvent);
}

/// Collects events in memory — the test-suite sink.
#[derive(Default)]
pub struct VecSink {
    /// Every event recorded so far, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Consume the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Streams events as JSON Lines (one compact object per line) into any
/// writer — the CLI's `--trace <path>` sink.
///
/// I/O errors are deferred: the first failure is stored and every later
/// `record` becomes a no-op; [`JsonlSink::finish`] surfaces it.
pub struct JsonlSink<W: std::io::Write> {
    out: W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None }
    }

    /// Flush and return the writer, or the first deferred I/O error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: std::io::Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(event).expect("trace events always serialise");
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }
}

/// Parse a JSONL trace (as written by [`JsonlSink`]) back into events.
/// Blank lines are ignored; the error names the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Monotonic counters accumulated during a traced run, attached to
/// [`SimReport::metrics`](crate::SimReport::metrics) (kind-tagged so mixed
/// JSON streams stay self-describing).
///
/// The engine bumps the counters at the same emission sites that feed the
/// event stream (so counters and trace agree by construction) — without
/// building the event when no sink listens — and adds up the solver's
/// wall-clock time per recompute. Utilisation is the oracle's to measure:
/// [`TraceSummary::max_utilization`](crate::TraceSummary::max_utilization).
///
/// The solver wall-clock total is genuinely non-deterministic; everything
/// else is a pure function of the run. Reports are therefore only
/// bit-compared with tracing off.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Always `"sim_metrics"`.
    #[serde(default = "metrics_kind")]
    pub kind: String,
    pub flows_activated: u64,
    pub flows_started: u64,
    pub flows_finished: u64,
    pub flows_skipped: u64,
    pub faults_applied: u64,
    pub faults_cleared: u64,
    pub reroutes: u64,
    /// Rate recomputations performed (one per engine event).
    pub rate_recomputes: u64,
    /// Recomputations that ran a solver pass (every pass covers all live
    /// entries); the others changed no rate.
    pub full_passes: u64,
    /// Runs cut by the deterministic event budget (0 or 1 per run).
    #[serde(default)]
    pub budget_exhausted: u64,
    /// Runs cut by the wall-clock deadline (0 or 1 per run).
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Total solver wall-clock time, seconds:
    /// [`MaxMinSolver::recompute`](crate::maxmin::MaxMinSolver::recompute)
    /// alone, one timer for one layer. The active set copies the rates in
    /// its earliest-completion scan, outside the timer, and the trace
    /// event is built after it stops. **Non-deterministic.**
    pub solver_seconds_total: f64,
}

fn metrics_kind() -> String {
    "sim_metrics".to_owned()
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            kind: metrics_kind(),
            flows_activated: 0,
            flows_started: 0,
            flows_finished: 0,
            flows_skipped: 0,
            faults_applied: 0,
            faults_cleared: 0,
            reroutes: 0,
            rate_recomputes: 0,
            full_passes: 0,
            budget_exhausted: 0,
            deadline_exceeded: 0,
            solver_seconds_total: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_as_kind_tagged_json() {
        let events = vec![
            TraceEvent::RunStarted {
                flows: 2,
                links: 4,
                endpoints: 2,
                batch_epsilon: 1e-9,
                capacities_bps: vec![1e10; 8],
                failed_links: vec![],
            },
            TraceEvent::RunStarted {
                flows: 2,
                links: 4,
                endpoints: 2,
                batch_epsilon: 1e-9,
                capacities_bps: vec![1e10; 8],
                failed_links: vec![1, 3],
            },
            TraceEvent::FlowActivated {
                t: 0.0,
                flow: 0,
                src: 0,
                dst: 1,
                bytes: 1024,
                preds: vec![],
            },
            TraceEvent::FlowStarted {
                t: 0.0,
                flow: 0,
                path: vec![4, 0, 6],
            },
            TraceEvent::RateRecompute {
                t: 0.0,
                flows: vec![0],
                rates_bps: vec![1e10],
                entries_solved: 1,
                full_pass: true,
            },
            TraceEvent::FaultApplied { t: 1e-6, link: 0 },
            TraceEvent::RerouteTaken {
                t: 1e-6,
                flow: 0,
                path: vec![4, 1, 2, 6],
                restarted: false,
            },
            TraceEvent::FaultCleared { t: 2e-6, link: 0 },
            TraceEvent::FlowFinished { t: 3e-6, flow: 0 },
            TraceEvent::FlowSkipped { t: 3e-6, flow: 1 },
        ];
        // A run with no run-long failures keeps the old header.
        let header = serde_json::to_string(&events[0]).unwrap();
        assert!(!header.contains("failed_links"), "{header}");
        for ev in &events {
            let json = serde_json::to_string(ev).unwrap();
            assert!(json.contains("\"event\""), "{json}");
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn jsonl_sink_roundtrips_through_parse() {
        let mut sink = JsonlSink::new(Vec::new());
        let ev = TraceEvent::FlowFinished { t: 0.5, flow: 7 };
        sink.record(&ev);
        sink.record(&TraceEvent::FaultApplied { t: 0.75, link: 3 });
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed[0], ev);
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn parse_jsonl_reports_the_bad_line() {
        let err = parse_jsonl("{\"event\":\"flow_finished\",\"t\":0.0,\"flow\":0}\nnot json\n")
            .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn recorded_metrics_roundtrip_as_json() {
        let mut m = MetricsSnapshot::default();
        m.flows_skipped += 1;
        m.rate_recomputes += 1;
        m.full_passes += 1;
        m.solver_seconds_total += 1e-6;
        assert_eq!(m.kind, "sim_metrics");
        let json = serde_json::to_string(&m).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    /// Traces and results written while runs carried a topology-cache
    /// provenance flag still load; the flag is ignored. So do metrics from
    /// the days of the per-recompute histograms and utilisation probe.
    #[test]
    fn old_files_with_the_cache_hit_flag_still_load() {
        let header = parse_jsonl(
            "{\"event\":\"run_started\",\"flows\":1,\"links\":2,\"endpoints\":2,\
             \"batch_epsilon\":1e-9,\"capacities_bps\":[1e9,1e9],\"topo_cache_hit\":true}\n",
        )
        .unwrap();
        assert_eq!(
            header,
            vec![TraceEvent::RunStarted {
                flows: 1,
                links: 2,
                endpoints: 2,
                batch_epsilon: 1e-9,
                capacities_bps: vec![1e9, 1e9],
                failed_links: vec![],
            }]
        );

        let snap = MetricsSnapshot::default();
        let old = serde_json::to_string(&snap)
            .unwrap()
            .replacen('{', "{\"topo_cache_hit\":1,", 1);
        let back: MetricsSnapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(back, snap);

        let histogram = r#"{"count":2,"sum":3.0,"min":1.0,"max":2.0,"buckets":[0,2]}"#;
        let old = format!(
            r#"{{"kind":"sim_metrics","flows_activated":4,"flows_started":4,
                "flows_finished":4,"flows_skipped":0,"faults_applied":0,
                "faults_cleared":0,"reroutes":0,"rate_recomputes":2,"full_passes":2,
                "solver_seconds_total":3e-6,"solver_seconds":{histogram},
                "flows_active":{histogram},"resource_utilization":{histogram},
                "peak_resource_utilization":1.0}}"#
        );
        let back: MetricsSnapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(
            back,
            MetricsSnapshot {
                flows_activated: 4,
                flows_started: 4,
                flows_finished: 4,
                rate_recomputes: 2,
                full_passes: 2,
                solver_seconds_total: 3e-6,
                ..MetricsSnapshot::default()
            }
        );
    }
}
