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
//! (enforced by the `trace_overhead` bench and `scripts/check.sh`). With
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
    /// The flow entered the active set and starts transferring (after any
    /// configured head latency) on this resource path.
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

/// Number of fixed log₂ buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;
/// Bucket `i` (for `i >= 1`) covers values in `[2^(i-41), 2^(i-40))`;
/// bucket 0 collects non-positive values. The span 2⁻⁴⁰..2²³ covers both
/// sub-microsecond solver timings and active-set sizes in the millions.
const HISTOGRAM_MIN_EXP: i32 = -40;

/// Fixed-layout log₂ histogram over non-negative samples, plus the exact
/// count/sum/min/max. Layout is static so snapshots from different runs
/// merge and compare trivially.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Per-bucket sample counts; see [`HISTOGRAM_BUCKETS`].
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let exp = value.log2().floor() as i32;
        let idx = exp - HISTOGRAM_MIN_EXP + 1;
        idx.clamp(1, HISTOGRAM_BUCKETS as i32 - 1) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Monotonic counters and histograms accumulated during a traced run,
/// attached to [`SimReport::metrics`](crate::SimReport::metrics)
/// (kind-tagged so mixed JSON streams stay self-describing).
///
/// The engine bumps the counters at the same emission sites that feed the
/// event stream (so counters and trace agree by construction) — without
/// building the event when no sink listens — and adds per-recompute
/// wall-clock and utilisation probes.
///
/// Solver wall-clock fields are genuinely non-deterministic; everything
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
    /// Total solver wall-clock time, seconds. **Non-deterministic.**
    pub solver_seconds_total: f64,
    /// Per-recompute solver wall time, seconds. **Non-deterministic.**
    pub solver_seconds: Histogram,
    /// Active-set size at each recompute.
    pub flows_active: Histogram,
    /// Most-loaded-resource utilisation (`allocated / capacity`) at each
    /// recompute.
    pub resource_utilization: Histogram,
    /// Largest utilisation ever observed; ≤ 1 + ε for a correct solver.
    pub peak_resource_utilization: f64,
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
            solver_seconds: Histogram::new(),
            flows_active: Histogram::new(),
            resource_utilization: Histogram::new(),
            peak_resource_utilization: 0.0,
        }
    }
}

impl MetricsSnapshot {
    /// Record one rate recomputation: solver wall time and the size of the
    /// active set it served.
    pub fn record_solve(&mut self, seconds: f64, flows_active: usize) {
        self.solver_seconds_total += seconds;
        self.solver_seconds.record(seconds);
        self.flows_active.record(flows_active as f64);
    }

    /// Record the post-recompute utilisation snapshot: the most loaded
    /// resource's `allocated / capacity`.
    pub fn record_utilization(&mut self, peak: f64) {
        self.peak_resource_utilization = self.peak_resource_utilization.max(peak);
        self.resource_utilization.record(peak);
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
    fn histogram_tracks_extremes_and_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        h.record(1e-9);
        h.record(4.0);
        h.record(0.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - (1e-9 + 4.0) / 3.0).abs() < 1e-12);
        assert_eq!(h.buckets[0], 1, "zero lands in the non-positive bucket");
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn recorded_metrics_roundtrip_as_json() {
        let mut m = MetricsSnapshot::default();
        m.flows_skipped += 1;
        m.rate_recomputes += 1;
        m.full_passes += 1;
        m.record_solve(1e-6, 3);
        m.record_utilization(0.5);
        m.record_utilization(1.0);
        assert_eq!(m.kind, "sim_metrics");
        assert_eq!(m.peak_resource_utilization, 1.0);
        assert_eq!(m.flows_active.count, 1);
        assert_eq!(m.resource_utilization.count, 2);
        let json = serde_json::to_string(&m).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    /// Traces and results written while runs carried a topology-cache
    /// provenance flag still load; the flag is ignored.
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
    }
}
