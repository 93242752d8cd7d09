//! The simulation engine: activation, rate allocation, batched completions,
//! optional per-hop latency and per-link accounting.

use crate::dag::{FlowDag, FlowId};
use crate::error::SimError;
use crate::fault::{FaultAction, FaultSchedule, RecoveryPolicy};
use crate::maxmin::MaxMinSolver;
use crate::paths::{PathId, PathTable};
use crate::report::SimReport;
use crate::trace::{MetricsRegistry, TraceEvent, TraceSink};
use exaflow_netgraph::{IntMap, LinkId, NodeId};
use exaflow_topo::{FaultOverlay, Topology};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Bytes no longer outstanding at a cut point: total workload bytes minus
/// the bits still `remaining`. Finished flows have zero remaining, partial
/// flows contribute their transferred prefix, and skipped flows (whose
/// remaining is zeroed at retirement) count as accounted-for.
fn bytes_accounted(dag: &FlowDag, remaining: &[f64]) -> u64 {
    let total_bits: f64 = dag.flows().iter().map(|f| f.bytes as f64 * 8.0).sum();
    let outstanding_bits: f64 = remaining.iter().sum();
    (((total_bits - outstanding_bits) / 8.0).max(0.0)) as u64
}

/// Engine configuration.
///
/// Deserialization validates the numeric fields (see
/// [`SimConfig::validate`]): a config with a non-finite or negative rate,
/// epsilon or latency is rejected at the JSON boundary instead of stalling
/// or poisoning the event heap deep inside a run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SimConfig {
    /// Endpoint injection (NIC transmit) capacity, bits/second.
    pub injection_bps: f64,
    /// Endpoint ejection (NIC receive / consumption port) capacity,
    /// bits/second. This is the resource that serialises an N-to-1 Reduce.
    pub ejection_bps: f64,
    /// Relative completion-batching tolerance: all flows finishing within
    /// `(1 + epsilon)` of the earliest completion time retire in one event.
    /// The default `1e-9` only merges numerically-identical completions and
    /// is exact for all practical purposes; larger values trade accuracy
    /// for fewer rate recomputations (see the engine ablation bench).
    pub batch_epsilon: f64,
    /// Head latency added before a flow starts transferring:
    /// `startup_latency_s + hops · per_hop_latency_s`. Zero by default —
    /// the pure fluid model, appropriate for the paper's MB-scale
    /// transfers where wire time dominates switch latency by 10³.
    #[serde(default)]
    pub per_hop_latency_s: f64,
    /// Fixed protocol/software overhead per flow, seconds.
    #[serde(default)]
    pub startup_latency_s: f64,
    /// Record per-flow completion times in the report.
    pub record_flow_times: bool,
    /// Accumulate bytes carried per resource (links, then injection, then
    /// ejection ports) in the report. Costs one pass over active paths per
    /// event.
    #[serde(default)]
    pub collect_link_stats: bool,
    /// Maximum number of routes memoised per (src, dst) pair, which pays
    /// off for iterative workloads that reuse pairs across rounds; `0`
    /// disables the route cache.
    pub route_cache_cap: usize,
    /// Collect trace metrics ([`SimReport::metrics`]) even without an
    /// explicit [`TraceSink`]; passing a sink to [`Simulator::run_with`]
    /// enables tracing regardless. Off by default — an untraced run
    /// constructs no events, touches no counters, and its report is
    /// bit-identical to builds predating the trace subsystem.
    #[serde(default)]
    pub trace: bool,
    /// Ignored: the engine is sequential and reads nothing here. The field
    /// stays, serialised as before, so config fingerprints and journals do
    /// not move and the frozen `benchmark/src/main.rs`, which assigns it,
    /// still builds; it goes with the next `benchmark` PR.
    #[serde(default)]
    pub solver_threads: usize,
    /// Deterministic event budget: the run stops with a typed
    /// [`SimError::BudgetExhausted`] once this many events have been
    /// processed without every flow resolving. `None` (the default) means
    /// unlimited. Because the event sequence is deterministic, the same
    /// config trips at exactly the same point on every host.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_events: Option<u64>,
    /// Wall-clock deadline, seconds: the run stops with a typed
    /// [`SimError::DeadlineExceeded`] once this much real time has elapsed
    /// without every flow resolving. Checked at event boundaries, so a
    /// stuck cell becomes a diagnosable suite entry instead of a hung
    /// sweep. `None` (the default) means unlimited. Host-speed dependent —
    /// suites treat it as transient and may retry.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_wall_s: Option<f64>,
}

impl SimConfig {
    /// Check every numeric field against its domain: NIC rates must be
    /// finite and strictly positive, the batching epsilon and latencies
    /// finite and non-negative. Called by [`Simulator::run`] and by the
    /// `Deserialize` impl, so an invalid config is a typed
    /// [`SimError::InvalidConfig`] at the boundary — never a zero-rate
    /// stall or a NaN in the delayed-activation heap.
    pub fn validate(&self) -> Result<(), SimError> {
        let positive = [
            ("injection_bps", self.injection_bps),
            ("ejection_bps", self.ejection_bps),
        ];
        for (field, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::invalid_config(
                    field,
                    value,
                    "must be finite and > 0",
                ));
            }
        }
        let non_negative = [
            ("batch_epsilon", self.batch_epsilon),
            ("per_hop_latency_s", self.per_hop_latency_s),
            ("startup_latency_s", self.startup_latency_s),
        ];
        for (field, value) in non_negative {
            if !(value.is_finite() && value >= 0.0) {
                return Err(SimError::invalid_config(
                    field,
                    value,
                    "must be finite and >= 0",
                ));
            }
        }
        if let Some(limit) = self.max_wall_s {
            if !(limit.is_finite() && limit > 0.0) {
                return Err(SimError::invalid_config(
                    "max_wall_s",
                    limit,
                    "must be finite and > 0",
                ));
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            injection_bps: exaflow_topo::LINK_RATE_BPS,
            ejection_bps: exaflow_topo::LINK_RATE_BPS,
            batch_epsilon: 1e-9,
            per_hop_latency_s: 0.0,
            startup_latency_s: 0.0,
            record_flow_times: false,
            collect_link_stats: false,
            route_cache_cap: 1 << 21,
            trace: false,
            solver_threads: 0,
            max_events: None,
            max_wall_s: None,
        }
    }
}

/// Unvalidated mirror of [`SimConfig`] carrying the derive-generated field
/// logic; the manual `Deserialize` below funnels it through
/// [`SimConfig::validate`] so malformed JSON surfaces as a config error.
#[derive(Deserialize)]
struct SimConfigUnchecked {
    injection_bps: f64,
    ejection_bps: f64,
    batch_epsilon: f64,
    #[serde(default)]
    per_hop_latency_s: f64,
    #[serde(default)]
    startup_latency_s: f64,
    record_flow_times: bool,
    #[serde(default)]
    collect_link_stats: bool,
    route_cache_cap: usize,
    #[serde(default)]
    trace: bool,
    #[serde(default)]
    solver_threads: usize,
    #[serde(default)]
    max_events: Option<u64>,
    #[serde(default)]
    max_wall_s: Option<f64>,
}

impl serde::de::Deserialize for SimConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        let raw = SimConfigUnchecked::from_value(value)?;
        let cfg = SimConfig {
            injection_bps: raw.injection_bps,
            ejection_bps: raw.ejection_bps,
            batch_epsilon: raw.batch_epsilon,
            per_hop_latency_s: raw.per_hop_latency_s,
            startup_latency_s: raw.startup_latency_s,
            record_flow_times: raw.record_flow_times,
            collect_link_stats: raw.collect_link_stats,
            route_cache_cap: raw.route_cache_cap,
            trace: raw.trace,
            solver_threads: raw.solver_threads,
            max_events: raw.max_events,
            max_wall_s: raw.max_wall_s,
        };
        cfg.validate().map_err(serde::de::Error::custom)?;
        Ok(cfg)
    }
}

/// Bounded `(src, dst) -> path id` memo with two-generation eviction.
///
/// Inserts land in the `fresh` generation; once it holds half the cap the
/// previous generation is dropped wholesale and `fresh` becomes `stale`.
/// A `stale` hit promotes the route back into `fresh`. Total size is thus
/// bounded by `cap` while recently-used pairs survive — the previous
/// behaviour (silently refusing inserts at the cap) degraded beyond-cap
/// workloads to a zero hit rate with no signal. Rotation triggers on an
/// exact size threshold and lookups happen in the engine's admission
/// order, so the eviction trajectory is deterministic (no dependence on
/// `HashMap` iteration order). Eviction forgets a pair, not its path: the
/// ids index the run's [`PathTable`], which keeps every path it was given.
struct RouteCache {
    fresh: IntMap<(u32, u32), PathId>,
    stale: IntMap<(u32, u32), PathId>,
    /// Per-generation capacity; 0 disables insertion (`route_cache_cap = 0`).
    half_cap: usize,
    hits: u64,
    evictions: u64,
}

impl RouteCache {
    fn new(cap: usize) -> Self {
        RouteCache {
            fresh: IntMap::default(),
            stale: IntMap::default(),
            half_cap: cap.div_ceil(2),
            hits: 0,
            evictions: 0,
        }
    }

    /// Cached route for `key`, counting a hit and promoting stale entries.
    fn get(&mut self, key: (u32, u32)) -> Option<PathId> {
        if let Some(&p) = self.fresh.get(&key) {
            self.hits += 1;
            return Some(p);
        }
        let p = self.stale.remove(&key)?;
        self.hits += 1;
        self.insert(key, p);
        Some(p)
    }

    fn insert(&mut self, key: (u32, u32), path: PathId) {
        if self.half_cap == 0 {
            return;
        }
        if self.fresh.len() >= self.half_cap {
            self.evictions += self.stale.len() as u64;
            self.stale = std::mem::take(&mut self.fresh);
        }
        self.fresh.insert(key, path);
    }

    /// Drop every cached path crossing a newly-downed link. Fault purges
    /// are not evictions: the counter tracks capacity pressure only.
    fn purge_crossing(&mut self, paths: &PathTable, downed: &[u32]) {
        let clear = |p: &mut PathId| !paths.get(*p).iter().any(|r| downed.contains(r));
        self.fresh.retain(|_, p| clear(p));
        self.stale.retain(|_, p| clear(p));
    }
}

/// Buffers [`Simulator::build_path`] reuses across flows: the physical
/// route and the resource path made from it.
#[derive(Default)]
struct RouteScratch {
    links: Vec<LinkId>,
    route: Vec<u32>,
}

/// Dirty-region fraction (of live solver entries) above which a recompute
/// degrades to a full pass: small components are cheaper to re-solve in
/// place, near-global ones are not worth the bookkeeping.
pub const FULL_PASS_THRESHOLD: f64 = 0.5;

/// Total-ordered f64 key for the delayed-activation heap (times are always
/// finite and non-NaN by construction).
#[derive(PartialEq, PartialOrd)]
struct Time(f64);
impl Eq for Time {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("times are not NaN")
    }
}

/// Flow-level simulator bound to a topology.
pub struct Simulator<'a> {
    topo: &'a dyn Topology,
    cfg: SimConfig,
    num_links: usize,
    num_eps: usize,
    topo_cache_hit: bool,
}

impl<'a> Simulator<'a> {
    /// Create a simulator with the default configuration.
    pub fn new(topo: &'a dyn Topology) -> Self {
        Self::with_config(topo, SimConfig::default())
    }

    /// Create a simulator with a custom configuration.
    pub fn with_config(topo: &'a dyn Topology, cfg: SimConfig) -> Self {
        Simulator {
            num_links: topo.network().num_links(),
            num_eps: topo.num_endpoints(),
            topo,
            cfg,
            topo_cache_hit: false,
        }
    }

    /// Record whether the topology was served from a shared topology
    /// cache. Pure provenance: it is stamped into the `run_started` trace
    /// header and the metrics snapshot and never influences the physics —
    /// a config knob would pollute spec fingerprints, so this lives on the
    /// simulator instead of [`SimConfig`].
    pub fn set_topo_cache_hit(&mut self, hit: bool) {
        self.topo_cache_hit = hit;
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Resource id of an endpoint's injection port.
    #[inline]
    pub fn injection_resource(&self, ep: u32) -> u32 {
        (self.num_links + ep as usize) as u32
    }

    /// Resource id of an endpoint's ejection port.
    #[inline]
    pub fn ejection_resource(&self, ep: u32) -> u32 {
        (self.num_links + self.num_eps + ep as usize) as u32
    }

    fn resource_capacities(&self) -> Vec<f64> {
        let net = self.topo.network();
        let mut caps = Vec::with_capacity(self.num_links + 2 * self.num_eps);
        caps.extend(net.links().iter().map(|l| l.capacity_bps));
        caps.extend(std::iter::repeat_n(self.cfg.injection_bps, self.num_eps));
        caps.extend(std::iter::repeat_n(self.cfg.ejection_bps, self.num_eps));
        caps
    }

    /// Simulate `dag` to completion and return the report.
    ///
    /// Returns a typed [`SimError`] for every input-dependent failure: an
    /// invalid [`SimConfig`], a DAG referencing endpoints outside the
    /// topology, an unreachable destination (failed links partitioning the
    /// network), or a stalled rate allocation. Panics are reserved for
    /// internal invariant violations.
    pub fn run(&self, dag: &FlowDag) -> Result<SimReport, SimError> {
        self.run_with(
            dag,
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
            None,
        )
    }

    /// The full form of [`Simulator::run`]: simulate `dag` while injecting
    /// the link-down/link-up events of `schedule` at their simulated times,
    /// recovering interrupted flows per `policy`, and streaming every
    /// engine state transition into `sink` when one is given.
    ///
    /// Fault events join the engine's event ordering alongside completions
    /// and delayed activations: at each step the earliest of the three
    /// fires. When a link goes down, every in-flight (active or
    /// latency-delayed) flow whose path crosses it is handed to the
    /// recovery policy:
    ///
    /// * [`RecoveryPolicy::Abort`] — the run stops with
    ///   [`SimError::LinkLost`].
    /// * [`RecoveryPolicy::SkipUnreachable`] — reroute; flows whose
    ///   destination became unreachable are dropped (recorded in
    ///   [`SimReport::skipped_flow_ids`]) and their dependents released.
    /// * [`RecoveryPolicy::RerouteResume`] — reroute keeping transferred
    ///   bytes; an unreachable destination is [`SimError::Unreachable`].
    /// * [`RecoveryPolicy::RerouteRestart`] — reroute and retransmit from
    ///   zero; an unreachable destination is [`SimError::Unreachable`].
    ///
    /// A restored link benefits flows routed over *fresh* endpoint pairs
    /// after the repair; pairs still in the route cache keep their cached
    /// detour (retained, not cleared — every cached path avoids all
    /// currently-down links by construction, so a repair can never make
    /// one invalid, only suboptimal), and flows already rerouted keep
    /// their detour. An empty schedule reproduces [`Simulator::run`]
    /// bit-for-bit. Events scheduled after the workload completes never
    /// fire; see [`SimReport::fault_events_applied`].
    ///
    /// A sink implies tracing regardless of [`SimConfig::trace`], so the
    /// report also carries [`SimReport::metrics`]. The resulting trace
    /// satisfies [`crate::trace_check::check_trace`] by construction.
    pub fn run_with(
        &self,
        dag: &FlowDag,
        schedule: &FaultSchedule,
        policy: RecoveryPolicy,
        mut sink: Option<&mut dyn TraceSink>,
    ) -> Result<SimReport, SimError> {
        self.cfg.validate()?;
        schedule.validate_for(self.topo.network())?;
        if let Some(max_ep) = dag.max_endpoint() {
            if max_ep as usize >= self.num_eps {
                return Err(SimError::EndpointOutOfRange {
                    endpoint: max_ep,
                    num_endpoints: self.num_eps as u64,
                });
            }
        }
        let n = dag.len();
        let (succ_offsets, succs) = dag.successors();

        let mut solver = MaxMinSolver::new(self.resource_capacities())?;
        // Every route of the run, interned once; the route cache, the
        // active and delayed sets and the solver all hold ids into it.
        let mut paths = PathTable::new();
        let mut route_cache = RouteCache::new(self.cfg.route_cache_cap);
        let mut overlay = FaultOverlay::new(self.topo);
        let fault_events = schedule.events();
        let mut fault_idx = 0usize;
        let mut fault_events_applied = 0u64;
        let mut skipped_flow_ids: Vec<u32> = Vec::new();

        // Per-flow state.
        let mut remaining: Vec<f64> = dag.flows().iter().map(|f| f.bytes as f64 * 8.0).collect();
        let mut indeg: Vec<u32> = (0..n)
            .map(|f| dag.preds(FlowId(f as u32)).len() as u32)
            .collect();
        let mut completion_times = if self.cfg.record_flow_times {
            vec![f64::NAN; n]
        } else {
            Vec::new()
        };
        let mut resource_bytes = if self.cfg.collect_link_stats {
            vec![0.0f64; self.num_links + 2 * self.num_eps]
        } else {
            Vec::new()
        };

        // Active set: parallel vectors of flow id, path (resource list) and
        // solver entry id (every swap_remove mirrors all of them).
        let mut active_ids: Vec<u32> = Vec::new();
        let mut active_paths: Vec<PathId> = Vec::new();
        let mut active_entries: Vec<u32> = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        let mut done_flags: Vec<bool> = Vec::new();
        // Flows waiting out their head latency.
        let mut delayed: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        let mut delayed_paths: IntMap<u32, PathId> = IntMap::default();

        let mut now = 0.0f64;
        let mut completed = 0usize;
        let mut events = 0u64;
        // Wall-clock deadline, armed once per run; checked (together with
        // the event budget) at every event boundary so a runaway cell
        // terminates with a typed error instead of hanging its worker.
        let wall_deadline = self.cfg.max_wall_s.map(|limit| (Instant::now(), limit));
        let mut scratch = RouteScratch::default();
        let latency_model = self.cfg.per_hop_latency_s > 0.0 || self.cfg.startup_latency_s > 0.0;

        let mut ready: Vec<u32> = (0..n as u32).filter(|&f| indeg[f as usize] == 0).collect();

        let tracing = self.cfg.trace || sink.is_some();
        let mut metrics = if tracing {
            Some(MetricsRegistry::new())
        } else {
            None
        };
        // Dense scratch of the traced utilisation probe: per-resource load,
        // all zero between probes, and the resources the current one hit.
        let mut probe_load = vec![0.0f64; if tracing { solver.num_resources() } else { 0 }];
        let mut probe_touched: Vec<u32> = Vec::new();

        // Count one event in the metrics registry (present iff tracing)
        // and, only when a sink listens, build it and hand it over: an
        // untraced run pays one predictable jump per site, a metrics-only
        // run one counter bump, and neither allocates an event payload.
        macro_rules! emit {
            ($counter:ident, $ev:expr) => {
                if let Some(m) = metrics.as_mut() {
                    m.$counter += 1;
                    if let Some(s) = sink.as_mut() {
                        s.record(&$ev);
                    }
                }
            };
        }

        // Retire flow `f` at the current time (delivered, degenerate, or
        // dropped): zero it, stamp its completion, release its dependents.
        macro_rules! retire {
            ($f:expr) => {{
                let f = $f as usize;
                remaining[f] = 0.0;
                if self.cfg.record_flow_times {
                    completion_times[f] = now;
                }
                completed += 1;
                let lo = succ_offsets[f] as usize;
                let hi = succ_offsets[f + 1] as usize;
                for &s in &succs[lo..hi] {
                    indeg[s as usize] -= 1;
                    if indeg[s as usize] == 0 {
                        ready.push(s);
                    }
                }
            }};
        }

        // Admit flow `f` with `path` into the active set, registering its
        // solver entry.
        macro_rules! admit {
            ($f:expr, $path:expr) => {{
                let f: u32 = $f;
                let path: PathId = $path;
                emit!(
                    flows_started,
                    TraceEvent::FlowStarted {
                        t: now,
                        flow: f,
                        path: paths.get(path).to_vec(),
                    }
                );
                active_entries.push(solver.insert_entry(&paths, path));
                active_ids.push(f);
                active_paths.push(path);
            }};
        }

        // Activation: instantly retire degenerate flows (zero bytes or
        // self-traffic) cascading; queue real flows into the active set or,
        // under the latency model, into the delayed heap.
        macro_rules! activate_ready {
            () => {
                while let Some(f) = ready.pop() {
                    let spec = dag.flow(FlowId(f));
                    emit!(
                        flows_activated,
                        TraceEvent::FlowActivated {
                            t: now,
                            flow: f,
                            src: spec.src,
                            dst: spec.dst,
                            bytes: spec.bytes,
                            preds: dag.preds(FlowId(f)).to_vec(),
                        }
                    );
                    if spec.bytes == 0 || spec.src == spec.dst {
                        emit!(flows_finished, TraceEvent::FlowFinished { t: now, flow: f });
                        retire!(f);
                        continue;
                    }
                    let path: PathId = match route_cache.get((spec.src, spec.dst)) {
                        Some(p) => p,
                        None => {
                            let built = self
                                .build_path(&mut overlay, spec.src, spec.dst, &mut scratch)
                                .map(|()| paths.intern(&scratch.route));
                            match built {
                                Ok(p) => {
                                    route_cache.insert((spec.src, spec.dst), p);
                                    p
                                }
                                // A flow activating toward a destination the
                                // current faults cut off is exactly what the skip
                                // policy drops — not only flows already in flight.
                                Err(SimError::Unreachable { .. })
                                    if matches!(policy, RecoveryPolicy::SkipUnreachable) =>
                                {
                                    emit!(
                                        flows_skipped,
                                        TraceEvent::FlowSkipped { t: now, flow: f }
                                    );
                                    retire!(f);
                                    skipped_flow_ids.push(f);
                                    continue;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                    };
                    if latency_model {
                        // Physical hops = path minus the two NIC resources.
                        let hops = paths.get(path).len().saturating_sub(2) as f64;
                        let at =
                            now + self.cfg.startup_latency_s + hops * self.cfg.per_hop_latency_s;
                        delayed.push(Reverse((Time(at), f)));
                        delayed_paths.insert(f, path);
                    } else {
                        admit!(f, path);
                    }
                }
            };
        }

        // Flows skipped while latency-delayed leave stale heap entries
        // behind (their `delayed_paths` entry is gone); drop those before
        // consulting the heap.
        macro_rules! purge_cancelled {
            () => {
                while let Some(Reverse((_, f))) = delayed.peek() {
                    if delayed_paths.contains_key(f) {
                        break;
                    }
                    delayed.pop();
                }
            };
        }

        // Apply every fault event due at (or before) the current time, then
        // hand each in-flight flow whose path crossed a newly-downed link to
        // the recovery policy. Link resources share ids with links, so a
        // resource path crosses link `l` iff it contains `l` directly.
        macro_rules! apply_due_faults {
            () => {{
                let mut downed: Vec<u32> = Vec::new();
                let mut restored = false;
                while fault_idx < fault_events.len() && fault_events[fault_idx].time_s <= now {
                    let ev = fault_events[fault_idx];
                    fault_idx += 1;
                    match ev.action {
                        FaultAction::Down => {
                            if overlay.fail_link(LinkId(ev.link)) {
                                fault_events_applied += 1;
                                emit!(
                                    faults_applied,
                                    TraceEvent::FaultApplied {
                                        t: now,
                                        link: ev.link,
                                    }
                                );
                                downed.push(ev.link);
                            }
                        }
                        FaultAction::Up => {
                            if overlay.restore_link(LinkId(ev.link)) {
                                fault_events_applied += 1;
                                emit!(
                                    faults_cleared,
                                    TraceEvent::FaultCleared {
                                        t: now,
                                        link: ev.link,
                                    }
                                );
                                restored = true;
                            }
                        }
                    }
                }
                if !downed.is_empty() {
                    route_cache.purge_crossing(&paths, &downed);
                }
                // Repair retention invariant: every cached path avoids all
                // currently-down links (down events purge the crossers,
                // inserts route around the live down-set), and a repair
                // only *shrinks* the down-set — so retained entries remain
                // valid routes. They may keep a detour where the repaired
                // link would now give a shorter path; flows on fresh pairs
                // route through the repaired link immediately. Clearing
                // here (the old behaviour) threw away every warm route on
                // each up-event in a long-running campaign.
                if restored || !downed.is_empty() {
                    // Fault churn perturbs the sharing graph beyond the
                    // entry-level diff (coalesced groups included): force
                    // the next recompute to cover every live entry.
                    solver.invalidate_all();
                }
                if !downed.is_empty() {
                    let crosses = |p: &[u32]| p.iter().find(|r| downed.contains(r)).copied();
                    // Active flows first, in deterministic index order...
                    let mut i = 0;
                    while i < active_ids.len() {
                        let f = active_ids[i];
                        let Some(link) = crosses(paths.get(active_paths[i])) else {
                            i += 1;
                            continue;
                        };
                        if matches!(policy, RecoveryPolicy::Abort) {
                            return Err(SimError::LinkLost {
                                time: now,
                                link,
                                flow: f,
                            });
                        }
                        let spec = dag.flow(FlowId(f));
                        match self.build_path(&mut overlay, spec.src, spec.dst, &mut scratch) {
                            Ok(()) => {
                                let p = paths.intern(&scratch.route);
                                emit!(
                                    reroutes,
                                    TraceEvent::RerouteTaken {
                                        t: now,
                                        flow: f,
                                        path: scratch.route.clone(),
                                        restarted: matches!(policy, RecoveryPolicy::RerouteRestart),
                                    }
                                );
                                solver.remove_entry(active_entries[i]);
                                active_entries[i] = solver.insert_entry(&paths, p);
                                active_paths[i] = p;
                                if matches!(policy, RecoveryPolicy::RerouteRestart) {
                                    // Retransmit from zero on the new path.
                                    remaining[f as usize] = spec.bytes as f64 * 8.0;
                                }
                                i += 1;
                            }
                            Err(e) => {
                                if matches!(policy, RecoveryPolicy::SkipUnreachable) {
                                    emit!(
                                        flows_skipped,
                                        TraceEvent::FlowSkipped { t: now, flow: f }
                                    );
                                    retire!(f);
                                    skipped_flow_ids.push(f);
                                    active_ids.swap_remove(i);
                                    active_paths.swap_remove(i);
                                    solver.remove_entry(active_entries[i]);
                                    active_entries.swap_remove(i);
                                    // `rates` is resized before the next solve.
                                } else {
                                    return Err(e);
                                }
                            }
                        }
                    }
                    // ...then flows still waiting out their head latency
                    // (sorted: HashMap order is not deterministic).
                    let mut waiting: Vec<u32> = delayed_paths.keys().copied().collect();
                    waiting.sort_unstable();
                    for f in waiting {
                        let Some(link) = crosses(paths.get(delayed_paths[&f])) else {
                            continue;
                        };
                        if matches!(policy, RecoveryPolicy::Abort) {
                            return Err(SimError::LinkLost {
                                time: now,
                                link,
                                flow: f,
                            });
                        }
                        let spec = dag.flow(FlowId(f));
                        match self.build_path(&mut overlay, spec.src, spec.dst, &mut scratch) {
                            Ok(()) => {
                                // Keep the original activation time: the head
                                // latency was committed when the flow was
                                // scheduled. Nothing transferred yet, so
                                // resume and restart coincide here.
                                emit!(
                                    reroutes,
                                    TraceEvent::RerouteTaken {
                                        t: now,
                                        flow: f,
                                        path: scratch.route.clone(),
                                        restarted: false,
                                    }
                                );
                                delayed_paths.insert(f, paths.intern(&scratch.route));
                            }
                            Err(e) => {
                                if matches!(policy, RecoveryPolicy::SkipUnreachable) {
                                    emit!(
                                        flows_skipped,
                                        TraceEvent::FlowSkipped { t: now, flow: f }
                                    );
                                    retire!(f);
                                    skipped_flow_ids.push(f);
                                    delayed_paths.remove(&f); // heap entry now stale
                                } else {
                                    return Err(e);
                                }
                            }
                        }
                    }
                }
            }};
        }

        if let Some(s) = sink.as_mut() {
            s.record(&TraceEvent::RunStarted {
                flows: n as u64,
                links: self.num_links as u64,
                endpoints: self.num_eps as u64,
                batch_epsilon: self.cfg.batch_epsilon,
                capacities_bps: self.resource_capacities(),
                topo_cache_hit: self.topo_cache_hit,
            });
        }

        apply_due_faults!(); // faults scheduled at t = 0 precede all routing
        activate_ready!();

        loop {
            // Fault events due at the current time fire before anything else.
            if fault_idx < fault_events.len() && fault_events[fault_idx].time_s <= now {
                apply_due_faults!();
                activate_ready!(); // skip-retirements may release dependents
            }

            if active_ids.is_empty() {
                // Nothing transferring: jump to the next delayed activation
                // or fault event, whichever comes first.
                purge_cancelled!();
                let t_act = match delayed.peek() {
                    None => break, // workload finished; later faults never fire
                    Some(Reverse((Time(t), _))) => *t,
                };
                if let Some(ev) = fault_events.get(fault_idx) {
                    if ev.time_s <= t_act {
                        now = now.max(ev.time_s);
                        continue; // the loop top applies the fault batch
                    }
                }
                let Reverse((Time(t), f)) = delayed.pop().expect("peeked entry");
                now = now.max(t);
                admit!(f, delayed_paths.remove(&f).expect("delayed path"));
                loop {
                    purge_cancelled!();
                    match delayed.peek() {
                        Some(Reverse((Time(t2), _))) if *t2 <= now => {
                            let Reverse((_, f2)) = delayed.pop().expect("peeked entry");
                            admit!(f2, delayed_paths.remove(&f2).expect("delayed path"));
                        }
                        _ => break,
                    }
                }
                continue;
            }

            // Cooperative cancellation: both limits are checked at the event
            // boundary, after `events` boundaries have been fully processed
            // and before the next solve starts, so a cut run is a prefix of
            // the uninterrupted one. The budget check is deterministic (the
            // event sequence is); the deadline is host-speed dependent.
            if let Some(max) = self.cfg.max_events {
                if events >= max {
                    emit!(
                        budget_exhausted,
                        TraceEvent::BudgetExhausted { t: now, events }
                    );
                    return Err(SimError::BudgetExhausted {
                        max_events: max,
                        events,
                        time: now,
                        delivered_bytes: bytes_accounted(dag, &remaining),
                        flows_completed: completed as u64,
                    });
                }
            }
            if let Some((start, limit)) = wall_deadline {
                if start.elapsed().as_secs_f64() >= limit {
                    emit!(
                        deadline_exceeded,
                        TraceEvent::DeadlineExceeded { t: now, events }
                    );
                    return Err(SimError::DeadlineExceeded {
                        wall_limit_s: limit,
                        events,
                        time: now,
                        delivered_bytes: bytes_accounted(dag, &remaining),
                        flows_completed: completed as u64,
                    });
                }
            }

            events += 1;
            rates.resize(active_ids.len(), 0.0);
            let solve_start = if tracing { Some(Instant::now()) } else { None };
            solver.recompute(&paths, FULL_PASS_THRESHOLD);
            for (rate, &e) in rates.iter_mut().zip(&active_entries) {
                *rate = solver.entry_rate(e);
            }
            if let Some(m) = metrics.as_mut() {
                let elapsed = solve_start.expect("set when tracing").elapsed();
                m.record_solve(elapsed.as_secs_f64(), active_ids.len());
                // Post-recompute utilisation probe: the most loaded
                // resource relative to its capacity. Per-resource sums
                // accumulate in active-index order; a resource listed
                // twice (its load was still 0.0 at a later visit) is
                // drained by its first occurrence and contributes 0
                // afterwards.
                for (&path, &rate) in active_paths.iter().zip(&rates) {
                    for &r in paths.get(path) {
                        if probe_load[r as usize] == 0.0 {
                            probe_touched.push(r);
                        }
                        probe_load[r as usize] += rate;
                    }
                }
                let mut peak = 0.0f64;
                for r in probe_touched.drain(..) {
                    let load = std::mem::take(&mut probe_load[r as usize]);
                    peak = peak.max(load / solver.capacity(r));
                }
                m.record_utilization(peak);
                m.rate_recomputes += 1;
                m.full_passes += solver.last_pass_full as u64;
                if let Some(s) = sink.as_mut() {
                    s.record(&TraceEvent::RateRecompute {
                        t: now,
                        flows: active_ids.clone(),
                        rates_bps: rates.clone(),
                        entries_solved: solver.last_pass_entries,
                        full_pass: solver.last_pass_full,
                    });
                }
            }

            // Earliest completion among active flows.
            let mut dt = f64::INFINITY;
            for (i, &f) in active_ids.iter().enumerate() {
                let t = remaining[f as usize] / rates[i];
                if t < dt {
                    dt = t;
                }
            }
            if !dt.is_finite() {
                return Err(self.stall_error(
                    now,
                    &active_ids,
                    &active_paths,
                    &paths,
                    &rates,
                    &solver,
                ));
            }

            // A fault or a delayed activation may precede the earliest
            // completion; a fault at the same instant as an activation fires
            // first, so the activating flow routes around it.
            purge_cancelled!();
            let t_act = delayed.peek().map(|Reverse((Time(t), _))| *t);
            if let Some(ev) = fault_events.get(fault_idx) {
                let before_act = match t_act {
                    Some(ta) => ev.time_s <= ta,
                    None => true,
                };
                if ev.time_s < now + dt && before_act {
                    let step = ev.time_s - now;
                    Self::advance(
                        step,
                        &active_ids,
                        &active_paths,
                        &paths,
                        &rates,
                        &mut remaining,
                        &mut resource_bytes,
                    );
                    now = ev.time_s;
                    continue; // the loop top applies the fault batch
                }
            }
            if let Some(t_act) = t_act {
                if t_act < now + dt {
                    let step = t_act - now;
                    Self::advance(
                        step,
                        &active_ids,
                        &active_paths,
                        &paths,
                        &rates,
                        &mut remaining,
                        &mut resource_bytes,
                    );
                    now = t_act;
                    loop {
                        purge_cancelled!();
                        match delayed.peek() {
                            Some(Reverse((Time(t2), _))) if *t2 <= now => {
                                let Reverse((_, f2)) = delayed.pop().expect("peeked entry");
                                admit!(f2, delayed_paths.remove(&f2).expect("delayed path"));
                            }
                            _ => break,
                        }
                    }
                    continue;
                }
            }

            let cutoff = dt * (1.0 + self.cfg.batch_epsilon);
            // Identify the completion batch *before* advancing, then advance.
            done_flags.clear();
            done_flags.extend(
                active_ids
                    .iter()
                    .zip(&rates)
                    .map(|(&f, &rate)| remaining[f as usize] / rate <= cutoff),
            );
            Self::advance(
                dt,
                &active_ids,
                &active_paths,
                &paths,
                &rates,
                &mut remaining,
                &mut resource_bytes,
            );
            now += dt;

            // Retire the completion batch (swap-remove).
            let mut i = 0;
            while i < active_ids.len() {
                if done_flags[i] {
                    emit!(
                        flows_finished,
                        TraceEvent::FlowFinished {
                            t: now,
                            flow: active_ids[i],
                        }
                    );
                    retire!(active_ids[i]);
                    active_ids.swap_remove(i);
                    active_paths.swap_remove(i);
                    rates.swap_remove(i);
                    done_flags.swap_remove(i);
                    solver.remove_entry(active_entries[i]);
                    active_entries.swap_remove(i);
                } else {
                    i += 1;
                }
            }

            activate_ready!();
        }

        // Internal invariant, not an input error: the builder guarantees
        // acyclicity, so an incomplete run is an engine bug.
        assert_eq!(
            completed, n,
            "simulation ended with {completed} of {n} flows incomplete (cyclic deps?)"
        );

        Ok(SimReport {
            makespan_seconds: now,
            flows: n as u64,
            events,
            maxmin_iterations: solver.iterations,
            completion_times: if self.cfg.record_flow_times {
                Some(completion_times)
            } else {
                None
            },
            resource_bytes: if self.cfg.collect_link_stats {
                Some(resource_bytes)
            } else {
                None
            },
            num_links: self.num_links as u64,
            num_endpoints: self.num_eps as u64,
            skipped_flows: skipped_flow_ids.len() as u64,
            skipped_flow_ids,
            fault_events_applied,
            rate_recomputes: solver.rate_recomputes,
            flows_coalesced: solver.flows_coalesced,
            route_cache_hits: route_cache.hits,
            route_cache_evictions: route_cache.evictions,
            metrics: metrics.map(|m| {
                let mut snap = m.snapshot();
                snap.topo_cache_hit = self.topo_cache_hit as u64;
                snap
            }),
        })
    }

    /// Diagnose a stalled rate allocation: name the zero-rate flows and the
    /// suspected bottleneck (smallest-capacity resource on the first
    /// stalled flow's path) so a bulk-sweep entry is debuggable without a
    /// rerun.
    fn stall_error(
        &self,
        now: f64,
        active_ids: &[u32],
        active_paths: &[PathId],
        paths: &PathTable,
        rates: &[f64],
        solver: &MaxMinSolver,
    ) -> SimError {
        const MAX_REPORTED: usize = 8;
        let mut stalled = Vec::new();
        let mut resource = None;
        for (i, &f) in active_ids.iter().enumerate() {
            if rates[i] > 0.0 {
                continue;
            }
            if resource.is_none() {
                resource = paths.get(active_paths[i]).iter().copied().min_by(|&a, &b| {
                    solver
                        .capacity(a)
                        .partial_cmp(&solver.capacity(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
            if stalled.len() < MAX_REPORTED {
                stalled.push(f);
            }
        }
        SimError::Stalled {
            time: now,
            flows: stalled,
            resource,
        }
    }

    /// Advance every active flow by `dt` seconds, accounting bytes into
    /// `resource_bytes` when it is sized (link statistics enabled).
    fn advance(
        dt: f64,
        active_ids: &[u32],
        active_paths: &[PathId],
        paths: &PathTable,
        rates: &[f64],
        remaining: &mut [f64],
        resource_bytes: &mut [f64],
    ) {
        if dt <= 0.0 {
            return;
        }
        for (i, &f) in active_ids.iter().enumerate() {
            remaining[f as usize] -= rates[i] * dt;
            if !resource_bytes.is_empty() {
                let bytes = rates[i] * dt / 8.0;
                for &r in paths.get(active_paths[i]) {
                    resource_bytes[r as usize] += bytes;
                }
            }
        }
    }

    /// Write the resource path of a flow into `scratch.route`: injection
    /// resource, physical route links, ejection resource. Routing goes
    /// through the fault overlay so mid-run link failures are avoided; with
    /// no dynamic failures the overlay defers to the topology's own
    /// deterministic route. An unreachable destination (failed links
    /// partitioning the network) is a typed error, not a panic.
    ///
    /// The caller interns the route into the run's [`PathTable`].
    fn build_path(
        &self,
        overlay: &mut FaultOverlay,
        src: u32,
        dst: u32,
        scratch: &mut RouteScratch,
    ) -> Result<(), SimError> {
        let RouteScratch { links, route } = scratch;
        links.clear();
        overlay
            .try_route(NodeId(src), NodeId(dst), links)
            .map_err(|e| SimError::Unreachable {
                src,
                dst,
                topology: e.topology,
                failed_links: e.failed_links as u64,
            })?;
        route.clear();
        route.push(self.injection_resource(src));
        route.extend(links.iter().map(|l| l.0));
        route.push(self.ejection_resource(dst));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::FlowDagBuilder;
    use exaflow_topo::{KAryTree, Torus};

    const GBPS: f64 = 1e9;

    fn mb(n: u64) -> u64 {
        n * 1_000_000
    }

    /// Time to push `bytes` through `bps`.
    fn xfer(bytes: u64, bps: f64) -> f64 {
        bytes as f64 * 8.0 / bps
    }

    #[test]
    fn single_flow_wire_time() {
        let topo = Torus::new(&[4]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let r = sim.run(&b.build()).unwrap();
        assert!((r.makespan_seconds - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12);
        assert_eq!(r.flows, 1);
        assert_eq!(r.events, 1);
    }

    #[test]
    fn two_flows_same_link_halve() {
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let r = sim.run(&b.build()).unwrap();
        assert!((r.makespan_seconds - 2.0 * xfer(mb(1), 10.0 * GBPS)).abs() < 1e-9);
        assert_eq!(r.events, 1);
    }

    #[test]
    fn opposite_directions_do_not_share() {
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        b.add_flow(NodeId(1), NodeId(0), mb(1), &[]);
        let r = sim.run(&b.build()).unwrap();
        assert!((r.makespan_seconds - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12);
    }

    #[test]
    fn dependency_chain_serialises() {
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let c = b.add_flow(NodeId(1), NodeId(2), mb(1), &[a]);
        b.add_flow(NodeId(2), NodeId(3), mb(1), &[c]);
        let r = sim.run(&b.build()).unwrap();
        assert!((r.makespan_seconds - 3.0 * xfer(mb(1), 10.0 * GBPS)).abs() < 1e-9);
        assert_eq!(r.events, 3);
    }

    #[test]
    fn reduce_bottlenecked_by_ejection_port() {
        // The paper's explanation of the Reduce collective: all flows
        // serialise at the root's consumption port regardless of topology.
        let torus = Torus::new(&[4, 4]);
        let tree = KAryTree::new(4, 2);
        for topo in [&torus as &dyn Topology, &tree as &dyn Topology] {
            let sim = Simulator::new(topo);
            let mut b = FlowDagBuilder::new();
            for s in 1..16u32 {
                b.add_flow(NodeId(s), NodeId(0), mb(1), &[]);
            }
            let r = sim.run(&b.build()).unwrap();
            let expect = xfer(mb(15), 10.0 * GBPS);
            assert!(
                (r.makespan_seconds - expect).abs() / expect < 1e-6,
                "{}: {} vs {expect}",
                topo.name(),
                r.makespan_seconds
            );
        }
    }

    #[test]
    fn zero_byte_flows_instant() {
        let topo = Torus::new(&[4]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(1), 0, &[]);
        let c = b.add_barrier(&[a]);
        b.add_flow(NodeId(2), NodeId(2), mb(5), &[c]); // self traffic: instant
        let r = sim.run(&b.build()).unwrap();
        assert_eq!(r.makespan_seconds, 0.0);
        assert_eq!(r.events, 0);
    }

    #[test]
    fn empty_dag_runs() {
        let topo = Torus::new(&[4]);
        let sim = Simulator::new(&topo);
        let r = sim.run(&FlowDagBuilder::new().build()).unwrap();
        assert_eq!(r.makespan_seconds, 0.0);
        assert_eq!(r.flows, 0);
    }

    #[test]
    fn completion_times_recorded() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            record_flow_times: true,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let c = b.add_flow(NodeId(1), NodeId(2), mb(2), &[a]);
        let r = sim.run(&b.build()).unwrap();
        let times = r.completion_times.as_ref().unwrap();
        let step = xfer(mb(1), 10.0 * GBPS);
        assert!((times[a.index()] - step).abs() < 1e-12);
        assert!((times[c.index()] - 3.0 * step).abs() < 1e-9);
    }

    #[test]
    fn max_min_beats_naive_serialisation() {
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        for i in 0..4u32 {
            b.add_flow(NodeId(2 * i), NodeId(2 * i + 1), mb(1), &[]);
        }
        let r = sim.run(&b.build()).unwrap();
        assert!((r.makespan_seconds - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_endpoint_is_typed_error() {
        let topo = Torus::new(&[4]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(99), 1, &[]);
        let err = sim.run(&b.build()).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::EndpointOutOfRange {
                    endpoint: 99,
                    num_endpoints: 4
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn nan_latency_is_invalid_config() {
        let topo = Torus::new(&[4]);
        let cfg = SimConfig {
            per_hop_latency_s: f64::NAN,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let err = sim.run(&b.build()).unwrap_err();
        match err {
            SimError::InvalidConfig { field, value, .. } => {
                assert_eq!(field, "per_hop_latency_s");
                assert_eq!(value, "NaN");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_injection_rate_is_invalid_config_not_stall() {
        // This used to stall the engine (all rates zero) and die on an
        // assert; it must now be rejected up front with the field named.
        let topo = Torus::new(&[4]);
        let cfg = SimConfig {
            injection_bps: 0.0,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let err = sim.run(&b.build()).unwrap_err();
        match err {
            SimError::InvalidConfig { field, .. } => assert_eq!(field, "injection_bps"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// Three independent flows with distinct sizes: three separate
    /// completion events, so a budget of 1 cuts after the first.
    fn staggered_dag() -> FlowDag {
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        b.add_flow(NodeId(2), NodeId(3), mb(2), &[]);
        b.add_flow(NodeId(4), NodeId(5), mb(3), &[]);
        b.build()
    }

    #[test]
    fn event_budget_trips_deterministically_with_progress() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            max_events: Some(1),
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let run = || sim.run(&staggered_dag()).unwrap_err();
        let err = run();
        match &err {
            SimError::BudgetExhausted {
                max_events,
                events,
                time,
                delivered_bytes,
                flows_completed,
            } => {
                assert_eq!(*max_events, 1);
                assert_eq!(*events, 1);
                // The first event retires the smallest flow; the others
                // made equal progress on their disjoint paths.
                assert_eq!(*flows_completed, 1);
                assert!(*time > 0.0);
                assert!(*delivered_bytes >= mb(1));
                assert!(*delivered_bytes < mb(6));
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // Deterministic: the same config cuts at exactly the same point.
        assert_eq!(run(), err);
        // A sufficient budget completes normally.
        let roomy = Simulator::with_config(
            &topo,
            SimConfig {
                max_events: Some(1000),
                ..SimConfig::default()
            },
        );
        assert!(roomy.run(&staggered_dag()).is_ok());
    }

    #[test]
    fn zero_event_budget_stops_before_any_work() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            max_events: Some(0),
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        match sim.run(&staggered_dag()).unwrap_err() {
            SimError::BudgetExhausted {
                events,
                time,
                flows_completed,
                delivered_bytes,
                ..
            } => {
                assert_eq!(events, 0);
                assert_eq!(time, 0.0);
                assert_eq!(flows_completed, 0);
                assert_eq!(delivered_bytes, 0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn wall_deadline_surfaces_as_typed_error() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            // Far below the granularity of any host clock: the first
            // event-boundary check always trips.
            max_wall_s: Some(1e-12),
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        match sim.run(&staggered_dag()).unwrap_err() {
            SimError::DeadlineExceeded {
                wall_limit_s,
                events,
                flows_completed,
                ..
            } => {
                assert_eq!(wall_limit_s, 1e-12);
                assert_eq!(events, 0);
                assert_eq!(flows_completed, 0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_cut_trace_ends_terminal_and_passes_the_oracle() {
        use crate::trace::VecSink;
        use crate::trace_check::check_trace;
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            max_events: Some(1),
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut sink = VecSink::new();
        let err = sim
            .run_with(
                &staggered_dag(),
                &FaultSchedule::empty(),
                RecoveryPolicy::default(),
                Some(&mut sink),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::BudgetExhausted { .. }));
        let events = sink.into_events();
        assert!(
            matches!(events.last(), Some(TraceEvent::BudgetExhausted { .. })),
            "trace must end with the terminal cut event"
        );
        let summary = check_trace(&events).unwrap();
        assert!(summary.terminated);
        assert_eq!(summary.flows_finished, 1);
    }

    #[test]
    fn invalid_max_wall_s_is_invalid_config() {
        let topo = Torus::new(&[4]);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig {
                max_wall_s: Some(bad),
                ..SimConfig::default()
            };
            let sim = Simulator::with_config(&topo, cfg);
            let mut b = FlowDagBuilder::new();
            b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
            match sim.run(&b.build()).unwrap_err() {
                SimError::InvalidConfig { field, .. } => assert_eq!(field, "max_wall_s"),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn unset_limits_stay_out_of_serialized_config() {
        // `None` limits must not appear in JSON: pinned golden outputs
        // (scripts/golden_run_expected.json) predate these fields.
        let json = serde_json::to_string(&SimConfig::default()).unwrap();
        assert!(!json.contains("max_events"), "{json}");
        assert!(!json.contains("max_wall_s"), "{json}");
        let cfg = SimConfig {
            max_events: Some(42),
            max_wall_s: Some(1.5),
            ..SimConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn negative_rate_rejected_at_deserialization() {
        let json = r#"{
            "injection_bps": -1.0,
            "ejection_bps": 1e10,
            "batch_epsilon": 1e-9,
            "record_flow_times": false,
            "route_cache_cap": 1024
        }"#;
        let err = serde_json::from_str::<SimConfig>(json).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("injection_bps"), "{msg}");
    }

    /// Config files written before the engine had one mode still carry its
    /// four mode keys. They are ignored like any unknown key, whatever
    /// their values: the config and the report match the same file
    /// without them. So is a thread count from the days of the in-run
    /// pool: it loads into the inert `solver_threads` and moves nothing.
    #[test]
    fn old_configs_with_the_deleted_mode_keys_still_load() {
        let base = r#""injection_bps": 1e10, "ejection_bps": 1e10, "batch_epsilon": 1e-9,
            "record_flow_times": true, "route_cache_cap": 1024"#;
        let old = format!(
            r#"{{{base}, "cache_routes": false, "solver_incremental": false,
                "coalesce_flows": false, "incremental_full_threshold": 0.0,
                "solver_threads": 8}}"#
        );
        let old: SimConfig = serde_json::from_str(&old).unwrap();
        let new: SimConfig = serde_json::from_str(&format!("{{{base}}}")).unwrap();
        assert_eq!(old.solver_threads, 8);
        assert_eq!(
            SimConfig {
                solver_threads: 0,
                ..old.clone()
            },
            new
        );
        let topo = Torus::new(&[4, 4]);
        let mut b = FlowDagBuilder::new();
        for i in 0..16u32 {
            b.add_flow(NodeId(i), NodeId((i + 5) % 16), mb(1) + i as u64, &[]);
        }
        let dag = b.build();
        let report = |cfg: SimConfig| {
            let r = Simulator::with_config(&topo, cfg).run(&dag).unwrap();
            serde_json::to_string(&r).unwrap()
        };
        assert_eq!(report(old), report(new));
    }

    #[test]
    fn partition_is_unreachable_error_not_panic() {
        use exaflow_topo::Degraded;
        // Ring 0-1-2-3; failing both directions of cables (0,1) and (2,3)
        // splits {0,3} from {1,2}, so 0 -> 1 cannot route.
        let base = Torus::new(&[4]);
        let mut cut = Vec::new();
        let net = base.network();
        for (a, b) in [(0u32, 1u32), (2, 3)] {
            cut.push(net.find_physical_link(NodeId(a), NodeId(b)).unwrap());
            cut.push(net.find_physical_link(NodeId(b), NodeId(a)).unwrap());
        }
        let degraded = Degraded::new(base, cut);
        let sim = Simulator::new(&degraded);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let err = sim.run(&b.build()).unwrap_err();
        match err {
            SimError::Unreachable {
                src,
                dst,
                failed_links,
                ..
            } => {
                assert_eq!((src, dst), (0, 1));
                assert_eq!(failed_links, 4);
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    #[test]
    fn route_cache_does_not_change_results() {
        let topo = Torus::new(&[4, 4]);
        let mut dagb = FlowDagBuilder::new();
        let mut prev: Vec<crate::FlowId> = vec![];
        for _round in 0..3 {
            let mut cur = vec![];
            for i in 0..8u32 {
                let deps: Vec<_> = prev.clone();
                cur.push(dagb.add_flow(NodeId(i), NodeId((i + 5) % 16), mb(1), &deps));
            }
            prev = cur;
        }
        let dag = dagb.build();
        let run = |route_cache_cap: usize| {
            let cfg = SimConfig {
                route_cache_cap,
                ..SimConfig::default()
            };
            Simulator::with_config(&topo, cfg)
                .run(&dag)
                .unwrap()
                .makespan_seconds
        };
        assert_eq!(run(SimConfig::default().route_cache_cap), run(0));
    }

    /// Regression: the cache used to silently refuse inserts once full, so
    /// a workload with more distinct pairs than `route_cache_cap` degraded
    /// to a zero hit rate for every pair admitted after the cap. The
    /// generational cache keeps the most recent pairs hot and reports the
    /// churn.
    #[test]
    fn route_cache_keeps_hitting_beyond_its_cap() {
        let topo = Torus::new(&[4, 4]);
        let mut b = FlowDagBuilder::new();
        // Round 1: eight distinct pairs, double the cap of 4. The ready
        // stack admits a batch highest-flow-first, so flows 0 and 1 carry
        // the freshest generation's pairs.
        let mut round1 = vec![];
        for i in 0..8u32 {
            round1.push(b.add_flow(NodeId(i), NodeId((i + 5) % 16), mb(1), &[]));
        }
        // Round 2: re-request the two freshest pairs. With the old
        // stop-inserting cache these were never stored and always missed.
        b.add_flow(NodeId(0), NodeId(5), mb(1), &round1);
        b.add_flow(NodeId(1), NodeId(6), mb(1), &round1);
        let dag = b.build();
        let cfg = SimConfig {
            route_cache_cap: 4,
            ..SimConfig::default()
        };
        let r = Simulator::with_config(&topo, cfg).run(&dag).unwrap();
        // half_cap = 2: inserts 0..8 rotate three times, the last two
        // rotations each retiring a full stale generation of 2.
        assert_eq!(r.route_cache_evictions, 4);
        assert_eq!(r.route_cache_hits, 2);

        // Capacity pressure must never change physics.
        let unbounded = Simulator::with_config(&topo, SimConfig::default())
            .run(&dag)
            .unwrap();
        assert_eq!(r.makespan_seconds, unbounded.makespan_seconds);
        assert_eq!(unbounded.route_cache_evictions, 0);
    }

    /// Regression: link repair used to clear the whole route cache, while
    /// link-down purged surgically. Invariant now: every cached path avoids
    /// every currently-down link, and repair only shrinks the down-set, so
    /// repair retains the cache verbatim. Retained detours stay in use for
    /// cached pairs (documented as possibly suboptimal); fresh pairs route
    /// through the repaired link immediately.
    #[test]
    fn link_repair_retains_cached_detours() {
        let topo = Torus::new(&[4]);
        // Per-hop latency makes path length observable in the makespan.
        let cfg = |route_cache_cap: usize| SimConfig {
            per_hop_latency_s: 1e-6,
            route_cache_cap,
            ..SimConfig::default()
        };
        // A fills time; B (0 -> 1) activates during the outage and caches
        // the 3-hop detour 0-3-2-1; C (0 -> 1) activates after the repair.
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(2), NodeId(3), mb(1), &[]);
        let bf = b.add_flow(NodeId(0), NodeId(1), mb(1), &[a]);
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[bf]);
        let dag = b.build();
        let step = xfer(mb(1), 10.0 * GBPS);
        let mut events = cable_events(topo.network(), 0.0, 0, 1, FaultAction::Down);
        events.extend(cable_events(
            topo.network(),
            1.5 * step,
            0,
            1,
            FaultAction::Up,
        ));
        let schedule = FaultSchedule::new(events).unwrap();

        let cached = Simulator::with_config(&topo, cfg(SimConfig::default().route_cache_cap))
            .run_with(&dag, &schedule, RecoveryPolicy::RerouteResume, None)
            .unwrap();
        // C hits B's retained detour — the only cache hit in the run.
        assert_eq!(cached.route_cache_hits, 1);
        assert_eq!(cached.fault_events_applied, 4);

        let uncached = Simulator::with_config(&topo, cfg(0))
            .run_with(&dag, &schedule, RecoveryPolicy::RerouteResume, None)
            .unwrap();
        assert_eq!(uncached.route_cache_hits, 0);
        // Same transfers; C pays 3 hops of head latency on the retained
        // detour vs 1 hop on the repaired direct route: +2 µs exactly.
        let delta = cached.makespan_seconds - uncached.makespan_seconds;
        assert!(
            (delta - 2e-6).abs() < 1e-12,
            "cached {} vs uncached {}",
            cached.makespan_seconds,
            uncached.makespan_seconds
        );
    }

    #[test]
    fn larger_batch_epsilon_reduces_events() {
        let topo = Torus::new(&[16]);
        let mut b = FlowDagBuilder::new();
        for i in 0..8u32 {
            b.add_flow(NodeId(i), NodeId(i + 8), mb(100) + i as u64, &[]);
        }
        let dag = b.build();
        let run = |eps: f64| {
            let cfg = SimConfig {
                batch_epsilon: eps,
                ..SimConfig::default()
            };
            Simulator::with_config(&topo, cfg).run(&dag).unwrap().events
        };
        assert!(run(1e-3) < run(1e-12));
    }

    #[test]
    fn per_hop_latency_adds_head_time() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            per_hop_latency_s: 1e-6,
            startup_latency_s: 5e-6,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        // 0 -> 2 is two hops.
        b.add_flow(NodeId(0), NodeId(2), mb(1), &[]);
        let r = sim.run(&b.build()).unwrap();
        let expect = 5e-6 + 2.0 * 1e-6 + xfer(mb(1), 10.0 * GBPS);
        assert!(
            (r.makespan_seconds - expect).abs() < 1e-12,
            "{} vs {expect}",
            r.makespan_seconds
        );
    }

    #[test]
    fn latency_staggers_contending_flows() {
        // Two flows share the destination but start at different times due
        // to different path lengths; both must still finish correctly.
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            per_hop_latency_s: 1e-3, // exaggerated: comparable to wire time
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]); // 1 hop: starts at 1ms
        b.add_flow(NodeId(7), NodeId(1), mb(1), &[]); // 2 hops: starts at 2ms
        let r = sim.run(&b.build()).unwrap();
        assert!(r.makespan_seconds > 2e-3);
        assert!(r.makespan_seconds < 4.5e-3);
        assert_eq!(r.flows, 2);
    }

    #[test]
    fn latency_respects_dependencies() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            startup_latency_s: 1e-3,
            record_flow_times: true,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let c = b.add_flow(NodeId(1), NodeId(2), mb(1), &[a]);
        let r = sim.run(&b.build()).unwrap();
        let times = r.completion_times.unwrap();
        let step = 1e-3 + xfer(mb(1), 10.0 * GBPS);
        assert!((times[a.index()] - step).abs() < 1e-9);
        assert!((times[c.index()] - 2.0 * step).abs() < 1e-9);
    }

    #[test]
    fn link_stats_conserve_bytes() {
        let topo = Torus::new(&[8]);
        let cfg = SimConfig {
            collect_link_stats: true,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(2), mb(1), &[]); // 2 hops + inj + ej
        b.add_flow(NodeId(4), NodeId(5), mb(2), &[]); // 1 hop + inj + ej
        let r = sim.run(&b.build()).unwrap();
        let bytes = r.resource_bytes.as_ref().unwrap();
        let total: f64 = bytes.iter().sum();
        // Flow 1 crosses 4 resources with 1 MB, flow 2 crosses 3 with 2 MB.
        let expect = (4 * mb(1) + 3 * mb(2)) as f64;
        assert!(
            (total - expect).abs() / expect < 1e-9,
            "{total} vs {expect}"
        );
        // The busiest physical link carried 2 MB.
        let hottest = r.hottest_links(1);
        assert_eq!(hottest.len(), 1);
        assert!((hottest[0].1 - mb(2) as f64).abs() < 1.0);
    }

    // ---- fault injection ----

    use crate::fault::FaultEvent;

    /// Down (or up) both directions of the physical cable `a <-> b` at `t`.
    fn cable_events(
        net: &exaflow_netgraph::Network,
        t: f64,
        a: u32,
        b: u32,
        action: FaultAction,
    ) -> Vec<FaultEvent> {
        [(a, b), (b, a)]
            .iter()
            .map(|&(s, d)| FaultEvent {
                time_s: t,
                link: net.find_physical_link(NodeId(s), NodeId(d)).unwrap().0,
                action,
            })
            .collect()
    }

    #[test]
    fn empty_schedule_reproduces_fault_free_run_exactly() {
        let topo = Torus::new(&[4, 4]);
        let cfg = SimConfig {
            record_flow_times: true,
            collect_link_stats: true,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        let mut prev = vec![];
        for round in 0..3u64 {
            let mut cur = vec![];
            for i in 0..8u32 {
                cur.push(b.add_flow(NodeId(i), NodeId((i + 5) % 16), mb(1) + round, &prev));
            }
            prev = cur;
        }
        let dag = b.build();
        let plain = sim.run(&dag).unwrap();
        for policy in RecoveryPolicy::ALL {
            let faulted = sim
                .run_with(&dag, &FaultSchedule::empty(), policy, None)
                .unwrap();
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&faulted).unwrap(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn resume_keeps_transferred_bytes_restart_does_not() {
        // 0 -> 2 on a ring of 8 takes 0.8 ms at 10 Gbps. Cutting the first
        // hop halfway through forces a detour the long way round; with no
        // contention the rate is unchanged, so resume still finishes at
        // 0.8 ms while restart pays the first 0.4 ms again.
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(2), mb(1), &[]);
        let dag = b.build();
        let t_cut = 0.5 * xfer(mb(1), 10.0 * GBPS);
        let schedule =
            FaultSchedule::new(cable_events(topo.network(), t_cut, 0, 1, FaultAction::Down))
                .unwrap();

        let resume = sim
            .run_with(&dag, &schedule, RecoveryPolicy::RerouteResume, None)
            .unwrap();
        assert!(
            (resume.makespan_seconds - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12,
            "{}",
            resume.makespan_seconds
        );
        assert_eq!(resume.fault_events_applied, 2);
        assert_eq!(resume.skipped_flows, 0);

        let restart = sim
            .run_with(&dag, &schedule, RecoveryPolicy::RerouteRestart, None)
            .unwrap();
        assert!(
            (restart.makespan_seconds - 1.5 * xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12,
            "{}",
            restart.makespan_seconds
        );
    }

    #[test]
    fn abort_policy_is_typed_link_lost_error() {
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(2), mb(1), &[]);
        let t_cut = 0.5 * xfer(mb(1), 10.0 * GBPS);
        let schedule =
            FaultSchedule::new(cable_events(topo.network(), t_cut, 0, 1, FaultAction::Down))
                .unwrap();
        let err = sim
            .run_with(&b.build(), &schedule, RecoveryPolicy::Abort, None)
            .unwrap_err();
        match err {
            SimError::LinkLost { time, flow, .. } => {
                assert!((time - t_cut).abs() < 1e-15);
                assert_eq!(flow, 0);
            }
            other => panic!("expected LinkLost, got {other:?}"),
        }
    }

    #[test]
    fn skip_policy_drops_unreachable_flow_and_finishes_the_rest() {
        // Ring 0-1-2-3: cutting cables (0,1) and (2,3) mid-run splits
        // {0,3} from {1,2}. Flow 0 -> 1 becomes unreachable and is dropped;
        // flow 3 -> 0 rides the surviving cable to completion.
        let topo = Torus::new(&[4]);
        let sim = Simulator::with_config(
            &topo,
            SimConfig {
                record_flow_times: true,
                ..SimConfig::default()
            },
        );
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        b.add_flow(NodeId(3), NodeId(0), mb(1), &[]);
        let dag = b.build();
        let t_cut = 0.5 * xfer(mb(1), 10.0 * GBPS);
        let mut events = cable_events(topo.network(), t_cut, 0, 1, FaultAction::Down);
        events.extend(cable_events(topo.network(), t_cut, 2, 3, FaultAction::Down));
        let schedule = FaultSchedule::new(events).unwrap();

        let r = sim
            .run_with(&dag, &schedule, RecoveryPolicy::SkipUnreachable, None)
            .unwrap();
        assert_eq!(r.skipped_flows, 1);
        assert_eq!(r.skipped_flow_ids, vec![0]);
        assert_eq!(r.delivered_flows(), 1);
        let times = r.completion_times.as_ref().unwrap();
        assert!((times[0] - t_cut).abs() < 1e-15, "drop time recorded");
        assert!((times[1] - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12);

        // The same partition under resume is a typed unreachable error.
        let err = sim
            .run_with(&dag, &schedule, RecoveryPolicy::RerouteResume, None)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Unreachable { src: 0, dst: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn skip_policy_drops_flows_that_activate_into_a_partition() {
        // Ring 0-1-2-3. Flow 0 (0 -> 1) is in flight when cables (2,3) and
        // (3,0) die, isolating node 3 without touching flow 0's path. Flow 1
        // (0 -> 3) only activates once flow 0 completes — straight into the
        // partition. The skip policy must drop it at activation time, not
        // surface a typed error reserved for the other policies.
        let topo = Torus::new(&[4]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        let first = b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        b.add_flow(NodeId(0), NodeId(3), mb(1), &[first]);
        let dag = b.build();
        let t_cut = 0.5 * xfer(mb(1), 10.0 * GBPS);
        let mut events = cable_events(topo.network(), t_cut, 2, 3, FaultAction::Down);
        events.extend(cable_events(topo.network(), t_cut, 3, 0, FaultAction::Down));
        let schedule = FaultSchedule::new(events).unwrap();

        let r = sim
            .run_with(&dag, &schedule, RecoveryPolicy::SkipUnreachable, None)
            .unwrap();
        assert_eq!(r.skipped_flows, 1);
        assert_eq!(r.skipped_flow_ids, vec![1]);
        assert_eq!(r.delivered_flows(), 1);
        // Makespan is flow 0's completion: the dropped dependent adds nothing.
        assert!((r.makespan_seconds - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12);

        // Resume and restart hit the partition at activation: typed error.
        for policy in [
            RecoveryPolicy::RerouteResume,
            RecoveryPolicy::RerouteRestart,
        ] {
            let err = sim.run_with(&dag, &schedule, policy, None).unwrap_err();
            assert!(
                matches!(err, SimError::Unreachable { src: 0, dst: 3, .. }),
                "policy {policy:?}: {err:?}"
            );
        }
    }

    #[test]
    fn link_repair_restores_direct_routing_for_later_flows() {
        // A: 2 -> 3 runs first. B: 0 -> 1 and C: 3 -> 2 start when A ends.
        // Cable (0,1) dies at t=0 and is repaired at t=1e-4, long before B
        // activates: B routes directly and never contends with C (1.6 ms
        // total). Without the repair B detours 0-3-2-1, shares 3 -> 2 with
        // C at half rate, and the makespan is 2.4 ms.
        let topo = Torus::new(&[4]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(2), NodeId(3), mb(1), &[]);
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[a]);
        b.add_flow(NodeId(3), NodeId(2), mb(1), &[a]);
        let dag = b.build();
        let step = xfer(mb(1), 10.0 * GBPS);

        let down = cable_events(topo.network(), 0.0, 0, 1, FaultAction::Down);
        let mut with_repair = down.clone();
        with_repair.extend(cable_events(topo.network(), 1e-4, 0, 1, FaultAction::Up));

        let repaired = sim
            .run_with(
                &dag,
                &FaultSchedule::new(with_repair).unwrap(),
                RecoveryPolicy::RerouteResume,
                None,
            )
            .unwrap();
        assert!(
            (repaired.makespan_seconds - 2.0 * step).abs() < 1e-12,
            "{}",
            repaired.makespan_seconds
        );
        assert_eq!(repaired.fault_events_applied, 4);

        let detoured = sim
            .run_with(
                &dag,
                &FaultSchedule::new(down).unwrap(),
                RecoveryPolicy::RerouteResume,
                None,
            )
            .unwrap();
        assert!(
            (detoured.makespan_seconds - 3.0 * step).abs() < 1e-12,
            "{}",
            detoured.makespan_seconds
        );
    }

    #[test]
    fn faults_after_completion_never_fire() {
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let schedule =
            FaultSchedule::new(cable_events(topo.network(), 1.0, 0, 1, FaultAction::Down)).unwrap();
        let r = sim
            .run_with(&b.build(), &schedule, RecoveryPolicy::Abort, None)
            .unwrap();
        assert_eq!(r.fault_events_applied, 0);
        assert!((r.makespan_seconds - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12);
    }

    #[test]
    fn fault_hits_latency_delayed_flow() {
        // Under a 1 ms startup latency both flows are still delayed when
        // the partition lands at 0.5 ms; the flow whose destination is cut
        // off is dropped before it ever transfers, the other proceeds.
        let topo = Torus::new(&[4]);
        let cfg = SimConfig {
            startup_latency_s: 1e-3,
            record_flow_times: true,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(3), NodeId(0), mb(1), &[]);
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let dag = b.build();
        let mut events = cable_events(topo.network(), 5e-4, 0, 1, FaultAction::Down);
        events.extend(cable_events(topo.network(), 5e-4, 2, 3, FaultAction::Down));
        let schedule = FaultSchedule::new(events).unwrap();

        let r = sim
            .run_with(&dag, &schedule, RecoveryPolicy::SkipUnreachable, None)
            .unwrap();
        assert_eq!(r.skipped_flow_ids, vec![1]);
        let times = r.completion_times.as_ref().unwrap();
        assert!((times[1] - 5e-4).abs() < 1e-15);
        let expect = 1e-3 + xfer(mb(1), 10.0 * GBPS);
        assert!((times[0] - expect).abs() < 1e-12);
        assert!((r.makespan_seconds - expect).abs() < 1e-12);

        // Abort sees the delayed flow too.
        let err = sim
            .run_with(&dag, &schedule, RecoveryPolicy::Abort, None)
            .unwrap_err();
        assert!(matches!(err, SimError::LinkLost { flow: 1, .. }), "{err:?}");
    }

    #[test]
    fn fault_at_time_zero_shapes_initial_routes() {
        // Cable (0,1) is already down when the flow starts: the 0 -> 1
        // transfer detours 0-3-2-1 from the outset (same wire time — the
        // fluid model charges no per-hop cost by default) and the paths
        // avoid the dead link.
        let topo = Torus::new(&[4]);
        let cfg = SimConfig {
            collect_link_stats: true,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let schedule =
            FaultSchedule::new(cable_events(topo.network(), 0.0, 0, 1, FaultAction::Down)).unwrap();
        let r = sim
            .run_with(&b.build(), &schedule, RecoveryPolicy::RerouteResume, None)
            .unwrap();
        assert_eq!(r.fault_events_applied, 2);
        let dead = topo
            .network()
            .find_physical_link(NodeId(0), NodeId(1))
            .unwrap();
        let bytes = r.resource_bytes.as_ref().unwrap();
        assert_eq!(bytes[dead.0 as usize], 0.0, "dead link carried traffic");
        // The detour crosses three links with the full megabyte.
        let carried: f64 = bytes[..r.num_links as usize].iter().sum();
        assert!((carried - 3.0 * mb(1) as f64).abs() < 1.0, "{carried}");
    }

    #[test]
    fn stats_and_latency_compose() {
        let topo = Torus::new(&[4, 4]);
        let cfg = SimConfig {
            collect_link_stats: true,
            per_hop_latency_s: 1e-6,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        for i in 0..8u32 {
            b.add_flow(NodeId(i), NodeId(15 - i), mb(1), &[]);
        }
        let r = sim.run(&b.build()).unwrap();
        assert!(r.makespan_seconds > 0.0);
        let bytes = r.resource_bytes.unwrap();
        assert!(bytes.iter().sum::<f64>() > 0.0);
    }
}
