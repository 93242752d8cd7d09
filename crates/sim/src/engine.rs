//! The simulation engine: activation, rate allocation, batched completions
//! and mid-run faults.
//!
//! [`Simulator::run_with`] validates its inputs, builds a `RunState` (the
//! solver, the run's [`PathTable`], route memo, fault overlay with the
//! schedule's run-long failures already down, successor lists and
//! unresolved-predecessor counts, active set, clock, counters and trace)
//! and calls `RunState::step` until the workload is done. A step runs the
//! engine's concerns in a fixed order:
//!
//! 1. `apply_due_faults`: every fault due by `now` updates the overlay. Any
//!    applied transition clears the route memo, and a downed link hands
//!    each active flow that crosses it to `recover` (abort, reroute or
//!    skip, per [`RecoveryPolicy`]).
//! 2. `activate_ready`: flows whose dependencies resolved are routed and
//!    admitted to the active set.
//! 3. With nothing transferring, the workload is done.
//! 4. `check_limits`, then `recompute` the max-min rates in the solver:
//!    one event. The active set does not hold them yet. The solver's settle
//!    has let go of every path no flow is on.
//! 5. `earliest_completion`: one walk over the active set copies each
//!    flow's rate from the solver, caches its time to completion and finds
//!    the earliest.
//! 6. The earlier of a due fault and the completion batch goes next. A
//!    fault: `advance` every flow to it. The batch: `complete_batch` walks
//!    the active set once more, flagging each flow that finishes within
//!    `batch_epsilon`, gathering its index and advancing it in the same
//!    visit, then retires the flows at the gathered indices.
//!    `sweep_paths` frees the paths the solver let go of once they
//!    outnumber the live ones in hops, and `activate_ready` activates what
//!    the batch released.
//!
//! So an event walks the whole active set twice, once in step 5 and once
//! in step 6; retiring the batch visits only its own indices.
//!
//! Memory follows the active set, not the run: an active flow owns its
//! transfer state (rate, bits left, time to completion), a retired flow
//! leaves only its `RETIRED` mark, and a route lives in the path table and
//! the memo only while flows use it, plus until the sweep after the settle
//! that lets go of it. The DAG and the successor lists are the only
//! per-flow state held for the whole run.
//!
//! Invariants the steps rely on:
//!
//! * A memoised route is what a fresh lookup returns: the topology's route
//!   if it avoids every down link, otherwise the overlay's shortest detour
//!   over live links. The memo is keyed by `(src, dst)` alone and lives for
//!   one failure epoch: every applied transition, down or up, clears it.
//!   A sweep drops the pairs of the paths it frees, so every memoised id is
//!   in the table.
//! * A flow's [`PathId`] is its solver entry: admit, reroute, skip and
//!   retire each move the entry's weight, and the solver alone knows which
//!   paths are in use. A sweep keeps every id the solver holds (a flow is
//!   on it, or its last flow left after the last settle), so it frees no
//!   id the solver has linked or logged, and the solver starts a reused id
//!   as a new entry. Rates depend on path contents and weights, never on
//!   ids, so reusing an id moves no bit.
//! * The active set is one `Vec<Active>` and every removal is a
//!   `swap_remove`, so its order, and with it the order of rates, trace
//!   events and float sums, is fixed by the event sequence.
//! * An untraced run builds no trace payload: `Tracer::emit` takes the event
//!   as a closure and calls it only when a sink listens.
#![deny(clippy::too_many_lines)]

use crate::dag::{FlowDag, FlowId};
use crate::error::SimError;
use crate::fault::{FaultAction, FaultEvent, FaultSchedule, RecoveryPolicy};
use crate::maxmin::MaxMinSolver;
use crate::paths::{PathId, PathTable};
use crate::report::SimReport;
use crate::trace::{MetricsSnapshot, TraceEvent, TraceSink};
use exaflow_netgraph::{IntMap, LinkId, NodeId};
use exaflow_topo::{FaultOverlay, Topology};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::iter::Peekable;
use std::slice;
use std::time::Instant;

/// `RunState::indeg` of a flow that has resolved: finished, skipped or
/// degenerate.
const RETIRED: u32 = u32::MAX;

/// Engine configuration.
///
/// Deserialization validates the numeric fields (see
/// [`SimConfig::validate`]): a config with a non-finite or non-positive
/// rate or a negative epsilon is rejected at the JSON boundary instead of
/// stalling deep inside a run.
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
    /// for fewer rate recomputations, within the error bound pinned by
    /// `proptest_engine::batching_epsilon_bounds_error`.
    pub batch_epsilon: f64,
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
    /// sweep. `None` (the default) means unlimited. Host-speed dependent;
    /// a suite reports an overrun as that entry's error.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_wall_s: Option<f64>,
}

impl SimConfig {
    /// Check every numeric field against its domain: NIC rates must be
    /// finite and strictly positive, the batching epsilon finite and
    /// non-negative. Called by [`Simulator::run`] and by the `Deserialize`
    /// impl, so an invalid config is a typed [`SimError::InvalidConfig`] at
    /// the boundary — never a zero-rate stall.
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
        let epsilon = self.batch_epsilon;
        if !(epsilon.is_finite() && epsilon >= 0.0) {
            return Err(SimError::invalid_config(
                "batch_epsilon",
                epsilon,
                "must be finite and >= 0",
            ));
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
/// A key left out takes [`SimConfig::default`]'s value, as an absent `sim`
/// block does; a key present with the wrong type is still an error.
/// The two head-latency keys of the deleted latency model stay here only
/// to guard the boundary: files written before its removal carry them as
/// `0.0`, which loads, and any other value is rejected rather than ignored,
/// since ignoring it would report times the config did not ask for.
#[derive(Deserialize)]
struct SimConfigUnchecked {
    #[serde(default = "default_injection_bps")]
    injection_bps: f64,
    #[serde(default = "default_ejection_bps")]
    ejection_bps: f64,
    #[serde(default = "default_batch_epsilon")]
    batch_epsilon: f64,
    #[serde(default)]
    per_hop_latency_s: f64,
    #[serde(default)]
    startup_latency_s: f64,
    #[serde(default)]
    trace: bool,
    #[serde(default)]
    solver_threads: usize,
    #[serde(default)]
    max_events: Option<u64>,
    #[serde(default)]
    max_wall_s: Option<f64>,
}

fn default_injection_bps() -> f64 {
    SimConfig::default().injection_bps
}

fn default_ejection_bps() -> f64 {
    SimConfig::default().ejection_bps
}

fn default_batch_epsilon() -> f64 {
    SimConfig::default().batch_epsilon
}

impl serde::de::Deserialize for SimConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        let raw = SimConfigUnchecked::from_value(value)?;
        let legacy = [
            ("per_hop_latency_s", raw.per_hop_latency_s),
            ("startup_latency_s", raw.startup_latency_s),
        ];
        if let Some((field, value)) = legacy.into_iter().find(|&(_, v)| v != 0.0) {
            let err = SimError::invalid_config(
                field,
                value,
                "must be 0 (the engine has no head-latency model)",
            );
            return Err(field_error(err));
        }
        let cfg = SimConfig {
            injection_bps: raw.injection_bps,
            ejection_bps: raw.ejection_bps,
            batch_epsilon: raw.batch_epsilon,
            trace: raw.trace,
            solver_threads: raw.solver_threads,
            max_events: raw.max_events,
            max_wall_s: raw.max_wall_s,
        };
        cfg.validate().map_err(field_error)?;
        Ok(cfg)
    }
}

/// A validation failure as a parse error, `<key> = <value> <constraint>`:
/// the derive already names the `sim` block the key sits in.
fn field_error(err: SimError) -> serde::de::Error {
    match err {
        SimError::InvalidConfig {
            field,
            value,
            constraint,
        } => serde::de::Error::custom(format_args!("{field} = {value} {constraint}")),
        other => serde::de::Error::custom(other),
    }
}

/// Flow-level simulator bound to a topology.
pub struct Simulator<'a> {
    topo: &'a dyn Topology,
    cfg: SimConfig,
    num_links: usize,
    num_eps: usize,
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
        }
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

    /// The `(src, dst)` a path built by `RunState::route` runs between:
    /// its first hop is `src`'s injection port, its last `dst`'s ejection
    /// port.
    fn pair_of(&self, path: &[u32]) -> (u32, u32) {
        let (first, last) = (path[0] as usize, path[path.len() - 1] as usize);
        (
            (first - self.num_links) as u32,
            (last - self.num_links - self.num_eps) as u32,
        )
    }

    fn resource_capacities(&self) -> Vec<f64> {
        let mut caps = Vec::with_capacity(self.num_links + 2 * self.num_eps);
        caps.extend(std::iter::repeat_n(
            exaflow_topo::LINK_RATE_BPS,
            self.num_links,
        ));
        caps.extend(std::iter::repeat_n(self.cfg.injection_bps, self.num_eps));
        caps.extend(std::iter::repeat_n(self.cfg.ejection_bps, self.num_eps));
        caps
    }

    /// Simulate `dag` to completion on the healthy network and return the
    /// report.
    ///
    /// Returns a typed [`SimError`] for every input-dependent failure: an
    /// invalid [`SimConfig`], a DAG referencing endpoints outside the
    /// topology, or a stalled rate allocation; [`Simulator::run_with`]
    /// adds an unreachable destination (failed links partitioning the
    /// network). Panics are reserved for internal invariant violations.
    pub fn run(&self, dag: &FlowDag) -> Result<SimReport, SimError> {
        self.run_with(
            dag,
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
            None,
        )
    }

    /// The full form of [`Simulator::run`]: simulate `dag` with the
    /// schedule's run-long failed links down throughout
    /// ([`FaultSchedule::with_failed_links`]), injecting the link-down/
    /// link-up events of `schedule` at their simulated times, recovering
    /// interrupted flows per `policy`, and streaming every engine state
    /// transition into `sink` when one is given.
    ///
    /// Fault events join the engine's event ordering alongside completions:
    /// at each step the earlier of the two fires. When a link goes down,
    /// every active flow whose path crosses it is handed to the recovery
    /// policy:
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
    /// Every routing decision, an activation or a reroute, sees the down
    /// set of its moment: a restored link carries every flow routed after
    /// the repair, while a flow already on a detour keeps it (a repair
    /// reroutes nothing). An empty schedule reproduces [`Simulator::run`]
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
        sink: Option<&mut dyn TraceSink>,
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
        // Shorten the sink's object lifetime to the run's.
        let sink = sink.map(|s| s as &mut dyn TraceSink);
        let mut run = RunState::new(self, dag, schedule, policy, sink)?;
        while run.step()? {}
        Ok(run.finish())
    }
}

/// One flow of the active set: it owns its transfer state.
#[derive(Clone, Copy)]
struct Active {
    rate: f64,
    /// Bits still to transfer.
    left: f64,
    /// Seconds to completion at `rate`, `left / rate` as of the last
    /// [`RunState::earliest_completion`].
    t: f64,
    id: u32,
    /// The flow's path, which is also its solver entry.
    path: PathId,
    /// In the completion batch; set before the batch advances time.
    done: bool,
}

/// The run metrics (present iff tracing) and the optional sink.
struct Tracer<'r> {
    metrics: Option<MetricsSnapshot>,
    sink: Option<&'r mut dyn TraceSink>,
}

impl Tracer<'_> {
    /// Count one event and, only when a sink listens, build it and hand it
    /// over: an untraced run pays one predictable jump per site, a
    /// metrics-only run one counter bump, and neither builds a payload.
    fn emit(
        &mut self,
        counter: impl FnOnce(&mut MetricsSnapshot) -> &mut u64,
        event: impl FnOnce() -> TraceEvent,
    ) {
        if let Some(m) = self.metrics.as_mut() {
            *counter(m) += 1;
            if let Some(s) = self.sink.as_mut() {
                s.record(&event());
            }
        }
    }
}

/// The state of one run, with one method per engine concern (see the
/// module docs for the order a step runs them in).
struct RunState<'r> {
    sim: &'r Simulator<'r>,
    dag: &'r FlowDag,
    policy: RecoveryPolicy,
    trace: Tracer<'r>,
    solver: MaxMinSolver,
    /// The routes of the active set, interned once; the route memo, the
    /// active set and the solver all hold ids into it, and the solver's
    /// entries are those ids.
    paths: PathTable,
    /// `(src, dst) -> path` under the current down set: cleared by every
    /// applied fault transition, so a hit is what a fresh lookup returns,
    /// and rid of a path's pairs when a sweep frees the path.
    routes: IntMap<(u32, u32), PathId>,
    route_hits: u64,
    overlay: FaultOverlay<'r>,
    /// `route` buffers: the link route and the resource path.
    scratch_links: Vec<LinkId>,
    scratch_route: Vec<u32>,
    faults: Peekable<slice::Iter<'r, FaultEvent>>,
    fault_events_applied: u64,
    skipped_flow_ids: Vec<u32>,
    /// Successor lists (CSR), then each flow's unresolved predecessors,
    /// `RETIRED` once it has resolved itself.
    succ_offsets: Vec<u32>,
    succs: Vec<u32>,
    indeg: Vec<u32>,
    /// Flows whose dependencies resolved, not yet activated.
    ready: Vec<u32>,
    active: Vec<Active>,
    /// `complete_batch` scratch: the active-set indices of the batch.
    batch: Vec<u32>,
    now: f64,
    completed: usize,
    events: u64,
    /// Armed once per run; checked with the event budget at every event.
    wall_deadline: Option<(Instant, f64)>,
}

impl<'r> RunState<'r> {
    fn new(
        sim: &'r Simulator<'r>,
        dag: &'r FlowDag,
        schedule: &'r FaultSchedule,
        policy: RecoveryPolicy,
        sink: Option<&'r mut dyn TraceSink>,
    ) -> Result<Self, SimError> {
        let n = dag.len();
        let cfg = &sim.cfg;
        let (succ_offsets, succs) = dag.successors();
        let indeg: Vec<u32> = (0..n)
            .map(|f| dag.preds(FlowId(f as u32)).len() as u32)
            .collect();
        let solver = MaxMinSolver::new(sim.resource_capacities())?;
        let tracing = cfg.trace || sink.is_some();
        let mut run = RunState {
            sim,
            dag,
            policy,
            trace: Tracer {
                metrics: tracing.then(MetricsSnapshot::default),
                sink,
            },
            solver,
            paths: PathTable::new(),
            routes: IntMap::default(),
            route_hits: 0,
            overlay: FaultOverlay::new(sim.topo),
            scratch_links: Vec::new(),
            scratch_route: Vec::new(),
            faults: schedule.events().iter().peekable(),
            fault_events_applied: 0,
            skipped_flow_ids: Vec::new(),
            succ_offsets,
            succs,
            ready: (0..n as u32).filter(|&f| indeg[f as usize] == 0).collect(),
            indeg,
            active: Vec::new(),
            batch: Vec::new(),
            now: 0.0,
            completed: 0,
            events: 0,
            wall_deadline: cfg.max_wall_s.map(|limit| (Instant::now(), limit)),
        };
        for &link in schedule.failed_links() {
            run.overlay.fail_for_run(LinkId(link));
        }
        if let Some(s) = run.trace.sink.as_mut() {
            s.record(&TraceEvent::RunStarted {
                flows: n as u64,
                links: sim.num_links as u64,
                endpoints: sim.num_eps as u64,
                batch_epsilon: cfg.batch_epsilon,
                capacities_bps: sim.resource_capacities(),
                failed_links: schedule.failed_links().to_vec(),
            });
        }
        Ok(run)
    }

    /// One turn of the event loop; `Ok(false)` once the workload is done.
    fn step(&mut self) -> Result<bool, SimError> {
        // Faults due now fire first (at t = 0 they precede all routing);
        // the flows they skip may release dependents.
        self.apply_due_faults()?;
        self.activate_ready()?;
        if self.active.is_empty() {
            return Ok(false); // workload finished; later faults never fire
        }
        self.check_limits()?;
        self.events += 1;
        self.recompute();
        let dt = self.earliest_completion()?;
        // The earlier of a fault and the completion batch goes next.
        let horizon = self.now + dt;
        let t_fault = self.faults.peek().map(|ev| ev.time_s);
        if let Some(t) = t_fault.filter(|&t| t < horizon) {
            self.advance(t - self.now);
            self.now = t; // the next step applies the fault batch
        } else {
            self.complete_batch(dt);
            self.sweep_paths();
            self.activate_ready()?;
        }
        Ok(true)
    }

    /// Apply every fault event due by `now`, then hand each active flow
    /// whose path crosses a newly-downed link to [`RunState::recover`], in
    /// active order.
    fn apply_due_faults(&mut self) -> Result<(), SimError> {
        let (now, applied) = (self.now, self.fault_events_applied);
        let mut downed: Vec<u32> = Vec::new();
        while let Some(ev) = self.faults.next_if(|ev| ev.time_s <= now) {
            let link = ev.link;
            match ev.action {
                FaultAction::Down if self.overlay.fail_link(LinkId(link)) => {
                    self.fault_events_applied += 1;
                    let ev = || TraceEvent::FaultApplied { t: now, link };
                    self.trace.emit(|m| &mut m.faults_applied, ev);
                    downed.push(link);
                }
                FaultAction::Up if self.overlay.restore_link(LinkId(link)) => {
                    self.fault_events_applied += 1;
                    let ev = || TraceEvent::FaultCleared { t: now, link };
                    self.trace.emit(|m| &mut m.faults_cleared, ev);
                }
                _ => {}
            }
        }
        if self.fault_events_applied > applied {
            self.routes.clear();
        }
        if downed.is_empty() {
            return Ok(());
        }
        let mut i = 0;
        while i < self.active.len() {
            if !self.recover(i, &downed)? {
                i += 1;
            }
        }
        Ok(())
    }

    /// Apply the recovery policy to the flow at index `i` of the active set.
    /// Returns whether the flow left the set. Link resources share ids with
    /// links, so the path crosses a downed link iff it lists it.
    fn recover(&mut self, i: usize, downed: &[u32]) -> Result<bool, SimError> {
        let Active { id: f, path, .. } = self.active[i];
        let Some(&link) = self.paths.get(path).iter().find(|r| downed.contains(r)) else {
            return Ok(false);
        };
        let now = self.now;
        if matches!(self.policy, RecoveryPolicy::Abort) {
            return Err(SimError::LinkLost {
                time: now,
                link,
                flow: f,
            });
        }
        let spec = self.dag.flow(FlowId(f));
        let (src, dst, bytes) = (spec.src, spec.dst, spec.bytes);
        match self.route(src, dst) {
            Ok(path) => {
                let restarted = matches!(self.policy, RecoveryPolicy::RerouteRestart);
                self.trace.emit(
                    |m| &mut m.reroutes,
                    || TraceEvent::RerouteTaken {
                        t: now,
                        flow: f,
                        path: self.paths.get(path).to_vec(),
                        restarted,
                    },
                );
                let a = &mut self.active[i];
                if restarted {
                    a.left = bytes as f64 * 8.0;
                }
                self.solver.remove_entry(&self.paths, a.path);
                self.solver.insert_entry(&self.paths, path);
                a.path = path;
                Ok(false)
            }
            Err(SimError::Unreachable { .. })
                if matches!(self.policy, RecoveryPolicy::SkipUnreachable) =>
            {
                self.skip(f);
                let a = self.active.swap_remove(i);
                self.solver.remove_entry(&self.paths, a.path);
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Activate every ready flow: retire degenerate flows (zero bytes or
    /// self-traffic) at once, cascading; route the rest and admit them.
    fn activate_ready(&mut self) -> Result<(), SimError> {
        let dag = self.dag;
        let now = self.now;
        while let Some(f) = self.ready.pop() {
            let spec = dag.flow(FlowId(f));
            self.trace.emit(
                |m| &mut m.flows_activated,
                || TraceEvent::FlowActivated {
                    t: now,
                    flow: f,
                    src: spec.src,
                    dst: spec.dst,
                    bytes: spec.bytes,
                    preds: dag.preds(FlowId(f)).to_vec(),
                },
            );
            if spec.bytes == 0 || spec.src == spec.dst {
                let ev = || TraceEvent::FlowFinished { t: now, flow: f };
                self.trace.emit(|m| &mut m.flows_finished, ev);
                self.retire(f);
                continue;
            }
            let path = match self.route(spec.src, spec.dst) {
                Ok(path) => path,
                // A flow activating toward a destination the current faults
                // cut off is exactly what the skip policy drops.
                Err(SimError::Unreachable { .. })
                    if matches!(self.policy, RecoveryPolicy::SkipUnreachable) =>
                {
                    self.skip(f);
                    continue;
                }
                Err(e) => return Err(e),
            };
            self.admit(f, path);
        }
        Ok(())
    }

    /// The resource path of `src → dst` under the current faults:
    /// injection resource, route links, ejection resource.
    /// Memoised for the failure epoch; a miss routes through the fault
    /// overlay, which keeps the topology's deterministic route unless it
    /// crosses a down link, and interns the result. An unreachable
    /// destination (failed links partitioning the network) is a typed
    /// error, not a panic.
    fn route(&mut self, src: u32, dst: u32) -> Result<PathId, SimError> {
        if let Some(&path) = self.routes.get(&(src, dst)) {
            self.route_hits += 1;
            return Ok(path);
        }
        self.scratch_links.clear();
        self.overlay
            .try_route(NodeId(src), NodeId(dst), &mut self.scratch_links)
            .map_err(|e| SimError::Unreachable {
                src,
                dst,
                topology: e.topology,
                failed_links: e.failed_links as u64,
            })?;
        let route = &mut self.scratch_route;
        route.clear();
        route.push(self.sim.injection_resource(src));
        route.extend(self.scratch_links.iter().map(|l| l.0));
        route.push(self.sim.ejection_resource(dst));
        let path = self.paths.intern(route);
        self.routes.insert((src, dst), path);
        Ok(path)
    }

    /// Put flow `f` on `path` into the active set with a solver entry.
    fn admit(&mut self, f: u32, path: PathId) {
        let now = self.now;
        self.trace.emit(
            |m| &mut m.flows_started,
            || TraceEvent::FlowStarted {
                t: now,
                flow: f,
                path: self.paths.get(path).to_vec(),
            },
        );
        self.solver.insert_entry(&self.paths, path);
        self.active.push(Active {
            rate: 0.0,
            left: self.dag.flow(FlowId(f)).bytes as f64 * 8.0,
            t: f64::INFINITY,
            id: f,
            path,
            done: false,
        });
    }

    /// Drop flow `f` under the skip policy and release its dependents.
    fn skip(&mut self, f: u32) {
        let now = self.now;
        self.trace.emit(
            |m| &mut m.flows_skipped,
            || TraceEvent::FlowSkipped { t: now, flow: f },
        );
        self.retire(f);
        self.skipped_flow_ids.push(f);
    }

    /// Retire flow `f` at `now` (delivered, degenerate, or dropped): mark
    /// it and release its dependents.
    fn retire(&mut self, f: u32) {
        let f = f as usize;
        self.indeg[f] = RETIRED;
        self.completed += 1;
        let succs = &self.succs[self.succ_offsets[f] as usize..self.succ_offsets[f + 1] as usize];
        for &s in succs {
            self.indeg[s as usize] -= 1;
            if self.indeg[s as usize] == 0 {
                self.ready.push(s);
            }
        }
    }

    /// Cooperative cancellation at the event boundary, after `events`
    /// boundaries and before the next solve, so a cut run is a prefix of
    /// the uninterrupted one. The event budget is deterministic (the event
    /// sequence is); the wall-clock deadline is host-speed dependent.
    fn check_limits(&mut self) -> Result<(), SimError> {
        let (now, events) = (self.now, self.events);
        if let Some(max_events) = self.sim.cfg.max_events.filter(|&max| events >= max) {
            let ev = || TraceEvent::BudgetExhausted { t: now, events };
            self.trace.emit(|m| &mut m.budget_exhausted, ev);
            return Err(SimError::BudgetExhausted {
                max_events,
                events,
                time: now,
                delivered_bytes: self.bytes_accounted(),
                flows_completed: self.completed as u64,
            });
        }
        let expired = |&(start, limit): &(Instant, f64)| start.elapsed().as_secs_f64() >= limit;
        if let Some((_, wall_limit_s)) = self.wall_deadline.filter(expired) {
            let ev = || TraceEvent::DeadlineExceeded { t: now, events };
            self.trace.emit(|m| &mut m.deadline_exceeded, ev);
            return Err(SimError::DeadlineExceeded {
                wall_limit_s,
                events,
                time: now,
                delivered_bytes: self.bytes_accounted(),
                flows_completed: self.completed as u64,
            });
        }
        Ok(())
    }

    /// Bytes no longer outstanding: total workload bytes minus the bits
    /// still to transfer, summed in flow-id order. Retired flows (finished
    /// or skipped) have none left, active flows count their `left`, and
    /// every other flow all of its bytes.
    fn bytes_accounted(&self) -> u64 {
        let flows = self.dag.flows();
        let total_bits: f64 = flows.iter().map(|f| f.bytes as f64 * 8.0).sum();
        let mut left: Vec<f64> = flows
            .iter()
            .zip(&self.indeg)
            .map(|(f, &indeg)| match indeg {
                RETIRED => 0.0,
                _ => f.bytes as f64 * 8.0,
            })
            .collect();
        for a in &self.active {
            left[a.id as usize] = a.left;
        }
        let outstanding_bits: f64 = left.iter().sum();
        (((total_bits - outstanding_bits) / 8.0).max(0.0)) as u64
    }

    /// Settle the solver and bring its rates up to date. The settle lets
    /// go of every path no flow is on, which the next sweep may free. A
    /// traced run also times and counts the recompute and emits the rates,
    /// read from the solver: the active set takes them in
    /// [`RunState::earliest_completion`].
    fn recompute(&mut self) {
        let solve_start = self.trace.metrics.is_some().then(Instant::now);
        let passes = self.solver.rate_recomputes;
        self.solver.recompute(&self.paths);
        let (Some(start), Some(m)) = (solve_start, self.trace.metrics.as_mut()) else {
            return;
        };
        m.solver_seconds_total += start.elapsed().as_secs_f64();
        m.rate_recomputes += 1;
        let full_pass = self.solver.rate_recomputes > passes;
        m.full_passes += full_pass as u64;
        if let Some(s) = self.trace.sink.as_mut() {
            let solver = &self.solver;
            s.record(&TraceEvent::RateRecompute {
                t: self.now,
                flows: self.active.iter().map(|a| a.id).collect(),
                rates_bps: self
                    .active
                    .iter()
                    .map(|a| solver.entry_rate(a.path))
                    .collect(),
                entries_solved: solver.last_pass_entries,
                full_pass,
            });
        }
    }

    /// Once the solver asks (the table's unlinked hops outnumber the
    /// live ones), free every path the solver does not hold and drop its
    /// pair from the route memo. The solver lets go of a path at the first
    /// settle after its last flow left, so nothing else holds a freed id. A
    /// pair whose path survives keeps its memo hit. The solver compacts the
    /// incidence lists of the freed paths' resources at the same time.
    fn sweep_paths(&mut self) {
        if !self.solver.wants_sweep(&self.paths) {
            return;
        }
        let (sim, solver, routes) = (self.sim, &mut self.solver, &mut self.routes);
        self.paths.sweep(|path, hops| {
            if solver.holds(path) {
                return true;
            }
            solver.compact(hops);
            // A fault transition may have cleared the memo since, and the
            // pair may have been routed anew.
            if let Entry::Occupied(memo) = routes.entry(sim.pair_of(hops)) {
                if *memo.get() == path {
                    memo.remove();
                }
            }
            false
        });
    }

    /// Copy every active flow's rate from the solver, cache its time to
    /// completion and return the earliest.
    fn earliest_completion(&mut self) -> Result<f64, SimError> {
        let mut dt = f64::INFINITY;
        for a in &mut self.active {
            a.rate = self.solver.entry_rate(a.path);
            a.t = a.left / a.rate;
            if a.t < dt {
                dt = a.t;
            }
        }
        if dt.is_finite() {
            Ok(dt)
        } else {
            Err(self.stall_error())
        }
    }

    /// Diagnose a stalled rate allocation: name the zero-rate flows and the
    /// suspected bottleneck (smallest-capacity resource on the first
    /// stalled flow's path) so a bulk-sweep entry is debuggable without a
    /// rerun.
    fn stall_error(&self) -> SimError {
        const MAX_REPORTED: usize = 8;
        let mut stalled = Vec::new();
        let mut resource = None;
        for a in &self.active {
            if a.rate > 0.0 {
                continue;
            }
            if resource.is_none() {
                let capacity = |r: &u32| self.solver.capacity(*r);
                resource = self
                    .paths
                    .get(a.path)
                    .iter()
                    .copied()
                    .min_by(|x, y| capacity(x).total_cmp(&capacity(y)));
            }
            if stalled.len() < MAX_REPORTED {
                stalled.push(a.id);
            }
        }
        SimError::Stalled {
            time: self.now,
            flows: stalled,
            resource,
        }
    }

    /// Retire the batch of flows finishing within `batch_epsilon` of the
    /// earliest completion, `dt` from now. Each flow joins the batch on its
    /// cached time to completion before it advances, in the same walk,
    /// which gathers the batch's indices. Retiring visits those in order,
    /// retiring while the flow at the index is done, as each `swap_remove`
    /// moves the last flow into it; an index past the shrunk end is gone.
    fn complete_batch(&mut self, dt: f64) {
        let cutoff = dt * (1.0 + self.sim.cfg.batch_epsilon);
        let moves = dt > 0.0;
        self.batch.clear();
        for (i, a) in self.active.iter_mut().enumerate() {
            a.done = a.t <= cutoff;
            if a.done {
                self.batch.push(i as u32);
            }
            if moves {
                a.left -= a.rate * dt;
            }
        }
        self.now += dt;
        let now = self.now;
        for k in 0..self.batch.len() {
            let i = self.batch[k] as usize;
            while let Some(&a) = self.active.get(i).filter(|a| a.done) {
                let ev = || TraceEvent::FlowFinished { t: now, flow: a.id };
                self.trace.emit(|m| &mut m.flows_finished, ev);
                self.retire(a.id);
                self.solver.remove_entry(&self.paths, a.path);
                self.active.swap_remove(i);
            }
        }
    }

    /// Move every active flow `dt` seconds forward. The caller moves `now`.
    fn advance(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        for a in &mut self.active {
            a.left -= a.rate * dt;
        }
    }

    /// The report of a run in which every flow resolved.
    fn finish(self) -> SimReport {
        let n = self.dag.len();
        // Internal invariant, not an input error: the builder guarantees
        // acyclicity, so an incomplete run is an engine bug.
        assert_eq!(
            self.completed, n,
            "simulation ended with {} of {n} flows incomplete (cyclic deps?)",
            self.completed
        );
        let sim = self.sim;
        SimReport {
            makespan_seconds: self.now,
            flows: n as u64,
            events: self.events,
            maxmin_iterations: self.solver.iterations,
            num_links: sim.num_links as u64,
            num_endpoints: sim.num_eps as u64,
            skipped_flows: self.skipped_flow_ids.len() as u64,
            skipped_flow_ids: self.skipped_flow_ids,
            fault_events_applied: self.fault_events_applied,
            rate_recomputes: self.solver.rate_recomputes,
            flows_coalesced: self.solver.flows_coalesced,
            route_cache_hits: self.route_hits,
            metrics: self.trace.metrics,
        }
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

    /// Run `dag` traced: the report and the event stream, which the
    /// oracle has already accepted (byte conservation, capacities).
    fn traced(
        sim: &Simulator,
        dag: &FlowDag,
        schedule: &FaultSchedule,
        policy: RecoveryPolicy,
    ) -> (SimReport, Vec<TraceEvent>) {
        let mut sink = crate::trace::VecSink::new();
        let r = sim
            .run_with(dag, schedule, policy, Some(&mut sink))
            .unwrap();
        let events = sink.into_events();
        crate::trace_check::check_trace(&events).unwrap();
        (r, events)
    }

    /// Each flow's finish or skip time, from the trace's `flow_finished`
    /// and `flow_skipped` events (NaN for a flow with neither).
    fn resolve_times(events: &[TraceEvent], flows: usize) -> Vec<f64> {
        let mut times = vec![f64::NAN; flows];
        for ev in events {
            if let TraceEvent::FlowFinished { t, flow } | TraceEvent::FlowSkipped { t, flow } = ev {
                times[*flow as usize] = *t;
            }
        }
        times
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
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let c = b.add_flow(NodeId(1), NodeId(2), mb(2), &[a]);
        let (_, events) = traced(
            &sim,
            &b.build(),
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
        );
        let times = resolve_times(&events, 2);
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
    fn nan_batch_epsilon_is_invalid_config() {
        let topo = Torus::new(&[4]);
        let cfg = SimConfig {
            batch_epsilon: f64::NAN,
            ..SimConfig::default()
        };
        let sim = Simulator::with_config(&topo, cfg);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let err = sim.run(&b.build()).unwrap_err();
        match err {
            SimError::InvalidConfig { field, value, .. } => {
                assert_eq!(field, "batch_epsilon");
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
                assert_eq!(*delivered_bytes, mb(3));
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

    /// A cut run counts the bytes its partial transfers delivered: three
    /// flows of odd sizes share node 3's ejection port and a fourth waits
    /// for the first, so each budget cuts the run with a transfer partly
    /// done. The outstanding bits are summed in flow-id order, so the count
    /// is pinned to the byte.
    #[test]
    fn a_budget_cut_counts_the_bytes_of_partial_transfers() {
        let topo = Torus::new(&[8]);
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(3), 1_000_003, &[]);
        b.add_flow(NodeId(1), NodeId(3), 2_000_017, &[]);
        b.add_flow(NodeId(2), NodeId(3), 1_500_011, &[]);
        b.add_flow(NodeId(4), NodeId(6), 777_777, &[a]);
        let dag = b.build();
        for (max, delivered, completed) in [(1, 3_000_009, 1), (2, 4_555_563, 2), (3, 4_777_802, 3)]
        {
            let cfg = SimConfig {
                max_events: Some(max),
                ..SimConfig::default()
            };
            match Simulator::with_config(&topo, cfg).run(&dag).unwrap_err() {
                SimError::BudgetExhausted {
                    delivered_bytes,
                    flows_completed,
                    ..
                } => {
                    assert_eq!(delivered_bytes, delivered, "budget {max}");
                    assert_eq!(flows_completed, completed, "budget {max}");
                }
                other => panic!("expected BudgetExhausted, got {other:?}"),
            }
        }
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
            "batch_epsilon": 1e-9
        }"#;
        let err = serde_json::from_str::<SimConfig>(json).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("injection_bps"), "{msg}");
    }

    /// Config files written before the engine had one mode still carry its
    /// four mode keys, and files written before it had one route memo a
    /// `route_cache_cap`; files from the days of the report's per-flow
    /// times and per-resource bytes carry the two switches that asked for
    /// them. All are ignored like any unknown key, whatever their values:
    /// the config and the report match the same file without them, and
    /// that file loads although older engines required `route_cache_cap`
    /// and `record_flow_times`. So is a thread count from the days of the
    /// in-run pool: it loads into the inert `solver_threads` and moves
    /// nothing. Files written before the head-latency model was deleted
    /// carry its two keys as `0.0` and load the same; any other value,
    /// NaN included, is a parse error naming the key: `<key> = <v> must be 0`.
    #[test]
    fn old_configs_with_the_deleted_mode_keys_still_load() {
        let base = r#""injection_bps": 1e10, "ejection_bps": 1e10, "batch_epsilon": 1e-9"#;
        let new: SimConfig = serde_json::from_str(&format!("{{{base}}}")).unwrap();
        assert_eq!(new, SimConfig::default());
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
        let mode_keys = |cap: u32| {
            format!(
                r#""record_flow_times": false, "cache_routes": false,
                    "solver_incremental": false, "coalesce_flows": false,
                    "incremental_full_threshold": 0.0, "route_cache_cap": {cap},
                    "solver_threads": 8"#
            )
        };
        let olds = [
            (
                r#""record_flow_times": true, "collect_link_stats": true"#.to_owned(),
                0,
            ),
            (mode_keys(0), 8),
            (mode_keys(4), 8),
            (
                r#""per_hop_latency_s": 0.0, "startup_latency_s": 0"#.to_owned(),
                0,
            ),
        ];
        for (keys, threads) in olds {
            let old: SimConfig = serde_json::from_str(&format!("{{{base}, {keys}}}")).unwrap();
            assert_eq!(old.solver_threads, threads);
            assert_eq!(
                SimConfig {
                    solver_threads: 0,
                    ..old.clone()
                },
                new
            );
            assert_eq!(report(old), report(new.clone()));
        }
        for key in ["per_hop_latency_s", "startup_latency_s"] {
            let with = |v: serde::Value| {
                let mut json: serde::Value = serde_json::from_str(&format!("{{{base}}}")).unwrap();
                let serde::Value::Object(map) = &mut json else {
                    unreachable!("a config is an object")
                };
                map.insert(key, v);
                SimConfig::from_value(&json).map_err(|e| e.to_string())
            };
            let zero = serde::Value::Number(serde::Number::Float(0.0));
            assert_eq!(with(zero), Ok(SimConfig::default()));
            for (bad, shown) in [(1e-6, "0.000001"), (f64::NAN, "NaN")] {
                let err = with(serde::Value::Number(serde::Number::Float(bad))).unwrap_err();
                let want = format!("{key} = {shown} must be 0");
                assert!(err.starts_with(&want), "{err}");
            }
        }
    }

    /// The repair scenario: A (2 -> 3) fills time while cable 0-1 is down;
    /// B (0 -> 1) activates during the outage; C (0 -> 1) activates after
    /// the repair. Returns the report and the trace.
    fn repair_run(topo: &Torus) -> (SimReport, Vec<TraceEvent>) {
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(2), NodeId(3), mb(1), &[]);
        let bf = b.add_flow(NodeId(0), NodeId(1), mb(1), &[a]);
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[bf]);
        let step = xfer(mb(1), 10.0 * GBPS);
        let schedule = cables(topo, &[(0.0, 0, 1, Down), (1.5 * step, 0, 1, Up)]);
        let sim = Simulator::new(topo);
        traced(&sim, &b.build(), &schedule, RecoveryPolicy::RerouteResume)
    }

    /// The `flow_started` path of flow `f`.
    fn started_path(events: &mut [TraceEvent], f: u32) -> &mut Vec<u32> {
        events
            .iter_mut()
            .find_map(|e| match e {
                TraceEvent::FlowStarted { flow, path, .. } if *flow == f => Some(path),
                _ => None,
            })
            .expect("flow started")
    }

    /// A repair reaches every route decided after it: B takes the 3-hop
    /// detour 0-3-2-1, and C takes the restored 1-hop route, not B's
    /// detour, because the repair cleared the route memo.
    #[test]
    fn a_repair_reaches_every_later_route() {
        let topo = Torus::new(&[4]);
        let (r, mut events) = repair_run(&topo);
        assert_eq!(r.route_cache_hits, 0);
        assert_eq!(r.fault_events_applied, 4);
        // Uncontended in turn: path length costs no time in the fluid model.
        let expect = 3.0 * xfer(mb(1), 10.0 * GBPS);
        assert!(
            (r.makespan_seconds - expect).abs() < 1e-12,
            "{} vs {expect}",
            r.makespan_seconds
        );
        // Injection + links + ejection.
        assert_eq!(started_path(&mut events, 1).len(), 3 + 2);
        assert_eq!(started_path(&mut events, 2).len(), 1 + 2);
        crate::trace_check::check_trace_with_topology(&events, &topo).unwrap();
    }

    /// The route oracle catches a detour kept past its repair: the same
    /// trace with C on B's detour still conserves bytes and is max-min
    /// fair, but C's route is no longer the topology's.
    #[test]
    fn the_oracle_rejects_a_detour_kept_past_its_repair() {
        use crate::trace_check::{check_trace, check_trace_with_topology};
        let topo = Torus::new(&[4]);
        let (_, mut events) = repair_run(&topo);
        let detour = started_path(&mut events, 1).clone();
        *started_path(&mut events, 2) = detour;
        check_trace(&events).unwrap();
        let err = check_trace_with_topology(&events, &topo).unwrap_err();
        assert!(err.message.contains("not the topology's route"), "{err}");
    }

    /// The oracle rejects a reroute of a flow that has not started: the
    /// cut run's `reroute_taken`, copied to just after its flow's
    /// activation, still avoids every down link, but only a transferring
    /// flow holds a path a fault can cut.
    #[test]
    fn the_oracle_rejects_a_reroute_before_the_start() {
        use crate::trace_check::check_trace;
        let topo = Torus::new(&[8]);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(2), mb(1), &[]);
        let schedule = cables(&topo, &[(0.5 * xfer(mb(1), 10.0 * GBPS), 0, 1, Down)]);
        let sim = Simulator::new(&topo);
        let (_, mut events) = traced(&sim, &b.build(), &schedule, RecoveryPolicy::RerouteResume);
        let mut early = events
            .iter()
            .find(|e| matches!(e, TraceEvent::RerouteTaken { .. }))
            .expect("the cut reroutes the flow")
            .clone();
        if let TraceEvent::RerouteTaken { t, .. } = &mut early {
            *t = 0.0;
        }
        let activated = events
            .iter()
            .position(|e| matches!(e, TraceEvent::FlowActivated { .. }))
            .unwrap();
        events.insert(activated + 1, early);
        let err = check_trace(&events).unwrap_err();
        assert!(
            err.message.contains("rerouted from state Activated"),
            "{err}"
        );
    }

    /// The oracle rejects a flow that starts after it activated: the same
    /// trace with the start, rates and finish 1 µs later still conserves
    /// bytes, and passes once the activation moves with them.
    #[test]
    fn the_oracle_rejects_a_start_later_than_the_activation() {
        use crate::trace_check::check_trace;
        let topo = Torus::new(&[4]);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let sim = Simulator::new(&topo);
        let (_, mut events) = traced(
            &sim,
            &b.build(),
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
        );
        for ev in &mut events {
            if let TraceEvent::FlowStarted { t, .. }
            | TraceEvent::RateRecompute { t, .. }
            | TraceEvent::FlowFinished { t, .. } = ev
            {
                *t += 1e-6;
            }
        }
        let err = check_trace(&events).unwrap_err();
        assert!(err.message.contains("started at"), "{err}");
        for ev in &mut events {
            if let TraceEvent::FlowActivated { t, .. } = ev {
                *t += 1e-6;
            }
        }
        check_trace(&events).unwrap();
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
    fn traced_paths_cover_links_and_nic_ports() {
        let topo = Torus::new(&[8]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(2), mb(1), &[]); // 2 hops + inj + ej
        b.add_flow(NodeId(4), NodeId(5), mb(2), &[]); // 1 hop + inj + ej
        let (r, mut events) = traced(
            &sim,
            &b.build(),
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
        );
        // The oracle held each flow's rate integral to its bytes over the
        // resources of its `flow_started` path.
        let (links, eps) = (r.num_links as u32, r.num_endpoints as u32);
        for (f, hops, src, dst) in [(0, 2, 0, 2), (1, 1, 4, 5)] {
            let path = started_path(&mut events, f).clone();
            assert_eq!(path.len(), hops + 2, "flow {f}: {path:?}");
            assert_eq!(path[0], links + src, "injection port first");
            assert_eq!(path[hops + 1], links + eps + dst, "ejection port last");
            assert!(path[1..=hops].iter().all(|&l| l < links), "{path:?}");
        }
    }

    // ---- fault injection ----

    use crate::fault::FaultEvent;
    use FaultAction::{Down, Up};

    /// A schedule that downs (or restores) both directions of each
    /// cable `a <-> b` at its time `t`, given as `(t, a, b, action)`.
    fn cables(topo: &dyn Topology, changes: &[(f64, u32, u32, FaultAction)]) -> FaultSchedule {
        let net = topo.network();
        let events = changes.iter().flat_map(|&(time_s, a, b, action)| {
            [(a, b), (b, a)].map(|(s, d)| FaultEvent {
                time_s,
                link: net.find_link(NodeId(s), NodeId(d)).unwrap().0,
                action,
            })
        });
        FaultSchedule::new(events.collect()).unwrap()
    }

    #[test]
    fn empty_schedule_reproduces_fault_free_run_exactly() {
        let topo = Torus::new(&[4, 4]);
        let sim = Simulator::new(&topo);
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
        let (_, plain_trace) = traced(
            &sim,
            &dag,
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
        );
        for policy in RecoveryPolicy::ALL {
            let faulted = sim
                .run_with(&dag, &FaultSchedule::empty(), policy, None)
                .unwrap();
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&faulted).unwrap(),
                "{policy:?}"
            );
            let (_, trace) = traced(&sim, &dag, &FaultSchedule::empty(), policy);
            assert_eq!(trace, plain_trace, "{policy:?}");
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
        let schedule = cables(&topo, &[(t_cut, 0, 1, Down)]);

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
        let schedule = cables(&topo, &[(t_cut, 0, 1, Down)]);
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
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        b.add_flow(NodeId(3), NodeId(0), mb(1), &[]);
        let dag = b.build();
        let t_cut = 0.5 * xfer(mb(1), 10.0 * GBPS);
        let schedule = cables(&topo, &[(t_cut, 0, 1, Down), (t_cut, 2, 3, Down)]);

        let (r, events) = traced(&sim, &dag, &schedule, RecoveryPolicy::SkipUnreachable);
        assert_eq!(r.skipped_flows, 1);
        assert_eq!(r.skipped_flow_ids, vec![0]);
        assert_eq!(r.delivered_flows(), 1);
        let times = resolve_times(&events, 2);
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
        let schedule = cables(&topo, &[(t_cut, 2, 3, Down), (t_cut, 3, 0, Down)]);

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

        let down = (0.0, 0, 1, Down);
        let repaired = cables(&topo, &[down, (1e-4, 0, 1, Up)]);
        let repaired = sim
            .run_with(&dag, &repaired, RecoveryPolicy::RerouteResume, None)
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
                &cables(&topo, &[down]),
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
        let schedule = cables(&topo, &[(1.0, 0, 1, Down)]);
        let r = sim
            .run_with(&b.build(), &schedule, RecoveryPolicy::Abort, None)
            .unwrap();
        assert_eq!(r.fault_events_applied, 0);
        assert!((r.makespan_seconds - xfer(mb(1), 10.0 * GBPS)).abs() < 1e-12);
    }

    #[test]
    fn fault_at_time_zero_shapes_initial_routes() {
        // Cable (0,1) is already down when the flow starts: the 0 -> 1
        // transfer detours 0-3-2-1 from the outset (same wire time — the
        // fluid model charges no per-hop cost) and the paths
        // avoid the dead link.
        let topo = Torus::new(&[4]);
        let sim = Simulator::new(&topo);
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), mb(1), &[]);
        let schedule = cables(&topo, &[(0.0, 0, 1, Down)]);
        let (r, events) = traced(&sim, &b.build(), &schedule, RecoveryPolicy::RerouteResume);
        assert_eq!(r.fault_events_applied, 2);
        let dead = topo.network().find_link(NodeId(0), NodeId(1)).unwrap();
        let paths: Vec<&Vec<u32>> = events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::FlowStarted { path, .. } | TraceEvent::RerouteTaken { path, .. } => {
                    Some(path)
                }
                _ => None,
            })
            .collect();
        // One path, never rerouted: the detour's three links between the
        // NIC ports, none of them the dead one. The oracle has held the
        // full megabyte to it.
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 3 + 2, "{paths:?}");
        assert!(!paths[0].contains(&dead.0), "dead link carried traffic");
    }
}
