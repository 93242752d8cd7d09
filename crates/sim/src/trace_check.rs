//! The trace oracle: replay an event trace and verify the engine's global
//! invariants independently of the engine that produced it.
//!
//! [`check_trace`] is a pure function over a complete [`TraceEvent`]
//! stream (as emitted by a traced [`Simulator`](crate::Simulator) run). It
//! rebuilds the run — per-flow state machines, the current rate
//! assignment, the set of failed links — and asserts:
//!
//! 1. **Monotone time** — event timestamps never decrease.
//! 2. **Byte conservation** — integrating each flow's allocated rate over
//!    its active lifetime delivers exactly its size (within the engine's
//!    completion-batching epsilon), restarting the count when a
//!    `reroute_restart` discards progress.
//! 3. **Capacity and max-min fairness** — at every rate recomputation, the
//!    allocations crossing each resource sum to at most its capacity, and
//!    every flow crosses at least one *saturated* resource on which no
//!    other flow has a higher rate. That bottleneck condition is the
//!    textbook characterisation of the max-min fair allocation — a
//!    feasible allocation satisfies it iff no flow can be raised without
//!    lowering one that is no faster — so it certifies the solver's output
//!    against the definition rather than against another run of the solver.
//! 4. **Dependencies** — a flow only activates after every DAG predecessor
//!    finished or was skipped.
//! 5. **Fault discipline** — flows are only skipped while at least one
//!    link is down, started/rerouted paths never cross a downed link, and
//!    fault events apply/clear links consistently: the header's run-long
//!    failures are down from the start, and no event clears one. With the
//!    topology in hand, [`check_trace_with_topology`] additionally proves
//!    every skipped flow's destination was *actually unreachable* under
//!    the failed links at skip time.
//! 6. **Canonical routes** — also with the topology: a flow's path is
//!    decided at its `flow_activated` and again at each `reroute_taken`,
//!    under the down set of that moment. Every `flow_started` and
//!    `reroute_taken` path must be the topology's own route when that
//!    route avoids every down link, and otherwise a detour as short as a
//!    BFS over the live links allows. So a route memoised in an
//!    earlier failure epoch, say a detour kept past its link's repair,
//!    fails the check.
//!
//! This gives the incremental solver, the fault machinery and the
//! coalescing layer an independent witness. [`textbook_maxmin`] is the
//! other one: plain progressive filling, which the engine's rates must
//! match bit for bit at every recompute ([`check_rates_against_textbook`]
//! replays a trace against it; the oracle above stays tolerance-based).

use crate::trace::TraceEvent;
use exaflow_netgraph::NodeId;
use exaflow_topo::Topology;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Aggregate facts established by a successful replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Events replayed (including the header).
    pub events: usize,
    /// Flows that activated.
    pub flows_activated: u64,
    /// Flows that delivered (degenerate flows included).
    pub flows_finished: u64,
    /// Flows dropped by the skip policy.
    pub flows_skipped: u64,
    /// Reroutes taken.
    pub reroutes: u64,
    /// Largest `allocated / capacity` seen on any resource.
    pub max_utilization: f64,
    /// Simulated time of the last event.
    pub end_time_s: f64,
    /// The trace ends in a terminal `budget_exhausted` /
    /// `deadline_exceeded` event: a legal cut, not a complete run, so
    /// mid-flight flows are permitted at end of trace.
    pub terminated: bool,
}

/// A broken invariant: which event tripped it and why.
#[derive(Clone, Debug)]
pub struct TraceViolation {
    /// Index into the event slice (`None`: a whole-trace property).
    pub index: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "trace event {i}: {}", self.message),
            None => write!(f, "trace: {}", self.message),
        }
    }
}

impl std::error::Error for TraceViolation {}

/// Relative slack for float accumulation beyond the engine's own batching
/// epsilon: integrating rates over thousands of intervals loses a few ulps.
const FLOAT_SLACK: f64 = 1e-6;
/// Relative capacity headroom: progressive filling saturates bottlenecks
/// exactly, so anything beyond rounding noise is a real violation. The
/// fairness certificate uses the same slack for "saturated" and for "no
/// other flow is faster".
const CAPACITY_SLACK: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Debug)]
enum FlowState {
    Pending,
    Activated,
    Started,
    Finished,
    Skipped,
}

struct FlowReplay {
    state: FlowState,
    /// `t` of the flow's `flow_activated`, which its `flow_started` shares.
    activated_at: f64,
    src: u32,
    dst: u32,
    bits: f64,
    /// Bits delivered so far under the rate integration.
    delivered: f64,
    /// Current resource path (set at start, replaced on reroute).
    path: Vec<u32>,
    /// What the flow's last routing decision had to produce (`None`
    /// without a topology).
    decided: Option<Canonical>,
}

/// The route a decision under a given down set must produce.
#[derive(Debug, PartialEq)]
enum Canonical {
    /// The topology's route, which avoids every down link: these links.
    Route(Vec<u32>),
    /// A detour of this many hops, the BFS distance over live links.
    Detour(usize),
    /// No live path.
    Unreachable,
}

/// Derive what routing `src → dst` under `down` must produce, sharing no
/// code with the engine's fault overlay: the topology's route, and when
/// that crosses a down link, a plain BFS over live links.
fn canonical_route(topo: &dyn Topology, src: u32, dst: u32, down: &BTreeSet<u32>) -> Canonical {
    let route = topo.route_vec(NodeId(src), NodeId(dst));
    if !route.iter().any(|l| down.contains(&l.0)) {
        return Canonical::Route(route.iter().map(|l| l.0).collect());
    }
    let net = topo.network();
    let mut hops = vec![usize::MAX; net.num_nodes()];
    hops[src as usize] = 0;
    let mut queue = VecDeque::from([NodeId(src)]);
    while let Some(node) = queue.pop_front() {
        for &l in net.out_links(node) {
            let link = net.link(l);
            let next = link.dst.index();
            if down.contains(&l.0) {
                continue;
            }
            if hops[next] == usize::MAX {
                hops[next] = hops[node.index()] + 1;
                queue.push_back(link.dst);
            }
        }
    }
    match hops[dst as usize] {
        usize::MAX => Canonical::Unreachable,
        h => Canonical::Detour(h),
    }
}

/// Verify a complete trace against the engine invariants. See the module
/// docs for the invariant list; returns a [`TraceSummary`] of the replay
/// or the first [`TraceViolation`] encountered.
pub fn check_trace(events: &[TraceEvent]) -> Result<TraceSummary, TraceViolation> {
    check_inner(events, None)
}

/// [`check_trace`], plus two checks that need the topology (invariants 5
/// and 6): the unreachability proof for every skipped flow, and the
/// canonical route of every started or rerouted path, each under the
/// failed-link set of its moment, run-long failures included. The topology
/// must be the healthy one that produced the trace; the header names the
/// links it lost for the run.
pub fn check_trace_with_topology(
    events: &[TraceEvent],
    topo: &dyn Topology,
) -> Result<TraceSummary, TraceViolation> {
    check_inner(events, Some(topo))
}

fn check_inner(
    events: &[TraceEvent],
    topo: Option<&dyn Topology>,
) -> Result<TraceSummary, TraceViolation> {
    let fail = |index: Option<usize>, message: String| TraceViolation { index, message };

    let Some(TraceEvent::RunStarted {
        flows,
        links,
        endpoints,
        batch_epsilon,
        capacities_bps,
        failed_links,
    }) = events.first()
    else {
        return Err(fail(
            Some(0),
            "trace must begin with a run_started header".into(),
        ));
    };
    let n = *flows as usize;
    let num_links = *links as u32;
    let num_resources = (*links + 2 * *endpoints) as u32;
    if capacities_bps.len() != num_resources as usize {
        return Err(fail(
            Some(0),
            format!(
                "header declares {num_resources} resources but carries {} capacities",
                capacities_bps.len()
            ),
        ));
    }
    if let Some(t) = topo {
        if t.network().num_links() as u64 != *links || t.num_endpoints() as u64 != *endpoints {
            return Err(fail(
                Some(0),
                format!(
                    "topology {} ({} links, {} endpoints) does not match the header \
                     ({links} links, {endpoints} endpoints)",
                    t.name(),
                    t.network().num_links(),
                    t.num_endpoints()
                ),
            ));
        }
    }

    let mut replay: Vec<FlowReplay> = (0..n)
        .map(|_| FlowReplay {
            state: FlowState::Pending,
            activated_at: 0.0,
            src: 0,
            dst: 0,
            bits: 0.0,
            delivered: 0.0,
            path: Vec::new(),
            decided: None,
        })
        .collect();
    if let Some(&link) = failed_links.iter().find(|&&l| l >= num_links) {
        return Err(fail(
            Some(0),
            format!("run-long failed link {link} out of range ({num_links} links)"),
        ));
    }
    // Current rate assignment: (flow, bits/second), valid since `last_t`.
    let mut current_rates: Vec<(u32, f64)> = Vec::new();
    let run_long: BTreeSet<u32> = failed_links.iter().copied().collect();
    let mut down = run_long.clone();
    // Per resource at the current recompute: (summed rate, highest rate).
    let mut load: HashMap<u32, (f64, f64)> = HashMap::new();
    let mut last_t = 0.0f64;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };

    let check_flow = |i: usize, f: u32| -> Result<usize, TraceViolation> {
        let idx = f as usize;
        if idx >= n {
            return Err(fail(
                Some(i),
                format!("flow {f} out of range (dag has {n})"),
            ));
        }
        Ok(idx)
    };
    let check_path = |i: usize, path: &[u32], down: &BTreeSet<u32>| -> Result<(), TraceViolation> {
        if path.len() < 2 {
            return Err(fail(
                Some(i),
                format!("path {path:?} lacks the injection/ejection resources"),
            ));
        }
        for &r in path {
            if r >= num_resources {
                return Err(fail(
                    Some(i),
                    format!("path resource {r} out of range ({num_resources} resources)"),
                ));
            }
            if r < num_links && down.contains(&r) {
                return Err(fail(Some(i), format!("path crosses downed link {r}")));
            }
        }
        Ok(())
    };
    // The path of `flow` against its last routing decision; `check_path`
    // has vouched for the injection and ejection resources at the ends.
    let check_canonical = |i: usize, flow: u32, path: &[u32], want: &Option<Canonical>| {
        let links = &path[1..path.len() - 1];
        let message = match want {
            Some(Canonical::Route(route)) if links != route.as_slice() => format!(
                "flow {flow} took links {links:?}, not the topology's route {route:?}, \
                 which avoided every down link when it was routed"
            ),
            Some(Canonical::Detour(hops)) if links.len() != *hops => format!(
                "flow {flow} took a {}-hop detour; the shortest over live links had \
                 {hops} hops when it was routed",
                links.len()
            ),
            Some(Canonical::Unreachable) => {
                format!("flow {flow} was routed although no live path existed")
            }
            _ => return Ok(()),
        };
        Err(fail(Some(i), message))
    };
    let decide =
        |src: u32, dst: u32, down: &BTreeSet<u32>| topo.map(|t| canonical_route(t, src, dst, down));

    for (i, ev) in events.iter().enumerate() {
        if summary.terminated {
            return Err(fail(
                Some(i),
                format!("event {ev:?} after a terminal budget/deadline cut"),
            ));
        }
        if let Some(t) = ev.time() {
            if t < last_t {
                return Err(fail(
                    Some(i),
                    format!("time went backwards: {t} after {last_t}"),
                ));
            }
            if t > last_t {
                // The rate assignment from the last recompute held for the
                // whole interval: integrate every active flow's delivery.
                let dt = t - last_t;
                for &(f, rate) in &current_rates {
                    replay[f as usize].delivered += rate * dt;
                }
                last_t = t;
            }
        }

        match ev {
            TraceEvent::RunStarted { .. } => {
                if i != 0 {
                    return Err(fail(Some(i), "duplicate run_started header".into()));
                }
            }
            TraceEvent::FlowActivated {
                t,
                flow,
                src,
                dst,
                bytes,
                preds,
            } => {
                let idx = check_flow(i, *flow)?;
                if replay[idx].state != FlowState::Pending {
                    return Err(fail(
                        Some(i),
                        format!("flow {flow} activated twice ({:?})", replay[idx].state),
                    ));
                }
                for &p in preds {
                    let pidx = check_flow(i, p)?;
                    if !matches!(replay[pidx].state, FlowState::Finished | FlowState::Skipped) {
                        return Err(fail(
                            Some(i),
                            format!(
                                "flow {flow} activated before predecessor {p} resolved \
                                 ({:?})",
                                replay[pidx].state
                            ),
                        ));
                    }
                }
                replay[idx].state = FlowState::Activated;
                replay[idx].activated_at = *t;
                replay[idx].src = *src;
                replay[idx].dst = *dst;
                replay[idx].bits = *bytes as f64 * 8.0;
                replay[idx].decided = decide(*src, *dst, &down);
                summary.flows_activated += 1;
            }
            TraceEvent::FlowStarted { t, flow, path } => {
                let idx = check_flow(i, *flow)?;
                if replay[idx].state != FlowState::Activated {
                    return Err(fail(
                        Some(i),
                        format!(
                            "flow {flow} started from state {:?} (want activated)",
                            replay[idx].state
                        ),
                    ));
                }
                // A routed flow starts at the instant it activates.
                if *t != replay[idx].activated_at {
                    return Err(fail(
                        Some(i),
                        format!(
                            "flow {flow} started at {t} but activated at {}",
                            replay[idx].activated_at
                        ),
                    ));
                }
                check_path(i, path, &down)?;
                check_canonical(i, *flow, path, &replay[idx].decided)?;
                replay[idx].state = FlowState::Started;
                replay[idx].path = path.clone();
            }
            TraceEvent::FlowFinished { flow, .. } => {
                let idx = check_flow(i, *flow)?;
                match replay[idx].state {
                    // A started flow must have delivered its bytes.
                    FlowState::Started => {
                        let bits = replay[idx].bits;
                        let tol = bits * (batch_epsilon + FLOAT_SLACK) + 1.0;
                        let got = replay[idx].delivered;
                        if (got - bits).abs() > tol {
                            return Err(fail(
                                Some(i),
                                format!(
                                    "flow {flow} finished having delivered {got} of {bits} \
                                     bits (tolerance {tol})"
                                ),
                            ));
                        }
                    }
                    // Degenerate flows (zero bytes, self-traffic) finish
                    // straight from activation without transferring.
                    FlowState::Activated => {}
                    other => {
                        return Err(fail(
                            Some(i),
                            format!("flow {flow} finished from state {other:?}"),
                        ));
                    }
                }
                replay[idx].state = FlowState::Finished;
                current_rates.retain(|&(f, _)| f != *flow);
                summary.flows_finished += 1;
            }
            TraceEvent::FlowSkipped { flow, .. } => {
                let idx = check_flow(i, *flow)?;
                if !matches!(replay[idx].state, FlowState::Activated | FlowState::Started) {
                    return Err(fail(
                        Some(i),
                        format!("flow {flow} skipped from state {:?}", replay[idx].state),
                    ));
                }
                if down.is_empty() {
                    return Err(fail(
                        Some(i),
                        format!("flow {flow} skipped with no link down"),
                    ));
                }
                // The skip policy's claim, re-proved from scratch: under
                // exactly the currently-failed links, no route exists.
                let (src, dst) = (replay[idx].src, replay[idx].dst);
                if decide(src, dst, &down).is_some_and(|c| c != Canonical::Unreachable) {
                    return Err(fail(
                        Some(i),
                        format!(
                            "flow {flow} ({src} -> {dst}) skipped although a route \
                             exists around the {} failed link(s)",
                            down.len()
                        ),
                    ));
                }
                replay[idx].state = FlowState::Skipped;
                current_rates.retain(|&(f, _)| f != *flow);
                summary.flows_skipped += 1;
            }
            TraceEvent::RateRecompute {
                flows, rates_bps, ..
            } => {
                if flows.len() != rates_bps.len() {
                    return Err(fail(
                        Some(i),
                        format!(
                            "{} flows but {} rates in recompute",
                            flows.len(),
                            rates_bps.len()
                        ),
                    ));
                }
                // The assignment must cover exactly the started flows...
                let started: BTreeSet<u32> = replay
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.state == FlowState::Started)
                    .map(|(f, _)| f as u32)
                    .collect();
                let assigned: BTreeSet<u32> = flows.iter().copied().collect();
                if assigned != started {
                    return Err(fail(
                        Some(i),
                        format!(
                            "recompute covers flows {assigned:?} but the started set is \
                             {started:?}"
                        ),
                    ));
                }
                // ...with finite non-negative rates that fit every resource.
                load.clear();
                for (&f, &rate) in flows.iter().zip(rates_bps) {
                    if !(rate.is_finite() && rate >= 0.0) {
                        return Err(fail(Some(i), format!("flow {f} assigned rate {rate}")));
                    }
                    for &r in &replay[f as usize].path {
                        let slot = load.entry(r).or_insert((0.0, 0.0));
                        slot.0 += rate;
                        slot.1 = slot.1.max(rate);
                    }
                }
                for (&r, &(l, _)) in &load {
                    let cap = capacities_bps[r as usize];
                    if l > cap * (1.0 + CAPACITY_SLACK) {
                        return Err(fail(
                            Some(i),
                            format!("resource {r} loaded to {l} bps over capacity {cap}"),
                        ));
                    }
                    if cap > 0.0 {
                        summary.max_utilization = summary.max_utilization.max(l / cap);
                    }
                }
                // Fairness certificate: each flow has a bottleneck — a
                // saturated resource on its path where it is (one of) the
                // fastest flows.
                for (&f, &rate) in flows.iter().zip(rates_bps) {
                    let bottlenecked = replay[f as usize].path.iter().any(|r| {
                        let (l, fastest) = load[r];
                        l >= capacities_bps[*r as usize] * (1.0 - CAPACITY_SLACK)
                            && rate >= fastest * (1.0 - CAPACITY_SLACK)
                    });
                    if !bottlenecked {
                        return Err(fail(
                            Some(i),
                            format!(
                                "flow {f} at {rate} bps is not max-min fair: no resource on \
                                 its path is saturated with it among the fastest"
                            ),
                        ));
                    }
                }
                current_rates = flows
                    .iter()
                    .copied()
                    .zip(rates_bps.iter().copied())
                    .collect();
            }
            TraceEvent::FaultApplied { link, .. } => {
                if *link >= num_links {
                    return Err(fail(
                        Some(i),
                        format!("fault on link {link} out of range ({num_links} links)"),
                    ));
                }
                if !down.insert(*link) {
                    return Err(fail(
                        Some(i),
                        format!("link {link} failed while already down"),
                    ));
                }
            }
            TraceEvent::FaultCleared { link, .. } => {
                if run_long.contains(link) {
                    return Err(fail(
                        Some(i),
                        format!("link {link} repaired although it failed for the run"),
                    ));
                }
                if !down.remove(link) {
                    return Err(fail(
                        Some(i),
                        format!("link {link} repaired while not down"),
                    ));
                }
            }
            TraceEvent::RerouteTaken {
                flow,
                path,
                restarted,
                ..
            } => {
                let idx = check_flow(i, *flow)?;
                // Only a transferring flow holds a path a fault can cut.
                if replay[idx].state != FlowState::Started {
                    return Err(fail(
                        Some(i),
                        format!(
                            "flow {flow} rerouted from state {:?} (want started)",
                            replay[idx].state
                        ),
                    ));
                }
                check_path(i, path, &down)?;
                replay[idx].path = path.clone();
                replay[idx].decided = decide(replay[idx].src, replay[idx].dst, &down);
                check_canonical(i, *flow, path, &replay[idx].decided)?;
                if *restarted {
                    // Restart discards progress: the delivery count begins
                    // again and must still reach the full size.
                    replay[idx].delivered = 0.0;
                }
                summary.reroutes += 1;
            }
            TraceEvent::BudgetExhausted { .. } | TraceEvent::DeadlineExceeded { .. } => {
                // Legal cut point: everything up to here obeyed the
                // invariants (monotone time, conservation, capacities);
                // the run just did not get to finish. Nothing may follow.
                summary.terminated = true;
            }
        }
    }

    // A complete run leaves no flow mid-flight; a budget/deadline cut is
    // allowed to — conservation was checked up to the cut point.
    if !summary.terminated {
        for (f, r) in replay.iter().enumerate() {
            if matches!(r.state, FlowState::Activated | FlowState::Started) {
                return Err(fail(
                    None,
                    format!("flow {f} never resolved (trace ends in {:?})", r.state),
                ));
            }
        }
    }
    summary.end_time_s = last_t;
    Ok(summary)
}

/// Textbook progressive filling: repeatedly scan every resource that still
/// carries an unfrozen flow for the smallest `(max(0, remaining / count),
/// id)`, freeze that resource's unfrozen flows at that share, and subtract
/// the share from every resource each of them crosses, once per flow.
/// Returns each flow's rate (`INFINITY` for an empty path) and the number
/// of rounds — one per bottleneck frozen.
///
/// No heap, no incidence reuse, no coalescing: the independent reference
/// the solver is held to bit for bit, because it performs the same
/// floating-point operations on every resource in the same order.
pub fn textbook_maxmin<P: AsRef<[u32]>>(caps: &[f64], paths: &[P]) -> (Vec<f64>, u64) {
    let mut remaining = caps.to_vec();
    let mut count = vec![0u32; caps.len()];
    let mut crossing: Vec<Vec<usize>> = vec![Vec::new(); caps.len()];
    for (f, path) in paths.iter().enumerate() {
        for &r in path.as_ref() {
            count[r as usize] += 1;
            crossing[r as usize].push(f);
        }
    }
    let mut rates = vec![f64::INFINITY; paths.len()];
    let mut frozen: Vec<bool> = paths.iter().map(|p| p.as_ref().is_empty()).collect();
    // Resources with an unfrozen flow, in id order; drained ones drop out.
    let mut live: Vec<usize> = (0..caps.len()).filter(|&r| count[r] > 0).collect();
    let mut rounds = 0;
    loop {
        let mut best: Option<(f64, usize)> = None;
        live.retain(|&r| {
            if count[r] == 0 {
                return false;
            }
            let share = (remaining[r] / count[r] as f64).max(0.0);
            if best.is_none_or(|(s, _)| share < s) {
                best = Some((share, r));
            }
            true
        });
        let Some((share, r)) = best else {
            return (rates, rounds);
        };
        rounds += 1;
        for &f in &crossing[r] {
            if std::mem::replace(&mut frozen[f], true) {
                continue;
            }
            rates[f] = share;
            for &r2 in paths[f].as_ref() {
                count[r2 as usize] -= 1;
                remaining[r2 as usize] -= share;
            }
        }
    }
}

/// Replay `events` and hold every `rate_recompute` to [`textbook_maxmin`]
/// bit for bit, over the active flows' current paths (each flow's latest
/// `flow_started` or `reroute_taken`). Returns the number of recomputes
/// checked, or the first rate that differs.
pub fn check_rates_against_textbook(events: &[TraceEvent]) -> Result<usize, TraceViolation> {
    let Some(TraceEvent::RunStarted {
        flows,
        capacities_bps,
        ..
    }) = events.first()
    else {
        return Err(TraceViolation {
            index: Some(0),
            message: "trace must start with run_started".into(),
        });
    };
    let mut path_of: Vec<Vec<u32>> = vec![Vec::new(); *flows as usize];
    let mut recomputes = 0;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            TraceEvent::FlowStarted { flow, path, .. }
            | TraceEvent::RerouteTaken { flow, path, .. } => {
                path_of[*flow as usize].clone_from(path);
            }
            TraceEvent::RateRecompute {
                flows, rates_bps, ..
            } => {
                let paths: Vec<&[u32]> = flows.iter().map(|&f| &path_of[f as usize][..]).collect();
                let (want, _) = textbook_maxmin(capacities_bps, &paths);
                let bad = flows
                    .iter()
                    .zip(rates_bps.iter().zip(&want))
                    .find(|(_, (got, want))| got.to_bits() != want.to_bits());
                if let Some((f, (got, want))) = bad {
                    return Err(TraceViolation {
                        index: Some(i),
                        message: format!("flow {f}: engine {got:e} != textbook {want:e}"),
                    });
                }
                recomputes += 1;
            }
            _ => {}
        }
    }
    Ok(recomputes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(flows: u64) -> TraceEvent {
        TraceEvent::RunStarted {
            flows,
            links: 2,
            endpoints: 2,
            batch_epsilon: 1e-9,
            capacities_bps: vec![1e9; 6],
            failed_links: vec![],
        }
    }

    fn activated(flow: u32, t: f64) -> TraceEvent {
        TraceEvent::FlowActivated {
            t,
            flow,
            src: 0,
            dst: 1,
            bytes: 1000,
            preds: vec![],
        }
    }

    fn well_formed() -> Vec<TraceEvent> {
        vec![
            header(1),
            activated(0, 0.0),
            TraceEvent::FlowStarted {
                t: 0.0,
                flow: 0,
                path: vec![2, 0, 5],
            },
            TraceEvent::RateRecompute {
                t: 0.0,
                flows: vec![0],
                rates_bps: vec![1e9],
                entries_solved: 1,
                full_pass: true,
            },
            TraceEvent::FlowFinished { t: 8e-6, flow: 0 },
        ]
    }

    #[test]
    fn textbook_maxmin_fills_progressively() {
        // Link 0 (cap 1) is shared by flows 0 and 1, link 1 (cap 10) by
        // flows 0 and 2: round 1 freezes flows 0 and 1 at 0.5 on link 0,
        // round 2 gives flow 2 the 9.5 left on link 1.
        let (rates, rounds) = textbook_maxmin(&[1.0, 10.0], &[vec![0, 1], vec![0], vec![1]]);
        assert_eq!(rates, vec![0.5, 0.5, 9.5]);
        assert_eq!(rounds, 2);
        let (rates, rounds) = textbook_maxmin::<&[u32]>(&[1.0], &[&[], &[0]]);
        assert_eq!(rates, vec![f64::INFINITY, 1.0]);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn textbook_maxmin_clamps_and_breaks_ties_by_resource_id() {
        // Resource 0 (4d / 4 flows) ties with resource 1 (3d / 5 flows,
        // which rounds up to d) and wins on the lower id; resource 1 is
        // then left at -d for its last flow, which the clamp rates 0.
        let d = f64::from_bits(1);
        let paths: Vec<&[u32]> = vec![&[0, 1], &[0, 1], &[0, 1], &[0, 1], &[1]];
        let (rates, rounds) = textbook_maxmin(&[4.0 * d, 3.0 * d], &paths);
        assert_eq!(rates, vec![d, d, d, d, 0.0]);
        assert_eq!(rounds, 2);
    }

    /// A rate one ulp under the textbook's passes the tolerance-based
    /// oracle but not the bit-for-bit replay.
    #[test]
    fn the_textbook_replay_rejects_a_rate_one_ulp_off() {
        assert_eq!(check_rates_against_textbook(&well_formed()).unwrap(), 1);
        let mut t = well_formed();
        let TraceEvent::RateRecompute { rates_bps, .. } = &mut t[3] else {
            unreachable!()
        };
        rates_bps[0] = f64::from_bits(1e9f64.to_bits() - 1);
        assert!(check_trace(&t).is_ok());
        let err = check_rates_against_textbook(&t).unwrap_err();
        assert_eq!(err.index, Some(3));
        assert!(err.message.contains("textbook"), "{err}");
        let err = check_rates_against_textbook(&t[1..]).unwrap_err();
        assert!(err.message.contains("run_started"), "{err}");
    }

    #[test]
    fn accepts_a_well_formed_trace() {
        let s = check_trace(&well_formed()).unwrap();
        assert_eq!(s.flows_finished, 1);
        assert_eq!(s.end_time_s, 8e-6);
        assert!((s.max_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_a_missing_header() {
        let err = check_trace(&well_formed()[1..]).unwrap_err();
        assert!(err.message.contains("run_started"), "{err}");
    }

    #[test]
    fn rejects_backwards_time() {
        let mut t = well_formed();
        t.push(TraceEvent::FaultApplied { t: 1e-6, link: 0 });
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("backwards"), "{err}");
    }

    #[test]
    fn rejects_missing_bytes() {
        let mut t = well_formed();
        // Finishing at half the wire time means half the bits arrived.
        t[4] = TraceEvent::FlowFinished { t: 4e-6, flow: 0 };
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("delivered"), "{err}");
    }

    #[test]
    fn rejects_overcommitted_resources() {
        let mut t = well_formed();
        t[3] = TraceEvent::RateRecompute {
            t: 0.0,
            flows: vec![0],
            rates_bps: vec![2e9],
            entries_solved: 1,
            full_pass: true,
        };
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("over capacity"), "{err}");
    }

    /// Two flows started on the one path `[2, 0, 5]`, rated as given.
    fn two_flows_rated(rates_bps: Vec<f64>) -> Vec<TraceEvent> {
        let mut t = vec![header(2), activated(0, 0.0), activated(1, 0.0)];
        t.extend((0..2).map(|flow| TraceEvent::FlowStarted {
            t: 0.0,
            flow,
            path: vec![2, 0, 5],
        }));
        t.push(TraceEvent::RateRecompute {
            t: 0.0,
            flows: vec![0, 1],
            rates_bps,
            entries_solved: 2,
            full_pass: true,
        });
        t.push(TraceEvent::BudgetExhausted { t: 0.0, events: 1 });
        t
    }

    #[test]
    fn rejects_an_unfair_allocation() {
        // 0.3 / 0.7 of the shared link: feasible and work-conserving, but
        // the slower flow has no bottleneck where it is among the fastest.
        let err = check_trace(&two_flows_rated(vec![0.3e9, 0.7e9])).unwrap_err();
        assert!(err.message.contains("flow 0"), "{err}");
        assert!(err.message.contains("max-min"), "{err}");
        check_trace(&two_flows_rated(vec![0.5e9, 0.5e9])).unwrap();
    }

    #[test]
    fn rejects_an_unsaturated_allocation() {
        // Equal rates that leave a fifth of the link idle: both flows could
        // be raised, so neither has a saturated resource on its path.
        let err = check_trace(&two_flows_rated(vec![0.4e9, 0.4e9])).unwrap_err();
        assert!(err.message.contains("max-min"), "{err}");
    }

    #[test]
    fn rejects_unresolved_dependencies() {
        let t = vec![
            header(2),
            TraceEvent::FlowActivated {
                t: 0.0,
                flow: 1,
                src: 0,
                dst: 1,
                bytes: 0,
                preds: vec![0],
            },
        ];
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("predecessor"), "{err}");
    }

    #[test]
    fn rejects_a_skip_without_a_fault() {
        let t = vec![
            header(1),
            activated(0, 0.0),
            TraceEvent::FlowSkipped { t: 0.0, flow: 0 },
        ];
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("no link down"), "{err}");
    }

    #[test]
    fn rejects_an_unfinished_run() {
        let t = vec![header(1), activated(0, 0.0)];
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("never resolved"), "{err}");
    }

    #[test]
    fn rejects_paths_crossing_downed_links() {
        let t = vec![
            header(1),
            TraceEvent::FaultApplied { t: 0.0, link: 0 },
            activated(0, 0.0),
            TraceEvent::FlowStarted {
                t: 0.0,
                flow: 0,
                path: vec![2, 0, 5],
            },
        ];
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("downed link"), "{err}");
    }

    #[test]
    fn restart_resets_the_delivery_count() {
        let mut t = well_formed();
        t.insert(
            4,
            TraceEvent::RerouteTaken {
                t: 4e-6,
                flow: 0,
                path: vec![2, 1, 5],
                restarted: true,
            },
        );
        // After a restart at the halfway point, finishing at the original
        // time means only half the bits arrived on the second attempt.
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("delivered"), "{err}");
        // Give the retransmission its full wire time and the trace passes.
        let last = t.len() - 1;
        t[last] = TraceEvent::FlowFinished { t: 12e-6, flow: 0 };
        check_trace(&t).unwrap();
    }

    #[test]
    fn skip_unreachability_is_proved_against_the_topology() {
        use exaflow_topo::Torus;
        let topo = Torus::new(&[4]);
        let net = topo.network();
        let net_links = net.num_links() as u64;
        let eps = topo.num_endpoints() as u64;
        let header = TraceEvent::RunStarted {
            flows: 1,
            links: net_links,
            endpoints: eps,
            batch_epsilon: 1e-9,
            capacities_bps: vec![1e9; (net_links + 2 * eps) as usize],
            failed_links: vec![],
        };
        // Failing only the reverse cable 1 -> 0 leaves 0 -> 1 reachable:
        // the oracle must reject the skip.
        let reverse = net.find_link(NodeId(1), NodeId(0)).unwrap().0;
        let one_down = vec![
            header.clone(),
            TraceEvent::FaultApplied {
                t: 0.0,
                link: reverse,
            },
            activated(0, 0.0),
            TraceEvent::FlowSkipped { t: 0.0, flow: 0 },
        ];
        let err = check_trace_with_topology(&one_down, &topo).unwrap_err();
        assert!(err.message.contains("route exists"), "{err}");
        // Failing every link genuinely cuts 0 off from 1.
        let mut t = vec![header, activated(0, 0.0)];
        t.extend((0..net_links as u32).map(|l| TraceEvent::FaultApplied { t: 0.0, link: l }));
        t.push(TraceEvent::FlowSkipped { t: 0.0, flow: 0 });
        let s = check_trace_with_topology(&t, &topo).unwrap();
        assert_eq!(s.flows_skipped, 1);
    }

    /// A 3x4 torus with the cable between nodes 0 and 1 cut for the run,
    /// one flow 0 -> 1 started on `detour` (links through the node ids
    /// given), then a terminal cut.
    fn run_long_detour_trace(detour: &[u32]) -> (exaflow_topo::Torus, Vec<TraceEvent>) {
        let topo = exaflow_topo::Torus::new(&[3, 4]);
        let net = topo.network();
        let link = |a: u32, b: u32| net.find_link(NodeId(a), NodeId(b)).unwrap().0;
        let (links, eps) = (net.num_links() as u64, topo.num_endpoints() as u64);
        let mut path = vec![links as u32];
        path.extend(detour.windows(2).map(|w| link(w[0], w[1])));
        path.push((links + eps + 1) as u32);
        let mut cut = vec![link(0, 1), link(1, 0)];
        cut.sort_unstable();
        let trace = vec![
            TraceEvent::RunStarted {
                flows: 1,
                links,
                endpoints: eps,
                batch_epsilon: 1e-9,
                capacities_bps: vec![1e9; (links + 2 * eps) as usize],
                failed_links: cut,
            },
            activated(0, 0.0),
            TraceEvent::FlowStarted {
                t: 0.0,
                flow: 0,
                path,
            },
            TraceEvent::BudgetExhausted { t: 0.0, events: 0 },
        ];
        (topo, trace)
    }

    #[test]
    fn run_long_detours_are_held_to_the_live_bfs() {
        // Around the cut, the dimension-0 ring gives 0 -> 2 -> 1 (2 hops);
        // the detour through dimension 1 is one hop longer and must fail.
        let (topo, shortest) = run_long_detour_trace(&[0, 2, 1]);
        check_trace_with_topology(&shortest, &topo).unwrap();
        let (topo, longer) = run_long_detour_trace(&[0, 3, 4, 1]);
        let err = check_trace_with_topology(&longer, &topo).unwrap_err();
        assert!(err.message.contains("3-hop detour"), "{err}");
        // The run-long cut is down from the start: the nominal route
        // crosses it.
        let (topo, nominal) = run_long_detour_trace(&[0, 1]);
        let err = check_trace_with_topology(&nominal, &topo).unwrap_err();
        assert!(err.message.contains("downed link"), "{err}");
    }

    #[test]
    fn run_long_failures_are_never_repaired() {
        let (_, mut t) = run_long_detour_trace(&[0, 2, 1]);
        let TraceEvent::RunStarted { failed_links, .. } = &t[0] else {
            unreachable!()
        };
        let link = failed_links[0];
        t.insert(1, TraceEvent::FaultCleared { t: 0.0, link });
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("failed for the run"), "{err}");

        let mut out_of_range = header(0);
        if let TraceEvent::RunStarted { failed_links, .. } = &mut out_of_range {
            failed_links.push(2);
        }
        let err = check_trace(&[out_of_range]).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn budget_terminated_trace_is_legal_despite_midflight_flows() {
        // Flow 0 starts but never finishes; the terminal cut makes that OK.
        let t = vec![
            header(1),
            activated(0, 0.0),
            TraceEvent::FlowStarted {
                t: 0.0,
                flow: 0,
                path: vec![2, 0, 5],
            },
            TraceEvent::RateRecompute {
                t: 0.0,
                flows: vec![0],
                rates_bps: vec![1e9],
                entries_solved: 1,
                full_pass: true,
            },
            TraceEvent::BudgetExhausted { t: 4e-6, events: 1 },
        ];
        let s = check_trace(&t).unwrap();
        assert!(s.terminated);
        assert_eq!(s.flows_activated, 1);
        assert_eq!(s.flows_finished, 0);
        assert_eq!(s.end_time_s, 4e-6);

        // Without the terminal event the same trace is incomplete.
        let incomplete = &t[..t.len() - 1];
        let err = check_trace(incomplete).unwrap_err();
        assert!(err.message.contains("never resolved"), "{err}");
    }

    #[test]
    fn deadline_terminated_trace_still_checks_conservation_to_the_cut() {
        // 1000 bytes at 1e9 bps finish at 8e-6; claiming completion after a
        // deadline cut placed *before* enough bytes flowed must still fail.
        let t = vec![
            header(1),
            activated(0, 0.0),
            TraceEvent::FlowStarted {
                t: 0.0,
                flow: 0,
                path: vec![2, 0, 5],
            },
            TraceEvent::RateRecompute {
                t: 0.0,
                flows: vec![0],
                rates_bps: vec![1e9],
                entries_solved: 1,
                full_pass: true,
            },
            TraceEvent::FlowFinished { t: 1e-6, flow: 0 },
            TraceEvent::DeadlineExceeded { t: 1e-6, events: 2 },
        ];
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("delivered"), "{err}");

        // Time must stay monotone across the terminal event too.
        let backwards = vec![
            header(0),
            TraceEvent::FaultApplied { t: 1.0, link: 0 },
            TraceEvent::DeadlineExceeded { t: 0.5, events: 1 },
        ];
        let err = check_trace(&backwards).unwrap_err();
        assert!(err.message.contains("backwards"), "{err}");
    }

    #[test]
    fn events_after_a_terminal_cut_are_rejected() {
        let t = vec![
            header(1),
            TraceEvent::BudgetExhausted { t: 0.0, events: 0 },
            activated(0, 0.0),
        ];
        let err = check_trace(&t).unwrap_err();
        assert!(err.message.contains("after a terminal"), "{err}");
    }
}
