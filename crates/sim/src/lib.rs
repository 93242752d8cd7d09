//! Flow-level (fluid) interconnection-network simulator.
//!
//! This crate reimplements, from scratch, the simulation model the paper
//! attributes to INRFlow: workloads are DAGs of *flows* (src endpoint, dst
//! endpoint, size in bytes, causal dependencies). At any instant the set of
//! active flows shares the network under **max-min fairness**: every flow
//! gets the largest rate such that no link (or endpoint injection/ejection
//! port) exceeds its capacity and no flow could be sped up without slowing a
//! poorer one. Time advances from flow completion to flow completion; a
//! completed flow releases its bandwidth and unblocks its dependents.
//!
//! Key design points:
//!
//! * **Resources** are the unidirectional links of the topology plus one
//!   injection and one ejection resource per endpoint (the NIC). The
//!   ejection resource is what serialises an N-to-1 Reduce at the root — the
//!   paper's explanation for Reduce being topology-insensitive.
//! * **Max-min** is computed by progressive filling with an indexed
//!   min-heap over resources ([`maxmin`]), `O(Σ path length · log R)` per
//!   recomputation.
//! * **Incremental rate allocation**: between events the solver keeps a
//!   persistent flow–resource incidence and the freeze log of its last
//!   pass; each pass merges that log with a heap over the resources an
//!   arrival/departure/reroute reached, so it costs the rounds the change
//!   reaches. Active flows with identical paths share one weighted
//!   entry. Rates are **bit-identical** to textbook progressive filling
//!   over the active set (argued in [`maxmin`], checked at every recompute
//!   against [`trace_check::textbook_maxmin`] by the equivalence suites).
//! * **One path table per run** ([`paths`]): a route is interned by content
//!   when first built; the route memo, the active set and the solver hold
//!   its [`PathId`], which is also the path's solver entry. Between events
//!   the engine only moves entry weights, which the solver settles at the
//!   next recompute — a completion batch that re-issues the paths it
//!   retired costs no water-fill. The solver's weights are the one record
//!   of which paths are in use: the table frees the paths a settle let go
//!   of once they outnumber the live ones, so its memory, like the active
//!   set's transfer state, follows the flows in flight, not the run.
//! * **Batched completions** ([`engine`]): all flows finishing within a
//!   relative `epsilon` of the earliest completion are retired in one event,
//!   so symmetric workloads (collectives, stencils) advance in a handful of
//!   events per phase instead of one event per flow.
//! * **Mid-run fault injection** ([`fault`]): a [`FaultSchedule`] of
//!   link-down/link-up events is consumed alongside completion events;
//!   interrupted flows are aborted, dropped, or rerouted (resuming or
//!   restarting the transfer) per the configured [`RecoveryPolicy`].
//! * **One thread per run**: the engine is sequential. Parallelism pays
//!   across runs (suites, campaigns, distance sweeps), never inside one
//!   water-fill.
//! * **Event tracing + metrics** ([`trace`], zero-cost when off): a traced
//!   run streams every state transition to a [`TraceSink`] and aggregates
//!   counters into [`SimReport::metrics`]; the pure
//!   [`trace_check`] oracle replays a trace and independently verifies
//!   byte conservation, capacity limits, time monotonicity, dependency
//!   order, skip-unreachability and canonical routes.

pub mod dag;
pub mod engine;
pub mod error;
pub mod fault;
pub mod maxmin;
pub mod paths;
pub mod report;
pub mod trace;
pub mod trace_check;

pub use dag::{FlowDag, FlowDagBuilder, FlowId, FlowSpec};
pub use engine::{SimConfig, Simulator};
pub use error::SimError;
pub use fault::{
    random_cable_failures, FaultAction, FaultEvent, FaultSchedule, FaultScheduleSpec,
    RecoveryPolicy,
};
pub use paths::{PathId, PathTable};
pub use report::SimReport;
pub use trace::{parse_jsonl, JsonlSink, MetricsSnapshot, TraceEvent, TraceSink, VecSink};
pub use trace_check::{check_trace, check_trace_with_topology, TraceSummary, TraceViolation};
