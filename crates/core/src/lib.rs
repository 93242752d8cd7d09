//! # exaflow
//!
//! A from-scratch Rust reproduction of *"Design Exploration of Multi-tier
//! Interconnection Networks for Exascale Systems"* (ICPP 2019): a
//! flow-level network simulator, the paper's four topology families
//! (torus, fattree, NestTree, NestGHC), its eleven application-inspired
//! workloads, and the experiment harness that regenerates every table and
//! figure.
//!
//! This facade crate ties the subsystem crates together:
//!
//! * [`exaflow_netgraph`] — graph substrate,
//! * [`exaflow_topo`] — topologies and routing,
//! * [`exaflow_sim`] — the fluid flow-level engine,
//! * [`exaflow_workloads`] — workload generators,
//! * [`exaflow_system`] — ExaNeSt packaging and cost model,
//! * [`exaflow_analysis`] — distance statistics,
//!
//! and adds declarative experiment configuration ([`ExperimentConfig`]),
//! execution ([`run_experiment`]), the paper's preset experiment grids
//! ([`presets`]) and its six artefacts, Tables 1–2 and Figures 2–5
//! ([`reproduce`]).
//!
//! ## Quick start
//!
//! ```
//! use exaflow::prelude::*;
//!
//! // A small NestGHC(t=2, u=4) system: 16 subtori of 2x2x2 QFDBs.
//! let topo = TopologySpec::Nested {
//!     upper: UpperTierKind::GeneralizedHypercube,
//!     subtori: 16,
//!     t: 2,
//!     u: 4,
//! }
//! .build()
//! .unwrap();
//!
//! // An 8-task AllReduce, tasks placed linearly.
//! let workload = WorkloadSpec::AllReduce { tasks: 8, bytes: 1 << 20 };
//! let mapping = TaskMapping::linear(8, topo.num_endpoints());
//! let dag = workload.generate(&mapping);
//!
//! let report = Simulator::new(topo.as_ref()).run(&dag).unwrap();
//! assert!(report.makespan_seconds > 0.0);
//! ```

pub mod analyze;
pub mod error;
pub mod experiment;
pub mod journal;
pub mod presets;
pub mod reproduce;
pub mod resilience;
pub mod scale;
pub mod suite;
pub mod topocache;
pub mod topospec;

pub use analyze::{
    analyze_distances, spec_seed, table1_specs, DistanceAnalysisReport, DistanceAnalysisRow,
    SourceBudget,
};
pub use error::ExperimentError;
pub use exaflow_analysis::scoped_map;
pub use experiment::{
    run_experiment, run_experiment_with, ExperimentConfig, ExperimentResult, FailureSpec,
    FaultInjectionSpec, MappingSpec,
};
pub use journal::{
    fingerprint, fingerprint_value, read_journal, Journal, JournalEntry, JournalIndex,
};
pub use resilience::{
    run_resilience_campaign, CellReport, ResilienceCampaignReport, ResilienceCampaignSpec,
};
pub use scale::SystemScale;
pub use suite::{ExperimentSuite, SuiteMetrics, SuiteReport, SuiteRun};
pub use topocache::{topology_cache_key, TopoCache, TopoCacheStats};
pub use topospec::TopologySpec;

// Re-export the subsystem crates under their natural names.
pub use exaflow_analysis as analysis;
pub use exaflow_netgraph as netgraph;
pub use exaflow_sim as sim;
pub use exaflow_system as system;
pub use exaflow_topo as topo;
pub use exaflow_workloads as workloads;

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::analyze::{
        analyze_distances, spec_seed, table1_specs, DistanceAnalysisReport, DistanceAnalysisRow,
        SourceBudget,
    };
    pub use crate::error::ExperimentError;
    pub use crate::experiment::{
        run_experiment, run_experiment_with, ExperimentConfig, ExperimentResult, FailureSpec,
        FaultInjectionSpec, MappingSpec,
    };
    pub use crate::journal::{
        fingerprint, fingerprint_value, read_journal, Journal, JournalEntry, JournalIndex,
    };
    pub use crate::presets;
    pub use crate::resilience::{
        run_resilience_campaign, CellReport, ResilienceCampaignReport, ResilienceCampaignSpec,
    };
    pub use crate::scale::SystemScale;
    pub use crate::suite::{ExperimentSuite, SuiteMetrics, SuiteReport, SuiteRun};
    pub use crate::topocache::{topology_cache_key, TopoCache, TopoCacheStats};
    pub use crate::topospec::TopologySpec;
    pub use exaflow_analysis::{
        distance_estimate, distance_stats_exact, distance_sweep, physical_distance_sweep,
        scoped_map, stratified_sources, DistanceStats,
    };
    pub use exaflow_netgraph::{LinkId, Network, NodeId};
    pub use exaflow_sim::{
        check_trace, check_trace_with_topology, parse_jsonl, FaultAction, FaultEvent,
        FaultSchedule, FaultScheduleSpec, FlowDag, FlowDagBuilder, JsonlSink, MetricsSnapshot,
        RecoveryPolicy, SimConfig, SimError, SimReport, Simulator, TraceEvent, TraceSink,
        TraceSummary, TraceViolation, VecSink,
    };
    pub use exaflow_system::{CostModel, SystemHierarchy};
    pub use exaflow_topo::{
        ConnectionRule, GeneralizedHypercube, KAryTree, Nested, Topology, Torus, UpperTierKind,
    };
    pub use exaflow_workloads::{TaskMapping, WorkloadSpec};
}
