//! Application-inspired workload generators.
//!
//! Every workload of the paper's §4.1 is a [`WorkloadSpec`] variant, which
//! generates a causal [`FlowDag`](exaflow_sim::FlowDag) over *tasks* that
//! a [`TaskMapping`] places onto topology endpoints:
//!
//! | paper name        | [`WorkloadSpec`] variant | pressure |
//! |-------------------|--------------------------|----------|
//! | Reduce            | `Reduce`                 | light    |
//! | AllReduce         | `AllReduce`              | heavy    |
//! | MapReduce         | `MapReduce`              | light    |
//! | Sweep3D           | `Sweep3d`                | light    |
//! | Flood             | `Flood`                  | light    |
//! | Near Neighbors    | `NearNeighbors`          | heavy    |
//! | n-Bodies          | `NBodies`                | heavy    |
//! | UnstructuredApp   | `UnstructuredApp`        | heavy    |
//! | UnstructuredMgnt  | `UnstructuredMgnt`       | light    |
//! | UnstructuredHR    | `UnstructuredHr`         | heavy    |
//! | Bisection         | `Bisection`              | heavy    |
//!
//! The heavy/light split above mirrors the paper's Figure 4 / Figure 5
//! grouping ("heavy" = long periods of congestion with a large proportion of
//! endpoints injecting at once; "light" = inter-message causality limits
//! concurrency).
//!
//! Generators model NIC behaviour the way a flow-level simulator must:
//! where a real implementation would emit many messages from one task, the
//! task's flows are chained (serialised per sender) so a single endpoint
//! does not enjoy unbounded parallel injection.
//!
//! All randomised workloads take an explicit seed and are fully
//! reproducible.

mod collectives;
mod grid;
mod mapping;
mod mapreduce;
mod nbodies;
mod spec;
mod sweep;
mod unstructured;

pub use mapping::TaskMapping;
pub use spec::WorkloadSpec;
