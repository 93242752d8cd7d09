//! Directed multigraph model for interconnection networks.
//!
//! This crate provides the structural substrate on which every topology in
//! the workspace is built: a compact, immutable [`Network`] of nodes and
//! capacitated unidirectional links, produced by a [`NetworkBuilder`].
//!
//! Design notes:
//!
//! * **Nodes** are either endpoints (compute nodes — QFDBs in the ExaNeSt
//!   system) or switches. Endpoints are required to occupy the id range
//!   `0..num_endpoints` so that higher layers can index per-endpoint state
//!   with plain vectors.
//! * **Links** are unidirectional and carry a capacity in bits/second.
//!   Bidirectional cables are modelled as a pair of opposite links
//!   ([`NetworkBuilder::add_duplex`]).
//! * **Virtual links** model per-endpoint injection/ejection (NIC) capacity.
//!   They participate in bandwidth sharing inside the flow simulator but are
//!   excluded from hop counts, matching how the ICPP 2019 paper reports
//!   distances (a torus counts only grid hops, yet the Reduce collective is
//!   still bottlenecked by the root's consumption port).
//! * Adjacency is stored in CSR form for cache-friendly traversal, per the
//!   Rust Performance Book guidance on compact contiguous layouts.

pub mod bfs;
pub mod builder;
pub mod dot;
pub mod hash;
pub mod ids;
pub mod network;
pub mod path;
pub mod stats;

pub use bfs::{bfs_distances, bfs_distances_physical, BfsScratch};
pub use builder::NetworkBuilder;
pub use dot::DotOptions;
pub use hash::{IntHasher, IntMap};
pub use ids::{LinkId, NodeId};
pub use network::{Link, Network, NodeKind};
pub use path::{validate_path, PathError};
pub use stats::NetworkStats;
