//! Directed multigraph model for interconnection networks.
//!
//! This crate provides the structural substrate on which every topology in
//! the workspace is built: a compact, immutable [`Network`] of nodes and
//! unidirectional links, produced by a [`NetworkBuilder`].
//!
//! Design notes:
//!
//! * **Nodes** are either endpoints (compute nodes — QFDBs in the ExaNeSt
//!   system) or switches. Endpoints occupy the id range `0..num_endpoints`
//!   and switches the ids after them, so a node is an endpoint iff its id is
//!   below `num_endpoints`, and higher layers can index per-endpoint state
//!   with plain vectors.
//! * **Links** are unidirectional and carry no attributes: every link of the
//!   study runs at one rate (`exaflow_topo::LINK_RATE_BPS`), so a link is its
//!   two endpoints. Bidirectional cables are modelled as a pair of opposite
//!   links ([`NetworkBuilder::add_duplex`]). Hop counts count links.
//! * **NICs** are not part of the graph: the flow engine models each
//!   endpoint's injection and ejection capacity as solver resources of its
//!   own, beside the links.
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

pub use bfs::{bfs_distances, BfsScratch};
pub use builder::NetworkBuilder;
pub use hash::{IntHasher, IntMap};
pub use ids::{LinkId, NodeId};
pub use network::{Link, Network};
pub use path::{validate_path, PathError};
pub use stats::NetworkStats;
