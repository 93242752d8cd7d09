//! Static topology analysis — distance distributions, average distance and
//! diameter (the paper's Table 1), computed from each topology's analytic
//! distances — and the workspace's one worker pool.
//!
//! Every distance mode tallies one source at a time through
//! [`Topology::distance_histogram`](exaflow_topo::Topology::distance_histogram),
//! which the paper's families answer by *counting* equidistant classes
//! rather than by evaluating `distance` per destination — so an exact
//! all-sources sweep is affordable at the paper's 131,072 QFDBs. Distances
//! are always of the healthy network: link failures live in the engine's
//! fault overlay.
//!
//! * [`distance_stats_exact`] — every ordered endpoint pair, on the calling
//!   thread; the sequential reference.
//! * [`distance_sweep`] / [`distance_estimate`] — the same sweep in one
//!   contiguous chunk of sources per worker ([`default_threads`] unless
//!   told how many), bit-identical to [`distance_stats_exact`] at any
//!   thread count, and a stratified deterministic source-sampling estimator
//!   that reports a standard error and 95% confidence half-width alongside
//!   the point estimate.
//! * [`physical_distance_sweep`] — the same harness over one breadth-first
//!   search per source, measuring physical shortest-path distances (a
//!   lower bound certifying routing minimality where it matches); a test
//!   oracle, not a Table 1 path.
//! * [`pool`] — [`scoped_map`]: items fanned out over scoped threads, each
//!   under `catch_unwind`, outcomes in input order. The sweeps above,
//!   experiment suites and Table 2's grid points all run on it.

pub mod distance;
pub mod pool;
pub mod sweep;

pub use distance::{distance_stats_exact, DistanceStats};
pub use pool::{default_threads, scoped_map};
pub use sweep::{distance_estimate, distance_sweep, physical_distance_sweep, stratified_sources};
