//! Typed experiment errors.
//!
//! [`ExperimentError`] is the single failure channel from
//! [`run_experiment`](crate::run_experiment) up through
//! [`ExperimentSuite`](crate::ExperimentSuite) and out of the `exaflow`
//! CLI: every way a declarative experiment can be unrunnable — a malformed
//! topology spec, an inconsistent workload/topology pairing, an invalid
//! engine config, a partitioned network — is a variant, so a bulk sweep
//! reports *which* grid points failed and *why* as structured JSON instead
//! of aborting on the first bad one.
//!
//! The `Sim` variant wraps the engine's own [`SimError`] rather than
//! flattening it to text; tooling that post-processes sweep output can
//! match on the inner `kind`. A suite runs each entry once, so a
//! wall-clock deadline overrun or a panic is a per-entry error like any
//! other, never retried.

use exaflow_sim::SimError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an experiment could not produce a result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ExperimentError {
    /// The topology spec cannot be instantiated (bad dimensions,
    /// unsupported uplink density, …).
    InvalidTopology {
        /// Human-readable reason.
        reason: String,
    },
    /// The failure-injection spec is inconsistent.
    InvalidFailures {
        /// Human-readable reason.
        reason: String,
    },
    /// A resilience campaign spec is inconsistent (no rates, no replicas,
    /// an unusable horizon, …).
    InvalidCampaign {
        /// Human-readable reason.
        reason: String,
    },
    /// The workload spec's own parameters are unusable (non-power-of-two
    /// AllReduce, a zero grid dimension, a probability outside [0, 1], …).
    InvalidWorkload {
        /// Human-readable reason.
        reason: String,
    },
    /// The mapping spec cannot place this workload on this topology
    /// (zero stride, stride pushing tasks past the last endpoint, …).
    InvalidMapping {
        /// Human-readable reason.
        reason: String,
    },
    /// The workload needs more endpoints than the topology provides.
    TooManyTasks {
        /// Tasks the workload places.
        tasks: u64,
        /// Endpoints the topology has.
        endpoints: u64,
        /// Topology display name.
        topology: String,
    },
    /// The simulation itself failed; see the wrapped [`SimError`].
    Sim {
        /// The engine-level failure.
        sim: SimError,
    },
    /// The experiment panicked (an internal invariant violation, not an
    /// input error); the suite runner isolated it to this entry.
    Panicked {
        /// Best-effort panic message.
        message: String,
    },
    /// The campaign journal could not be read or written (I/O failure,
    /// mid-file corruption). A harness problem, never a measured result.
    Journal {
        /// Human-readable reason.
        reason: String,
    },
}

impl From<SimError> for ExperimentError {
    fn from(sim: SimError) -> Self {
        ExperimentError::Sim { sim }
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::InvalidTopology { reason } => {
                write!(f, "invalid topology: {reason}")
            }
            ExperimentError::InvalidFailures { reason } => {
                write!(f, "invalid failure spec: {reason}")
            }
            ExperimentError::InvalidCampaign { reason } => {
                write!(f, "invalid resilience campaign: {reason}")
            }
            ExperimentError::InvalidWorkload { reason } => {
                write!(f, "invalid workload: {reason}")
            }
            ExperimentError::InvalidMapping { reason } => {
                write!(f, "invalid mapping: {reason}")
            }
            ExperimentError::TooManyTasks {
                tasks,
                endpoints,
                topology,
            } => write!(
                f,
                "workload has {tasks} tasks but topology {topology} has only {endpoints} endpoints"
            ),
            ExperimentError::Sim { sim } => write!(f, "simulation failed: {sim}"),
            ExperimentError::Panicked { message } => write!(f, "experiment panicked: {message}"),
            ExperimentError::Journal { reason } => write!(f, "campaign journal error: {reason}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Sim { sim } => Some(sim),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_errors_nest_under_their_own_tag() {
        let e = ExperimentError::from(SimError::invalid_config(
            "injection_bps",
            -1.0,
            "must be finite and > 0",
        ));
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"sim\""), "{json}");
        assert!(json.contains("\"kind\":\"invalid_config\""), "{json}");
        let back: ExperimentError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn too_many_tasks_roundtrips_and_displays() {
        let e = ExperimentError::TooManyTasks {
            tasks: 64,
            endpoints: 16,
            topology: "Torus(4x4)".into(),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: ExperimentError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        let s = e.to_string();
        assert!(s.contains("64 tasks"), "{s}");
        assert!(s.contains("16 endpoints"), "{s}");
    }

    #[test]
    fn journal_error_roundtrips() {
        let e = ExperimentError::Journal {
            reason: "corrupt journal line 3".into(),
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"journal\""), "{json}");
        let back: ExperimentError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert!(e.to_string().contains("journal"), "{e}");
    }

    #[test]
    fn source_chains_to_the_sim_error() {
        use std::error::Error;
        let e = ExperimentError::from(SimError::EndpointOutOfRange {
            endpoint: 9,
            num_endpoints: 4,
        });
        assert!(e.source().is_some());
        assert!(ExperimentError::Panicked {
            message: "x".into()
        }
        .source()
        .is_none());
    }
}
