//! Typed simulation errors.
//!
//! Every input-dependent failure of the engine is a [`SimError`] value, not
//! a panic: a malformed [`SimConfig`](crate::SimConfig), a DAG referencing
//! endpoints outside the topology, a destination made unreachable by link
//! failures, or a rate allocation that cannot make progress. Each variant
//! carries enough context to diagnose the offending grid point of a bulk
//! sweep without rerunning it. Panics are reserved for internal invariant
//! violations (engine bugs), which the suite runner's `catch_unwind` net
//! still isolates per experiment.
//!
//! Offending floating-point values are carried as strings so the error
//! serializes to valid JSON even when the value is `NaN` or infinite (the
//! whole point of reporting it).

use serde::{Deserialize, Serialize};
use std::fmt;

/// An input-dependent simulation failure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SimError {
    /// A [`SimConfig`](crate::SimConfig) field holds a value outside its
    /// domain (non-finite, zero or negative where positivity is required).
    InvalidConfig {
        /// The offending field, e.g. `injection_bps`.
        field: String,
        /// The offending value, rendered as text (may be `NaN`/`inf`).
        value: String,
        /// The violated constraint, e.g. `must be finite and > 0`.
        constraint: String,
    },
    /// The flow DAG references an endpoint the topology does not have.
    EndpointOutOfRange {
        /// Largest endpoint index the DAG references.
        endpoint: u32,
        /// Number of endpoints the topology actually has.
        num_endpoints: u64,
    },
    /// A resource was registered with a non-positive or non-finite
    /// capacity, which would stall every flow crossing it.
    InvalidCapacity {
        /// Resource index (links first, then injection, then ejection).
        resource: u32,
        /// The offending capacity, rendered as text.
        capacity: String,
    },
    /// Routing failed: the destination cannot be reached from the source
    /// (typically because injected link failures partitioned the network).
    Unreachable {
        /// Source endpoint.
        src: u32,
        /// Destination endpoint.
        dst: u32,
        /// Topology display name.
        topology: String,
        /// Failed unidirectional links at the time of routing.
        failed_links: u64,
    },
    /// A scheduled link failure interrupted an in-flight flow while the
    /// [`RecoveryPolicy::Abort`](crate::RecoveryPolicy::Abort) policy was in
    /// effect: the run stops at the first fault that touches live traffic.
    LinkLost {
        /// Simulated time at which the link went down.
        time: f64,
        /// The unidirectional link that failed.
        link: u32,
        /// A flow that was traversing (or scheduled to traverse) the link.
        flow: u32,
    },
    /// The run hit the deterministic event budget
    /// ([`SimConfig::max_events`](crate::SimConfig)) before every flow
    /// resolved. Carries progress-so-far so a runaway sweep cell becomes a
    /// diagnosable entry instead of a hang.
    BudgetExhausted {
        /// The configured event budget that was exhausted.
        max_events: u64,
        /// Events processed before the run stopped (equals `max_events`).
        events: u64,
        /// Simulated time at the cut point.
        time: f64,
        /// Bytes no longer outstanding at the cut point (delivered by
        /// finished flows plus progress on in-flight ones; skipped flows
        /// count as accounted-for).
        delivered_bytes: u64,
        /// Flows that fully completed before the budget ran out.
        flows_completed: u64,
    },
    /// The run exceeded the wall-clock deadline
    /// ([`SimConfig::max_wall_s`](crate::SimConfig)) before every flow
    /// resolved. Non-deterministic by nature (depends on host speed); a
    /// suite reports it as that entry's error and runs the entry once.
    DeadlineExceeded {
        /// The configured wall-clock limit, in seconds.
        wall_limit_s: f64,
        /// Events processed before the run stopped.
        events: u64,
        /// Simulated time at the cut point.
        time: f64,
        /// Bytes no longer outstanding at the cut point (delivered by
        /// finished flows plus progress on in-flight ones; skipped flows
        /// count as accounted-for).
        delivered_bytes: u64,
        /// Flows that fully completed before the deadline passed.
        flows_completed: u64,
    },
    /// Active flows exist but none can make progress (all rates zero).
    /// Defensive: unreachable once capacities and configs are validated,
    /// but reported as a value rather than a panic just in case.
    Stalled {
        /// Simulated time at which progress stopped.
        time: f64,
        /// Zero-rate flow ids (truncated to the first few).
        flows: Vec<u32>,
        /// The suspected bottleneck: the smallest-capacity resource on the
        /// first stalled flow's path, if any.
        resource: Option<u32>,
    },
}

impl SimError {
    /// Shorthand for an [`SimError::InvalidConfig`] over an `f64` field.
    pub fn invalid_config(field: &str, value: f64, constraint: &str) -> Self {
        SimError::InvalidConfig {
            field: field.to_owned(),
            value: format!("{value}"),
            constraint: constraint.to_owned(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig {
                field,
                value,
                constraint,
            } => write!(f, "sim config: {field} = {value} {constraint}"),
            SimError::EndpointOutOfRange {
                endpoint,
                num_endpoints,
            } => write!(
                f,
                "DAG references endpoint {endpoint} but topology has {num_endpoints}"
            ),
            SimError::InvalidCapacity { resource, capacity } => write!(
                f,
                "resource {resource} has invalid capacity {capacity} (must be finite and > 0)"
            ),
            SimError::Unreachable {
                src,
                dst,
                topology,
                failed_links,
            } => write!(
                f,
                "{topology}: endpoint {src} cannot reach {dst} ({failed_links} failed links)"
            ),
            SimError::LinkLost { time, link, flow } => write!(
                f,
                "link {link} lost at t={time} while flow {flow} was in flight (policy: abort)"
            ),
            SimError::BudgetExhausted {
                max_events,
                events: _,
                time,
                delivered_bytes,
                flows_completed,
            } => write!(
                f,
                "event budget of {max_events} exhausted at t={time} \
                 ({flows_completed} flows completed, {delivered_bytes} bytes delivered)"
            ),
            SimError::DeadlineExceeded {
                wall_limit_s,
                events,
                time,
                delivered_bytes,
                flows_completed,
            } => write!(
                f,
                "wall-clock deadline of {wall_limit_s}s exceeded at t={time} after {events} \
                 events ({flows_completed} flows completed, {delivered_bytes} bytes delivered)"
            ),
            SimError::Stalled {
                time,
                flows,
                resource,
            } => {
                write!(f, "deadlock at t={time}: flows {flows:?} have zero rate")?;
                if let Some(r) = resource {
                    write!(f, " (bottleneck resource {r})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = SimError::invalid_config("injection_bps", f64::NAN, "must be finite and > 0");
        let s = e.to_string();
        assert!(s.contains("injection_bps"), "{s}");
        assert!(s.contains("NaN"), "{s}");
    }

    #[test]
    fn serializes_with_kind_tag_even_for_nan() {
        let e = SimError::invalid_config("batch_epsilon", f64::NAN, "must be finite and >= 0");
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"invalid_config\""), "{json}");
        assert!(json.contains("NaN"), "{json}");
        let back: SimError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn link_lost_roundtrips_and_names_the_flow() {
        let e = SimError::LinkLost {
            time: 0.25,
            link: 42,
            flow: 7,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"link_lost\""), "{json}");
        let back: SimError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        let s = e.to_string();
        assert!(s.contains("link 42"), "{s}");
        assert!(s.contains("flow 7"), "{s}");
    }

    #[test]
    fn budget_exhausted_roundtrips() {
        let e = SimError::BudgetExhausted {
            max_events: 100,
            events: 100,
            time: 0.5,
            delivered_bytes: 4096,
            flows_completed: 3,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"budget_exhausted\""), "{json}");
        let back: SimError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        let s = e.to_string();
        assert!(s.contains("budget of 100"), "{s}");
        assert!(s.contains("4096 bytes"), "{s}");
    }

    #[test]
    fn deadline_exceeded_roundtrips() {
        let e = SimError::DeadlineExceeded {
            wall_limit_s: 2.5,
            events: 17,
            time: 0.25,
            delivered_bytes: 1024,
            flows_completed: 1,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"deadline_exceeded\""), "{json}");
        let back: SimError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        let s = e.to_string();
        assert!(s.contains("2.5s"), "{s}");
        assert!(s.contains("17 events"), "{s}");
    }

    #[test]
    fn stalled_roundtrips() {
        let e = SimError::Stalled {
            time: 1.5,
            flows: vec![3, 7],
            resource: Some(12),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: SimError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert!(e.to_string().contains("bottleneck resource 12"));
    }
}
