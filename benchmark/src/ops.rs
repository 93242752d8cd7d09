//! What an operation produced, reduced to its simulated statistics, and the
//! pinned references those are compared with.
//!
//! The simulator is deterministic: simulated statistics must repeat exactly
//! and are a correctness check, never a performance metric.

use exaflow::{DistanceAnalysisRow, ExperimentError, ExperimentResult};
use serde_json::{Map, Number, Value};
use std::path::{Path, PathBuf};

/// The simulated statistics of one operation.
#[derive(Clone, Debug, PartialEq)]
pub enum OpStat {
    /// One experiment of a suite.
    Experiment {
        topology: String,
        workload: String,
        makespan_seconds: f64,
        flows: u64,
        events: u64,
        skipped_flows: u64,
        fault_events_applied: u64,
    },
    /// One row of a distance analysis.
    Distance {
        topology: String,
        average: f64,
        diameter: u64,
    },
    /// The operation returned an error or panicked.
    Failed { reason: String },
}

impl OpStat {
    pub fn of_experiment(outcome: &Result<ExperimentResult, ExperimentError>) -> OpStat {
        match outcome {
            Ok(r) => OpStat::Experiment {
                topology: r.topology.clone(),
                workload: r.workload.clone(),
                makespan_seconds: r.makespan_seconds,
                flows: r.flows,
                events: r.events,
                skipped_flows: r.skipped_flows,
                fault_events_applied: r.fault_events_applied,
            },
            Err(e) => OpStat::Failed {
                reason: e.to_string(),
            },
        }
    }

    pub fn of_distance_row(row: &DistanceAnalysisRow) -> OpStat {
        OpStat::Distance {
            topology: row.topology.clone(),
            average: row.stats.average,
            diameter: row.stats.diameter as u64,
        }
    }

    /// Whether `self` agrees with the pinned `reference`: floating-point
    /// statistics within the stated relative tolerance (so a later change
    /// may reorder a sum), everything else exactly.
    pub fn matches_reference(&self, reference: &OpStat) -> bool {
        fn close(a: f64, b: f64, rel: f64) -> bool {
            (a - b).abs() <= rel * a.abs().max(b.abs())
        }
        match (self, reference) {
            (
                OpStat::Experiment {
                    topology,
                    workload,
                    makespan_seconds,
                    flows,
                    events,
                    skipped_flows,
                    fault_events_applied,
                },
                OpStat::Experiment {
                    topology: r_topology,
                    workload: r_workload,
                    makespan_seconds: r_makespan,
                    flows: r_flows,
                    events: r_events,
                    skipped_flows: r_skipped,
                    fault_events_applied: r_faults,
                },
            ) => {
                topology == r_topology
                    && workload == r_workload
                    && close(*makespan_seconds, *r_makespan, 1e-9)
                    && flows == r_flows
                    && events == r_events
                    && skipped_flows == r_skipped
                    && fault_events_applied == r_faults
            }
            (
                OpStat::Distance {
                    topology,
                    average,
                    diameter,
                },
                OpStat::Distance {
                    topology: r_topology,
                    average: r_average,
                    diameter: r_diameter,
                },
            ) => {
                topology == r_topology
                    && close(*average, *r_average, 1e-12)
                    && diameter == r_diameter
            }
            _ => false,
        }
    }

    fn to_json(&self) -> Value {
        let mut m = Map::new();
        match self {
            OpStat::Experiment {
                topology,
                workload,
                makespan_seconds,
                flows,
                events,
                skipped_flows,
                fault_events_applied,
            } => {
                m.insert("topology", Value::String(topology.clone()));
                m.insert("workload", Value::String(workload.clone()));
                m.insert("makespan_seconds", float(*makespan_seconds));
                m.insert("flows", uint(*flows));
                m.insert("events", uint(*events));
                m.insert("skipped_flows", uint(*skipped_flows));
                m.insert("fault_events_applied", uint(*fault_events_applied));
            }
            OpStat::Distance {
                topology,
                average,
                diameter,
            } => {
                m.insert("topology", Value::String(topology.clone()));
                m.insert("average", float(*average));
                m.insert("diameter", uint(*diameter));
            }
            OpStat::Failed { reason } => {
                m.insert("failed", Value::String(reason.clone()));
            }
        }
        Value::Object(m)
    }

    fn from_json(v: &Value) -> Result<OpStat, String> {
        let string = |key: &str| {
            v[key]
                .as_str()
                .map(str::to_owned)
                .ok_or(format!("reference operation lacks string {key:?}"))
        };
        let uint = |key: &str| {
            v[key]
                .as_u64()
                .ok_or(format!("reference operation lacks integer {key:?}"))
        };
        let float = |key: &str| {
            v[key]
                .as_f64()
                .ok_or(format!("reference operation lacks number {key:?}"))
        };
        if !v["makespan_seconds"].is_null() {
            Ok(OpStat::Experiment {
                topology: string("topology")?,
                workload: string("workload")?,
                makespan_seconds: float("makespan_seconds")?,
                flows: uint("flows")?,
                events: uint("events")?,
                skipped_flows: uint("skipped_flows")?,
                fault_events_applied: uint("fault_events_applied")?,
            })
        } else {
            Ok(OpStat::Distance {
                topology: string("topology")?,
                average: float("average")?,
                diameter: uint("diameter")?,
            })
        }
    }
}

pub fn float(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

pub fn uint(x: u64) -> Value {
    Value::Number(Number::PosInt(x))
}

fn reference_path(dir: &Path, workload: &str, seed: u64) -> PathBuf {
    dir.join("expected")
        .join(format!("{workload}.seed{seed}.json"))
}

/// The pinned reference of (`workload`, `seed`), if one is committed: seeds
/// 1 and 2 have one, other seeds are checked by repetition identity alone.
pub fn load_reference(
    dir: &Path,
    workload: &str,
    seed: u64,
) -> Result<Option<Vec<OpStat>>, String> {
    let path = reference_path(dir, workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let ops = doc["ops"]
        .as_array()
        .ok_or(format!("{}: no \"ops\" array", path.display()))?;
    ops.iter()
        .map(OpStat::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Pin `ops` as the reference of (`workload`, `seed`).
pub fn bless(dir: &Path, workload: &str, seed: u64, ops: &[OpStat]) -> Result<PathBuf, String> {
    if let Some(OpStat::Failed { reason }) = ops.iter().find(|o| matches!(o, OpStat::Failed { .. }))
    {
        return Err(format!("refusing to bless a failed operation: {reason}"));
    }
    let mut doc = Map::new();
    doc.insert("workload", Value::String(workload.to_owned()));
    doc.insert("seed", uint(seed));
    doc.insert(
        "ops",
        Value::Array(ops.iter().map(OpStat::to_json).collect()),
    );
    let path = reference_path(dir, workload, seed);
    let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("values serialize");
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment(makespan_seconds: f64, events: u64) -> OpStat {
        OpStat::Experiment {
            topology: "Torus(8x8x8)".into(),
            workload: "AllReduce".into(),
            makespan_seconds,
            flows: 4608,
            events,
            skipped_flows: 0,
            fault_events_applied: 3,
        }
    }

    #[test]
    fn references_round_trip_through_json() {
        let distance = OpStat::Distance {
            topology: "Fattree".into(),
            average: 5.959940366290026,
            diameter: 6,
        };
        for op in [experiment(0.0075497472, 9), distance] {
            let text = serde_json::to_string(&op.to_json()).unwrap();
            let back = OpStat::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn reference_tolerates_rounding_but_no_count_change() {
        let pinned = experiment(0.01, 9);
        assert!(experiment(0.01 * (1.0 + 1e-12), 9).matches_reference(&pinned));
        assert!(!experiment(0.01 * (1.0 + 1e-6), 9).matches_reference(&pinned));
        assert!(!experiment(0.01, 10).matches_reference(&pinned));
        let failed = OpStat::Failed {
            reason: "unreachable".into(),
        };
        assert!(!failed.matches_reference(&pinned));
    }
}
