//! A serialisable workload description that is also the generator.
//!
//! [`WorkloadSpec`] is the union of every workload of the paper; the
//! facade crate's experiment configs and the CLI use it to describe runs
//! declaratively (JSON), and [`WorkloadSpec::generate`] turns one into a
//! flow DAG.

use crate::mapping::TaskMapping;
use crate::{collectives, mapreduce, nbodies, sweep, unstructured};
use exaflow_sim::FlowDag;
use serde::{Deserialize, Serialize};

/// Every workload of the paper, as tagged configuration data.
///
/// Grid workloads place task `x + gx*(y + gy*z)` at `(x, y, z)`; random
/// ones are deterministic in `seed`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "workload", rename_all = "snake_case")]
pub enum WorkloadSpec {
    /// Non-optimised N-to-1 reduce: every task sends `bytes` straight to
    /// task 0. The paper uses this deliberately pathological pattern to
    /// study hot-spot behaviour: all flows converge on the root's
    /// consumption port, which serialises delivery and makes the result
    /// topology-insensitive.
    Reduce { tasks: usize, bytes: u64 },
    /// Logarithmic allreduce by recursive doubling (Thakur & Gropp):
    /// `log2(tasks)` rounds of `bytes` exchanges; `tasks` must be a power
    /// of two.
    AllReduce { tasks: usize, bytes: u64 },
    /// Distribute / shuffle / gather (Dean & Ghemawat): task 0 (also a
    /// worker) sends each worker its input partition, the workers shuffle
    /// all-to-all, and each reports its result back to task 0.
    MapReduce {
        tasks: usize,
        distribute_bytes: u64,
        shuffle_bytes: u64,
        gather_bytes: u64,
    },
    /// Sweep3D: a single diagonal wavefront of the deterministic
    /// particle-transport kernel over a `gx × gy × gz` task grid, `bytes`
    /// along each grid edge.
    Sweep3d {
        gx: u32,
        gy: u32,
        gz: u32,
        bytes: u64,
    },
    /// Like Sweep3D, but the corner task emits `waves` successive
    /// wavefronts that pipeline through the grid, exerting much heavier
    /// pressure (paper §4.1).
    Flood {
        gx: u32,
        gy: u32,
        gz: u32,
        bytes: u64,
        waves: u32,
    },
    /// The 6-point stencil exchange of LAMMPS/RegCM-style codes, for
    /// `iterations` rounds, over a periodic (torus-like) or open grid.
    NearNeighbors {
        gx: u32,
        gy: u32,
        gz: u32,
        bytes: u64,
        iterations: u32,
        periodic: bool,
    },
    /// Ring force exchange: each body's state visits the `tasks / 2`
    /// following tasks clockwise, accumulating pairwise interactions.
    NBodies { tasks: usize, bytes: u64 },
    /// Fixed `bytes` messages between uniformly random task pairs: an
    /// unstructured application whose data is partitioned evenly.
    UnstructuredApp {
        tasks: usize,
        flows_per_task: usize,
        bytes: u64,
        seed: u64,
    },
    /// Management traffic of large datacentres, sized after Kandula et
    /// al. (IMC'09): mostly mice of a few KB with a heavy elephant tail.
    ///
    /// **Substitution note (DESIGN.md §5):** the original trace is
    /// private; we reproduce the published summary statistics with a
    /// three-component log-uniform mixture — 80% mice (100 B – 10 KB),
    /// 15% medium (10 KB – 1 MB), 5% elephants (1 MB – 50 MB).
    UnstructuredMgnt {
        tasks: usize,
        flows_per_task: usize,
        seed: u64,
    },
    /// Like UnstructuredApp, but a message targets the hot tasks (a
    /// `hot_fraction` of them, which the paper does not specify; the
    /// presets use 1/8) with probability `hot_probability`.
    UnstructuredHr {
        tasks: usize,
        flows_per_task: usize,
        bytes: u64,
        hot_fraction: f64,
        hot_probability: f64,
        seed: u64,
    },
    /// Random pairwise exchange of `bytes` each way, re-paired under a
    /// fresh random perfect matching every round; it stresses the
    /// network's bisection bandwidth. `tasks` must be even.
    Bisection {
        tasks: usize,
        rounds: u32,
        bytes: u64,
        seed: u64,
    },
}

impl WorkloadSpec {
    /// Check the spec's own parameters, before any topology is involved.
    ///
    /// Every constraint a generator would otherwise `assert!` on —
    /// minimum task counts, power-of-two AllReduce, positive grid
    /// dimensions, probability ranges — is reported here as an `Err`
    /// message instead, so config-driven callers can surface a typed
    /// error rather than a panic. [`generate`](Self::generate) still
    /// asserts as a second line of defence.
    pub fn validate(&self) -> Result<(), String> {
        fn grid(gx: u32, gy: u32, gz: u32) -> Result<(), String> {
            if gx == 0 || gy == 0 || gz == 0 {
                return Err(format!(
                    "grid dimensions must be positive, got {gx}x{gy}x{gz}"
                ));
            }
            Ok(())
        }
        fn at_least(tasks: usize, min: usize, who: &str) -> Result<(), String> {
            if tasks < min {
                return Err(format!("{who} needs at least {min} tasks, got {tasks}"));
            }
            Ok(())
        }
        fn fraction(value: f64, what: &str) -> Result<(), String> {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!("{what} must be within [0, 1], got {value}"));
            }
            Ok(())
        }
        match *self {
            WorkloadSpec::Reduce { tasks, .. } => at_least(tasks, 1, "Reduce"),
            WorkloadSpec::AllReduce { tasks, .. } => {
                if !tasks.is_power_of_two() || tasks < 2 {
                    return Err(format!(
                        "AllReduce requires a power-of-two task count >= 2, got {tasks}"
                    ));
                }
                Ok(())
            }
            WorkloadSpec::MapReduce { tasks, .. } => at_least(tasks, 2, "MapReduce"),
            WorkloadSpec::Sweep3d { gx, gy, gz, .. } => grid(gx, gy, gz),
            WorkloadSpec::Flood {
                gx, gy, gz, waves, ..
            } => {
                grid(gx, gy, gz)?;
                if waves == 0 {
                    return Err("Flood needs at least one wave".into());
                }
                Ok(())
            }
            WorkloadSpec::NearNeighbors {
                gx,
                gy,
                gz,
                iterations,
                ..
            } => {
                grid(gx, gy, gz)?;
                if iterations == 0 {
                    return Err("NearNeighbors needs at least one iteration".into());
                }
                Ok(())
            }
            WorkloadSpec::NBodies { tasks, .. } => at_least(tasks, 2, "n-Bodies"),
            WorkloadSpec::UnstructuredApp { tasks, .. } => at_least(tasks, 2, "UnstructuredApp"),
            WorkloadSpec::UnstructuredMgnt { tasks, .. } => at_least(tasks, 2, "UnstructuredMgnt"),
            WorkloadSpec::UnstructuredHr {
                tasks,
                hot_fraction,
                hot_probability,
                ..
            } => {
                at_least(tasks, 2, "UnstructuredHR")?;
                fraction(hot_fraction, "hot_fraction")?;
                fraction(hot_probability, "hot_probability")
            }
            WorkloadSpec::Bisection { tasks, rounds, .. } => {
                if tasks < 2 || tasks % 2 != 0 {
                    return Err(format!("Bisection needs an even task count, got {tasks}"));
                }
                if rounds == 0 {
                    return Err("Bisection needs at least one round".into());
                }
                Ok(())
            }
        }
    }

    /// Generate the flow DAG with tasks placed by `mapping`.
    ///
    /// Panics if `mapping` has fewer slots than
    /// [`num_tasks`](Self::num_tasks), or where [`validate`](Self::validate)
    /// would fail.
    pub fn generate(&self, mapping: &TaskMapping) -> FlowDag {
        match *self {
            WorkloadSpec::Reduce { tasks, bytes } => collectives::reduce(tasks, bytes, mapping),
            WorkloadSpec::AllReduce { tasks, bytes } => {
                collectives::all_reduce(tasks, bytes, mapping)
            }
            WorkloadSpec::MapReduce {
                tasks,
                distribute_bytes,
                shuffle_bytes,
                gather_bytes,
            } => mapreduce::map_reduce(
                tasks,
                distribute_bytes,
                shuffle_bytes,
                gather_bytes,
                mapping,
            ),
            WorkloadSpec::Sweep3d { gx, gy, gz, bytes } => {
                sweep::sweep3d(gx, gy, gz, bytes, mapping)
            }
            WorkloadSpec::Flood {
                gx,
                gy,
                gz,
                bytes,
                waves,
            } => sweep::flood(gx, gy, gz, bytes, waves, mapping),
            WorkloadSpec::NearNeighbors {
                gx,
                gy,
                gz,
                bytes,
                iterations,
                periodic,
            } => sweep::near_neighbors(gx, gy, gz, bytes, iterations, periodic, mapping),
            WorkloadSpec::NBodies { tasks, bytes } => nbodies::n_bodies(tasks, bytes, mapping),
            WorkloadSpec::UnstructuredApp {
                tasks,
                flows_per_task,
                bytes,
                seed,
            } => unstructured::app(tasks, flows_per_task, bytes, seed, mapping),
            WorkloadSpec::UnstructuredMgnt {
                tasks,
                flows_per_task,
                seed,
            } => unstructured::mgnt(tasks, flows_per_task, seed, mapping),
            WorkloadSpec::UnstructuredHr {
                tasks,
                flows_per_task,
                bytes,
                hot_fraction,
                hot_probability,
                seed,
            } => unstructured::hot_region(
                tasks,
                flows_per_task,
                bytes,
                hot_fraction,
                hot_probability,
                seed,
                mapping,
            ),
            WorkloadSpec::Bisection {
                tasks,
                rounds,
                bytes,
                seed,
            } => unstructured::bisection(tasks, rounds, bytes, seed, mapping),
        }
    }

    /// Paper name of the workload, as every result and table prints it.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Reduce { .. } => "Reduce",
            WorkloadSpec::AllReduce { .. } => "AllReduce",
            WorkloadSpec::MapReduce { .. } => "MapReduce",
            WorkloadSpec::Sweep3d { .. } => "Sweep3D",
            WorkloadSpec::Flood { .. } => "Flood",
            WorkloadSpec::NearNeighbors { .. } => "NearNeighbors",
            WorkloadSpec::NBodies { .. } => "n-Bodies",
            WorkloadSpec::UnstructuredApp { .. } => "UnstructuredApp",
            WorkloadSpec::UnstructuredMgnt { .. } => "UnstructuredMgnt",
            WorkloadSpec::UnstructuredHr { .. } => "UnstructuredHR",
            WorkloadSpec::Bisection { .. } => "Bisection",
        }
    }

    /// Number of tasks the workload spans.
    pub fn num_tasks(&self) -> usize {
        match *self {
            WorkloadSpec::Reduce { tasks, .. }
            | WorkloadSpec::AllReduce { tasks, .. }
            | WorkloadSpec::MapReduce { tasks, .. }
            | WorkloadSpec::NBodies { tasks, .. }
            | WorkloadSpec::UnstructuredApp { tasks, .. }
            | WorkloadSpec::UnstructuredMgnt { tasks, .. }
            | WorkloadSpec::UnstructuredHr { tasks, .. }
            | WorkloadSpec::Bisection { tasks, .. } => tasks,
            WorkloadSpec::Sweep3d { gx, gy, gz, .. }
            | WorkloadSpec::Flood { gx, gy, gz, .. }
            | WorkloadSpec::NearNeighbors { gx, gy, gz, .. } => (gx * gy * gz) as usize,
        }
    }

    /// Whether the paper groups this workload with the heavy set (Figure 4)
    /// rather than the light set (Figure 5).
    pub fn is_heavy(&self) -> bool {
        matches!(
            self,
            WorkloadSpec::AllReduce { .. }
                | WorkloadSpec::NearNeighbors { .. }
                | WorkloadSpec::NBodies { .. }
                | WorkloadSpec::UnstructuredApp { .. }
                | WorkloadSpec::UnstructuredHr { .. }
                | WorkloadSpec::Bisection { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;

    fn all_specs(tasks: usize) -> Vec<WorkloadSpec> {
        let g = Grid3::fitting(tasks);
        vec![
            WorkloadSpec::Reduce { tasks, bytes: 10 },
            WorkloadSpec::AllReduce { tasks, bytes: 10 },
            WorkloadSpec::MapReduce {
                tasks,
                distribute_bytes: 10,
                shuffle_bytes: 10,
                gather_bytes: 10,
            },
            WorkloadSpec::Sweep3d {
                gx: g.gx,
                gy: g.gy,
                gz: g.gz,
                bytes: 10,
            },
            WorkloadSpec::Flood {
                gx: g.gx,
                gy: g.gy,
                gz: g.gz,
                bytes: 10,
                waves: 2,
            },
            WorkloadSpec::NearNeighbors {
                gx: g.gx,
                gy: g.gy,
                gz: g.gz,
                bytes: 10,
                iterations: 2,
                periodic: true,
            },
            WorkloadSpec::NBodies { tasks, bytes: 10 },
            WorkloadSpec::UnstructuredApp {
                tasks,
                flows_per_task: 3,
                bytes: 10,
                seed: 1,
            },
            WorkloadSpec::UnstructuredMgnt {
                tasks,
                flows_per_task: 3,
                seed: 1,
            },
            WorkloadSpec::UnstructuredHr {
                tasks,
                flows_per_task: 3,
                bytes: 10,
                hot_fraction: 0.125,
                hot_probability: 0.5,
                seed: 1,
            },
            WorkloadSpec::Bisection {
                tasks,
                rounds: 2,
                bytes: 10,
                seed: 1,
            },
        ]
    }

    #[test]
    fn valid_specs_validate() {
        for spec in all_specs(8) {
            assert_eq!(spec.validate(), Ok(()), "{}", spec.name());
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_reasons() {
        let bad = [
            WorkloadSpec::AllReduce { tasks: 3, bytes: 1 },
            WorkloadSpec::AllReduce { tasks: 0, bytes: 1 },
            WorkloadSpec::Reduce { tasks: 0, bytes: 1 },
            WorkloadSpec::MapReduce {
                tasks: 1,
                distribute_bytes: 1,
                shuffle_bytes: 1,
                gather_bytes: 1,
            },
            WorkloadSpec::Sweep3d {
                gx: 0,
                gy: 2,
                gz: 2,
                bytes: 1,
            },
            WorkloadSpec::Flood {
                gx: 2,
                gy: 2,
                gz: 2,
                bytes: 1,
                waves: 0,
            },
            WorkloadSpec::NearNeighbors {
                gx: 2,
                gy: 2,
                gz: 2,
                bytes: 1,
                iterations: 0,
                periodic: false,
            },
            WorkloadSpec::NBodies { tasks: 1, bytes: 1 },
            WorkloadSpec::UnstructuredApp {
                tasks: 1,
                flows_per_task: 1,
                bytes: 1,
                seed: 0,
            },
            WorkloadSpec::UnstructuredHr {
                tasks: 4,
                flows_per_task: 1,
                bytes: 1,
                hot_fraction: 1.5,
                hot_probability: 0.5,
                seed: 0,
            },
            WorkloadSpec::UnstructuredHr {
                tasks: 4,
                flows_per_task: 1,
                bytes: 1,
                hot_fraction: 0.5,
                hot_probability: f64::NAN,
                seed: 0,
            },
            WorkloadSpec::Bisection {
                tasks: 5,
                rounds: 1,
                bytes: 1,
                seed: 0,
            },
            WorkloadSpec::Bisection {
                tasks: 4,
                rounds: 0,
                bytes: 1,
                seed: 0,
            },
        ];
        for spec in bad {
            let err = match spec.validate() {
                Err(e) => e,
                Ok(()) => panic!("{spec:?} should not validate"),
            };
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn all_eleven_generate() {
        let mapping = TaskMapping::linear(16, 16);
        let specs = all_specs(16);
        let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "Reduce",
                "AllReduce",
                "MapReduce",
                "Sweep3D",
                "Flood",
                "NearNeighbors",
                "n-Bodies",
                "UnstructuredApp",
                "UnstructuredMgnt",
                "UnstructuredHR",
                "Bisection"
            ],
            "the paper studies 11 workloads, by these display names"
        );
        for spec in &specs {
            assert_eq!(spec.num_tasks(), 16, "{}", spec.name());
            let dag = spec.generate(&mapping);
            assert!(!dag.is_empty(), "{} generated nothing", spec.name());
        }
    }

    #[test]
    fn heavy_light_split_matches_figures() {
        let heavy: Vec<&str> = all_specs(16)
            .iter()
            .filter(|s| s.is_heavy())
            .map(|s| s.name())
            .collect();
        assert_eq!(
            heavy,
            vec![
                "AllReduce",
                "NearNeighbors",
                "n-Bodies",
                "UnstructuredApp",
                "UnstructuredHR",
                "Bisection"
            ]
        );
    }

    #[test]
    fn serde_roundtrip() {
        for spec in all_specs(16) {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn json_is_tagged() {
        let spec = WorkloadSpec::Reduce { tasks: 4, bytes: 1 };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"workload\":\"reduce\""), "{json}");
    }
}
