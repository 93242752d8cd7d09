//! The paper's experiment grids, parametric in system scale.
//!
//! Figures 4 and 5 sweep twelve hybrid configurations
//! `(t, u) ∈ {2,4,8} × {8,4,2,1}` for both `NestGHC` and `NestTree`,
//! against the standalone `Fattree` and `Torus3D` baselines, across eleven
//! workloads. Workload parameters below are the reproduction defaults for
//! the given scale; message sizes are uninfluential under normalisation
//! (see DESIGN.md §4 for the scale substitution, EXPERIMENTS.md for the
//! recorded parameter values).

use crate::scale::SystemScale;
use crate::topospec::TopologySpec;
use exaflow_topo::UpperTierKind;
use exaflow_workloads::WorkloadSpec;

/// One mebibyte, the default message size.
pub const MIB: u64 = 1 << 20;

/// The paper's (t, u) grid in the order its figures use.
pub fn hybrid_grid() -> Vec<(u32, u32)> {
    let mut grid = Vec::with_capacity(12);
    for t in [2u32, 4, 8] {
        for u in [8u32, 4, 2, 1] {
            grid.push((t, u));
        }
    }
    grid
}

/// The topologies of every figure panel, in the order the figure reducer
/// reads them: the `Fattree` and `Torus3D` baselines, then a
/// `NestGHC(t,u)`, `NestTree(t,u)` pair per grid point the scale can host
/// (tiny scales cannot hold the largest subtori), in [`hybrid_grid`] order.
pub fn figure_topologies(scale: SystemScale) -> Vec<TopologySpec> {
    let mut specs = vec![scale.fattree_spec(), scale.torus_spec()];
    for (t, u) in hybrid_grid() {
        for upper in [UpperTierKind::GeneralizedHypercube, UpperTierKind::Fattree] {
            specs.extend(scale.nested_spec(upper, t, u).ok());
        }
    }
    specs
}

/// The heavy workloads of Figure 4, in the paper's panel order.
pub fn heavy_workloads(scale: SystemScale) -> Vec<WorkloadSpec> {
    let n = scale.qfdbs as usize;
    let [gx, gy, gz] = scale.torus_dims();
    vec![
        WorkloadSpec::UnstructuredApp {
            tasks: n,
            flows_per_task: 2,
            bytes: MIB,
            seed: 42,
        },
        WorkloadSpec::UnstructuredHr {
            tasks: n,
            flows_per_task: 2,
            bytes: MIB,
            hot_fraction: 0.125,
            hot_probability: 0.5,
            seed: 43,
        },
        WorkloadSpec::Bisection {
            tasks: n,
            rounds: 4,
            bytes: MIB,
            seed: 44,
        },
        WorkloadSpec::AllReduce {
            tasks: n,
            bytes: MIB,
        },
        WorkloadSpec::NBodies {
            tasks: n.min(1024),
            bytes: MIB,
        },
        WorkloadSpec::NearNeighbors {
            gx,
            gy,
            gz,
            bytes: MIB,
            iterations: 2,
            periodic: true,
        },
    ]
}

/// The light workloads of Figure 5, in the paper's panel order.
pub fn light_workloads(scale: SystemScale) -> Vec<WorkloadSpec> {
    let n = scale.qfdbs as usize;
    let [gx, gy, gz] = scale.torus_dims();
    vec![
        WorkloadSpec::UnstructuredMgnt {
            tasks: n,
            flows_per_task: 2,
            seed: 45,
        },
        WorkloadSpec::MapReduce {
            tasks: (n / 8).clamp(2, 512),
            distribute_bytes: 4 * MIB,
            shuffle_bytes: 64 << 10,
            gather_bytes: 64 << 10,
        },
        WorkloadSpec::Reduce {
            tasks: n,
            bytes: 64 << 10,
        },
        WorkloadSpec::Flood {
            gx,
            gy,
            gz,
            bytes: 256 << 10,
            waves: 4,
        },
        WorkloadSpec::Sweep3d {
            gx,
            gy,
            gz,
            bytes: 256 << 10,
        },
    ]
}

/// All eleven workloads (heavy then light).
pub fn all_workloads(scale: SystemScale) -> Vec<WorkloadSpec> {
    let mut v = heavy_workloads(scale);
    v.extend(light_workloads(scale));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, ExperimentConfig, MappingSpec};
    use exaflow_sim::SimConfig;

    #[test]
    fn grid_matches_paper_order() {
        let g = hybrid_grid();
        assert_eq!(g.len(), 12);
        assert_eq!(g[0], (2, 8));
        assert_eq!(g[3], (2, 1));
        assert_eq!(g[11], (8, 1));
    }

    #[test]
    fn workload_lists_match_figures() {
        let scale = SystemScale::new(64).unwrap();
        let heavy = heavy_workloads(scale);
        let light = light_workloads(scale);
        assert_eq!(heavy.len(), 6);
        assert_eq!(light.len(), 5);
        assert!(heavy.iter().all(|w| w.is_heavy()));
        assert!(light.iter().all(|w| !w.is_heavy()));
        assert_eq!(all_workloads(scale).len(), 11);
    }

    #[test]
    fn figure_topologies_pin_the_figure_order() {
        // 64 QFDBs cannot host t=8 subtori: 2 baselines + 8 hybrid pairs.
        let scale = SystemScale::new(64).unwrap();
        let mut want = vec![scale.fattree_spec(), scale.torus_spec()];
        for (t, u) in hybrid_grid().into_iter().filter(|&(t, _)| t < 8) {
            want.push(
                scale
                    .nested_spec(UpperTierKind::GeneralizedHypercube, t, u)
                    .unwrap(),
            );
            want.push(scale.nested_spec(UpperTierKind::Fattree, t, u).unwrap());
        }
        let topos = figure_topologies(scale);
        assert_eq!(topos, want);
        for spec in topos {
            assert_eq!(spec.build().unwrap().num_endpoints(), 64);
        }
        // The simulation scale hosts the whole grid: 26 topologies.
        assert_eq!(figure_topologies(SystemScale::DEFAULT_SIM).len(), 26);
    }

    #[test]
    fn end_to_end_tiny_figure_cell() {
        // Figure 4's AllReduce at 64 QFDBs on every figure topology.
        let scale = SystemScale::new(64).unwrap();
        let workload = WorkloadSpec::AllReduce {
            tasks: 64,
            bytes: 1 << 16,
        };
        for spec in figure_topologies(scale) {
            let res = run_experiment(&ExperimentConfig {
                topology: spec,
                workload: workload.clone(),
                mapping: MappingSpec::Linear,
                sim: SimConfig::default(),
                failures: None,
                fault_injection: None,
            })
            .unwrap();
            assert!(res.makespan_seconds > 0.0);
        }
    }

    #[test]
    fn figure_panel_tiny() {
        let scale = SystemScale::new(64).unwrap();
        let w = WorkloadSpec::Reduce {
            tasks: 64,
            bytes: 1 << 12,
        };
        let panels = crate::reproduce::figure(scale, &[w], Some(2)).unwrap();
        // t=8 is skipped at 64 QFDBs: 8 of 12 grid points remain.
        assert_eq!(panels[0].cells.len(), 8);
        // Reduce is topology-insensitive: every normalised value ~1.
        for c in &panels[0].cells {
            assert!((c.nest_ghc - 1.0).abs() < 1e-6, "{c:?}");
            assert!((c.torus - 1.0).abs() < 1e-6, "{c:?}");
        }
        assert!(panels[0].render().contains("NestGHC"));
    }
}
