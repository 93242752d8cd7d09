//! Grid-structured workloads: Sweep3D wavefronts, Flood, and the
//! Near-Neighbours stencil.

use crate::grid::Grid3;
use crate::mapping::TaskMapping;
use exaflow_sim::{FlowDag, FlowDagBuilder, FlowId};

/// [`WorkloadSpec::Sweep3d`](crate::WorkloadSpec::Sweep3d): one wavefront
/// from corner `(0,0,0)`; each task forwards to its `+X`, `+Y`, `+Z`
/// neighbours once all of its inbound data has arrived.
pub(crate) fn sweep3d(gx: u32, gy: u32, gz: u32, bytes: u64, mapping: &TaskMapping) -> FlowDag {
    let grid = Grid3::new(gx, gy, gz);
    assert!(mapping.len() >= grid.len());
    let mut b = FlowDagBuilder::with_capacity(3 * grid.len(), 9 * grid.len());
    emit_wave(
        &mut b,
        &grid,
        mapping,
        bytes,
        &mut vec![Vec::new(); grid.len()],
        None,
    );
    b.build()
}

/// [`WorkloadSpec::Flood`](crate::WorkloadSpec::Flood): `waves` Sweep3D
/// wavefronts pipelined from the same corner.
pub(crate) fn flood(
    gx: u32,
    gy: u32,
    gz: u32,
    bytes: u64,
    waves: u32,
    mapping: &TaskMapping,
) -> FlowDag {
    let grid = Grid3::new(gx, gy, gz);
    assert!(waves >= 1, "Flood needs at least one wave");
    assert!(mapping.len() >= grid.len());
    let n = grid.len();
    let mut b = FlowDagBuilder::with_capacity(3 * n * waves as usize, 12 * n * waves as usize);
    // For pipelining, a task's wave-w sends additionally depend on its
    // wave-(w-1) sends (it must finish forwarding the previous wave).
    let mut prev_out: Option<Vec<Vec<FlowId>>> = None;
    for _ in 0..waves {
        let mut inflows = vec![Vec::new(); n];
        let out = emit_wave(
            &mut b,
            &grid,
            mapping,
            bytes,
            &mut inflows,
            prev_out.as_deref(),
        );
        prev_out = Some(out);
    }
    b.build()
}

/// Emit one wavefront. `inflows[t]` accumulates flows arriving at task `t`
/// within this wave; a task's sends depend on all of them, plus (for Flood)
/// the same task's sends of the previous wave (`prev_out`).
///
/// Returns the per-task list of this wave's outbound flows.
fn emit_wave(
    b: &mut FlowDagBuilder,
    grid: &Grid3,
    mapping: &TaskMapping,
    bytes: u64,
    inflows: &mut [Vec<FlowId>],
    prev_out: Option<&[Vec<FlowId>]>,
) -> Vec<Vec<FlowId>> {
    let mut out = vec![Vec::with_capacity(3); grid.len()];
    // Tasks in id order: all predecessors (lower coordinates) come first.
    for (x, y, z) in grid.iter() {
        let t = grid.id(x, y, z);
        let mut deps: Vec<FlowId> = inflows[t].clone();
        if let Some(prev) = prev_out {
            deps.extend_from_slice(&prev[t]);
        }
        let src = mapping.node_of(t);
        let mut neighbours = [None; 3];
        if x + 1 < grid.gx {
            neighbours[0] = Some(grid.id(x + 1, y, z));
        }
        if y + 1 < grid.gy {
            neighbours[1] = Some(grid.id(x, y + 1, z));
        }
        if z + 1 < grid.gz {
            neighbours[2] = Some(grid.id(x, y, z + 1));
        }
        for nb in neighbours.into_iter().flatten() {
            let f = b.add_flow(src, mapping.node_of(nb), bytes, &deps);
            inflows[nb].push(f);
            out[t].push(f);
        }
    }
    out
}

/// The distinct stencil neighbours of `(x, y, z)`: ±1 along every
/// dimension longer than one, wrapping when `periodic`.
fn neighbours(g: &Grid3, periodic: bool, x: u32, y: u32, z: u32) -> Vec<usize> {
    let mut out = Vec::with_capacity(6);
    let dims = [g.gx, g.gy, g.gz];
    let pos = [x, y, z];
    for d in 0..3 {
        for dir in [-1i64, 1] {
            let size = dims[d] as i64;
            if size == 1 {
                continue;
            }
            let c = pos[d] as i64 + dir;
            let c = if periodic {
                (c + size) % size
            } else if (0..size).contains(&c) {
                c
            } else {
                continue;
            };
            let mut q = pos;
            q[d] = c as u32;
            let id = g.id(q[0], q[1], q[2]);
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
    out
}

/// [`WorkloadSpec::NearNeighbors`](crate::WorkloadSpec::NearNeighbors):
/// every task exchanges with its grid neighbours simultaneously, for
/// `iterations` rounds; a task's round-r exchanges wait for all of its
/// round-(r−1) sends and receives.
pub(crate) fn near_neighbors(
    gx: u32,
    gy: u32,
    gz: u32,
    bytes: u64,
    iterations: u32,
    periodic: bool,
    mapping: &TaskMapping,
) -> FlowDag {
    let grid = Grid3::new(gx, gy, gz);
    assert!(iterations >= 1);
    assert!(mapping.len() >= grid.len());
    let n = grid.len();
    let mut b =
        FlowDagBuilder::with_capacity(6 * n * iterations as usize, 24 * n * iterations as usize);
    // prev[t]: flows of the previous round touching task t.
    let mut prev: Vec<Vec<FlowId>> = vec![Vec::new(); n];
    for _ in 0..iterations {
        let mut cur_send: Vec<Vec<FlowId>> = vec![Vec::with_capacity(6); n];
        let mut cur_recv: Vec<Vec<FlowId>> = vec![Vec::with_capacity(6); n];
        for (x, y, z) in grid.iter() {
            let t = grid.id(x, y, z);
            for nb in neighbours(&grid, periodic, x, y, z) {
                let f = b.add_flow(mapping.node_of(t), mapping.node_of(nb), bytes, &prev[t]);
                cur_send[t].push(f);
                cur_recv[nb].push(f);
            }
        }
        for t in 0..n {
            prev[t] = cur_send[t]
                .iter()
                .chain(cur_recv[t].iter())
                .copied()
                .collect();
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;

    fn map(n: usize) -> TaskMapping {
        TaskMapping::linear(n, n)
    }

    #[test]
    fn sweep_flow_count() {
        let dag = WorkloadSpec::Sweep3d {
            gx: 3,
            gy: 3,
            gz: 3,
            bytes: 10,
        }
        .generate(&map(27));
        // Edges: 3 dims * (gx-1)*gy*gz style: 2*3*3 per dim * 3 dims = 54.
        assert_eq!(dag.len(), 54);
    }

    #[test]
    fn sweep_corner_has_no_deps_interior_does() {
        let dag = WorkloadSpec::Sweep3d {
            gx: 3,
            gy: 3,
            gz: 3,
            bytes: 10,
        }
        .generate(&map(27));
        // First three flows leave the (0,0,0) corner with no deps.
        for i in 0..3 {
            assert!(dag.preds(FlowId(i)).is_empty());
        }
        // Flows out of higher tasks have deps.
        let with_deps = (0..dag.len())
            .filter(|&i| !dag.preds(FlowId(i as u32)).is_empty())
            .count();
        assert!(with_deps > 40);
    }

    #[test]
    fn flood_scales_with_waves() {
        let one = WorkloadSpec::Flood {
            gx: 3,
            gy: 3,
            gz: 1,
            bytes: 1,
            waves: 1,
        }
        .generate(&map(9));
        let four = WorkloadSpec::Flood {
            gx: 3,
            gy: 3,
            gz: 1,
            bytes: 1,
            waves: 4,
        }
        .generate(&map(9));
        assert_eq!(four.len(), 4 * one.len());
        // Pipelining: wave 2's corner flows depend on wave 1's corner flows.
        let per_wave = one.len();
        let w2_first = per_wave; // first flow of wave 2
        assert!(!four.preds(FlowId(w2_first as u32)).is_empty());
    }

    #[test]
    fn stencil_flow_count_periodic() {
        let dag = WorkloadSpec::NearNeighbors {
            gx: 4,
            gy: 4,
            gz: 4,
            bytes: 1,
            iterations: 2,
            periodic: true,
        }
        .generate(&map(64));
        // Periodic: every task sends 6 flows per iteration.
        assert_eq!(dag.len(), 64 * 6 * 2);
    }

    #[test]
    fn stencil_open_boundaries_fewer_flows() {
        let open = WorkloadSpec::NearNeighbors {
            gx: 4,
            gy: 4,
            gz: 4,
            bytes: 1,
            iterations: 1,
            periodic: false,
        }
        .generate(&map(64));
        assert!(open.len() < 64 * 6);
        // 3 dims * 2*(4-1)*16 directed edges... : per dim (4-1)*16 pairs *2
        assert_eq!(open.len(), 3 * 2 * 3 * 16);
    }

    #[test]
    fn stencil_size2_dims_dont_duplicate() {
        // With periodic boundaries and a size-2 dimension, -1 and +1 reach
        // the same neighbour; it must be exchanged once, not twice.
        let dag = WorkloadSpec::NearNeighbors {
            gx: 2,
            gy: 1,
            gz: 1,
            bytes: 1,
            iterations: 1,
            periodic: true,
        }
        .generate(&map(2));
        assert_eq!(dag.len(), 2);
    }

    #[test]
    fn stencil_rounds_serialised() {
        let dag = WorkloadSpec::NearNeighbors {
            gx: 3,
            gy: 1,
            gz: 1,
            bytes: 1,
            iterations: 2,
            periodic: false,
        }
        .generate(&map(3));
        // Second-iteration flows depend on first-iteration ones.
        let half = dag.len() / 2;
        for i in half..dag.len() {
            assert!(!dag.preds(FlowId(i as u32)).is_empty());
        }
    }
}
