//! n-Bodies: ring-based force exchange.

use crate::mapping::TaskMapping;
use exaflow_sim::{FlowDag, FlowDagBuilder};

/// [`WorkloadSpec::NBodies`](crate::WorkloadSpec::NBodies): every task
/// starts a chain of `tasks / 2` clockwise hops around the ring.
///
/// All `tasks` chains run concurrently; within a chain, hop `s+1` starts
/// when hop `s` completes.
pub(crate) fn n_bodies(tasks: usize, bytes: u64, mapping: &TaskMapping) -> FlowDag {
    assert!(tasks >= 2, "n-Bodies needs at least two tasks");
    assert!(mapping.len() >= tasks);
    let n = tasks;
    let hops = n / 2;
    let mut b = FlowDagBuilder::with_capacity(n * hops, n * hops);
    for start in 0..n {
        let mut prev = None;
        for s in 0..hops {
            let from = (start + s) % n;
            let to = (start + s + 1) % n;
            prev = Some(b.add_flow(
                mapping.node_of(from),
                mapping.node_of(to),
                bytes,
                prev.as_slice(),
            ));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use exaflow_sim::FlowId;

    #[test]
    fn flow_count() {
        let dag = WorkloadSpec::NBodies { tasks: 8, bytes: 1 }.generate(&TaskMapping::linear(8, 8));
        assert_eq!(dag.len(), 8 * 4);
    }

    #[test]
    fn chains_are_serial() {
        let dag = WorkloadSpec::NBodies { tasks: 6, bytes: 1 }.generate(&TaskMapping::linear(6, 6));
        // Each chain of 3 hops: hop 0 no deps, hops 1..: one dep each.
        for c in 0..6u32 {
            let base = c * 3;
            assert!(dag.preds(FlowId(base)).is_empty());
            assert_eq!(dag.preds(FlowId(base + 1)), &[base]);
            assert_eq!(dag.preds(FlowId(base + 2)), &[base + 1]);
        }
    }

    /// The dependency of a hop is passed as `Option::as_slice`; a DAG built
    /// with a collected `Vec` per flow must be identical.
    #[test]
    fn dag_matches_the_vec_per_flow_construction() {
        let (n, bytes) = (10, 7);
        let mapping = TaskMapping::linear(n, n);
        let mut b = FlowDagBuilder::new();
        for start in 0..n {
            let mut prev: Option<FlowId> = None;
            for s in 0..n / 2 {
                let deps: Vec<FlowId> = prev.into_iter().collect();
                let (from, to) = ((start + s) % n, (start + s + 1) % n);
                prev = Some(b.add_flow(mapping.node_of(from), mapping.node_of(to), bytes, &deps));
            }
        }
        let dag = WorkloadSpec::NBodies { tasks: n, bytes }.generate(&mapping);
        assert_eq!(
            serde_json::to_string(&dag).unwrap(),
            serde_json::to_string(&b.build()).unwrap()
        );
    }

    #[test]
    fn hops_go_clockwise() {
        let dag = WorkloadSpec::NBodies { tasks: 4, bytes: 1 }.generate(&TaskMapping::linear(4, 4));
        for f in dag.flows() {
            assert_eq!((f.src + 1) % 4, f.dst);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_task_rejected() {
        WorkloadSpec::NBodies { tasks: 1, bytes: 1 }.generate(&TaskMapping::linear(1, 1));
    }
}
