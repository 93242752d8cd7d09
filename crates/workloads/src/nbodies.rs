//! n-Bodies: ring-based force exchange.

use crate::mapping::TaskMapping;
use crate::Workload;
use exaflow_sim::{FlowDag, FlowDagBuilder};

/// The paper's n-Bodies model: tasks sit on a virtual ring; every task
/// starts a chain of messages that travels clockwise across half the ring
/// (each body's state visits the `tasks/2` following tasks, accumulating
/// pairwise interactions).
///
/// All `tasks` chains run concurrently; within a chain, hop `s+1` starts
/// when hop `s` completes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NBodies {
    /// Number of tasks on the ring.
    pub tasks: usize,
    /// Bytes per chain hop.
    pub bytes: u64,
}

impl Workload for NBodies {
    fn name(&self) -> &'static str {
        "n-Bodies"
    }

    fn num_tasks(&self) -> usize {
        self.tasks
    }

    fn generate(&self, mapping: &TaskMapping) -> FlowDag {
        assert!(self.tasks >= 2, "n-Bodies needs at least two tasks");
        assert!(mapping.len() >= self.tasks);
        let n = self.tasks;
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
                    self.bytes,
                    prev.as_slice(),
                ));
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaflow_sim::FlowId;

    #[test]
    fn flow_count() {
        let dag = NBodies { tasks: 8, bytes: 1 }.generate(&TaskMapping::linear(8, 8));
        assert_eq!(dag.len(), 8 * 4);
    }

    #[test]
    fn chains_are_serial() {
        let dag = NBodies { tasks: 6, bytes: 1 }.generate(&TaskMapping::linear(6, 6));
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
        let dag = NBodies { tasks: n, bytes }.generate(&mapping);
        assert_eq!(
            serde_json::to_string(&dag).unwrap(),
            serde_json::to_string(&b.build()).unwrap()
        );
    }

    #[test]
    fn hops_go_clockwise() {
        let dag = NBodies { tasks: 4, bytes: 1 }.generate(&TaskMapping::linear(4, 4));
        for f in dag.flows() {
            assert_eq!((f.src + 1) % 4, f.dst);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_task_rejected() {
        NBodies { tasks: 1, bytes: 1 }.generate(&TaskMapping::linear(1, 1));
    }
}
