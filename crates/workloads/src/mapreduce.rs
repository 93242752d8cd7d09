//! MapReduce: distribute → map+shuffle → gather (Dean & Ghemawat).

use crate::mapping::TaskMapping;
use exaflow_sim::{FlowDag, FlowDagBuilder, FlowId};

/// [`WorkloadSpec::MapReduce`](crate::WorkloadSpec::MapReduce): task 0
/// distributes, every task shuffles all-to-all, and the workers gather
/// their results back to task 0.
///
/// Each worker's shuffle messages are serialised (one NIC per node), with
/// destinations visited in rotated order `i+1, i+2, …` so the all-to-all
/// advances as disjoint rounds rather than N² simultaneous flows.
pub(crate) fn map_reduce(
    tasks: usize,
    distribute_bytes: u64,
    shuffle_bytes: u64,
    gather_bytes: u64,
    mapping: &TaskMapping,
) -> FlowDag {
    let n = tasks;
    assert!(n >= 2, "MapReduce needs at least two tasks");
    assert!(mapping.len() >= n);
    let root = mapping.node_of(0);
    let mut b = FlowDagBuilder::with_capacity(n * (n + 1), 2 * n * n);

    // Phase 1: distribute. Root sends partition to every worker.
    let mut distribute: Vec<Option<FlowId>> = vec![None; n];
    for (t, slot) in distribute.iter_mut().enumerate().skip(1) {
        *slot = Some(b.add_flow(root, mapping.node_of(t), distribute_bytes, &[]));
    }

    // Phase 2: shuffle. Worker i sends to every j != i, serialised per
    // sender, first message gated on its distribute receive.
    // shuffle_in[j] collects the flows arriving at j.
    let mut shuffle_in: Vec<Vec<FlowId>> = vec![Vec::with_capacity(n - 1); n];
    let mut last_send: Vec<Option<FlowId>> = distribute.clone();
    for step in 1..n {
        for (i, last) in last_send.iter_mut().enumerate() {
            let j = (i + step) % n;
            let f = b.add_flow(
                mapping.node_of(i),
                mapping.node_of(j),
                shuffle_bytes,
                last.as_slice(),
            );
            *last = Some(f);
            shuffle_in[j].push(f);
        }
    }

    // Phase 3: gather. Worker j reduces what it received and reports to
    // the root; gated on all shuffle flows into j.
    for (j, inflows) in shuffle_in.iter().enumerate().skip(1) {
        b.add_flow(mapping.node_of(j), root, gather_bytes, inflows);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;

    fn gen(n: usize) -> FlowDag {
        WorkloadSpec::MapReduce {
            tasks: n,
            distribute_bytes: 1000,
            shuffle_bytes: 100,
            gather_bytes: 10,
        }
        .generate(&TaskMapping::linear(n, n))
    }

    #[test]
    fn flow_counts() {
        let n = 8;
        let dag = gen(n);
        // distribute: n-1, shuffle: n*(n-1), gather: n-1.
        assert_eq!(dag.len(), (n - 1) + n * (n - 1) + (n - 1));
    }

    #[test]
    fn shuffle_covers_all_pairs() {
        let n = 6;
        let dag = gen(n);
        let mut pairs = std::collections::HashSet::new();
        for f in dag.flows() {
            if f.bytes == 100 {
                assert_ne!(f.src, f.dst);
                assert!(pairs.insert((f.src, f.dst)), "duplicate pair");
            }
        }
        assert_eq!(pairs.len(), n * (n - 1));
    }

    #[test]
    fn gather_depends_on_all_inbound_shuffles() {
        let n = 4;
        let dag = gen(n);
        // Gathers are the last n-1 flows.
        for idx in dag.len() - (n - 1)..dag.len() {
            let preds = dag.preds(exaflow_sim::FlowId(idx as u32));
            assert_eq!(preds.len(), n - 1);
        }
    }

    /// A sender's previous message is passed as `Option::as_slice`; a DAG
    /// built with a collected `Vec` per flow must be identical.
    #[test]
    fn dag_matches_the_vec_per_flow_construction() {
        let n = 5;
        let mapping = TaskMapping::linear(n, n);
        let root = mapping.node_of(0);
        let mut b = FlowDagBuilder::new();
        let mut last: Vec<Option<FlowId>> = vec![None; n];
        for (t, slot) in last.iter_mut().enumerate().skip(1) {
            *slot = Some(b.add_flow(root, mapping.node_of(t), 1000, &[]));
        }
        let mut shuffle_in: Vec<Vec<FlowId>> = vec![Vec::new(); n];
        for step in 1..n {
            for (i, slot) in last.iter_mut().enumerate() {
                let j = (i + step) % n;
                let deps: Vec<FlowId> = slot.iter().copied().collect();
                let f = b.add_flow(mapping.node_of(i), mapping.node_of(j), 100, &deps);
                *slot = Some(f);
                shuffle_in[j].push(f);
            }
        }
        for (j, inflows) in shuffle_in.iter().enumerate().skip(1) {
            b.add_flow(mapping.node_of(j), root, 10, inflows);
        }
        assert_eq!(
            serde_json::to_string(&gen(n)).unwrap(),
            serde_json::to_string(&b.build()).unwrap()
        );
    }

    #[test]
    fn sender_chains_are_serialised() {
        let n = 4;
        let dag = gen(n);
        // Any shuffle flow beyond a sender's first must depend on exactly
        // one earlier flow of the same source.
        for idx in 0..dag.len() {
            let f = dag.flow(exaflow_sim::FlowId(idx as u32));
            if f.bytes != 100 {
                continue;
            }
            let preds = dag.preds(exaflow_sim::FlowId(idx as u32));
            assert!(preds.len() <= 1);
            if let Some(&p) = preds.first() {
                let pf = dag.flow(exaflow_sim::FlowId(p));
                // predecessor is either the distribute into src or an
                // earlier shuffle send from src.
                assert!(pf.dst == f.src || pf.src == f.src);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_task_rejected() {
        gen(1);
    }
}
