//! Collective operations: the non-optimised Reduce and the logarithmic
//! AllReduce.

use crate::mapping::TaskMapping;
use exaflow_sim::{FlowDag, FlowDagBuilder, FlowId};

/// [`WorkloadSpec::Reduce`](crate::WorkloadSpec::Reduce): every task
/// sends its `bytes` straight to the root task.
pub(crate) fn reduce(tasks: usize, bytes: u64, mapping: &TaskMapping) -> FlowDag {
    assert!(mapping.len() >= tasks);
    let root = mapping.node_of(0);
    let mut b = FlowDagBuilder::with_capacity(tasks - 1, 0);
    for t in 1..tasks {
        b.add_flow(mapping.node_of(t), root, bytes, &[]);
    }
    b.build()
}

/// [`WorkloadSpec::AllReduce`](crate::WorkloadSpec::AllReduce): recursive
/// doubling over `log2(tasks)` rounds.
///
/// In round `r`, task `i` exchanges `bytes` with partner `i XOR 2^r`; a
/// task's round-`r` exchange starts only after its round-`r−1` send *and*
/// receive have completed.
pub(crate) fn all_reduce(tasks: usize, bytes: u64, mapping: &TaskMapping) -> FlowDag {
    assert!(
        tasks.is_power_of_two() && tasks >= 2,
        "AllReduce requires a power-of-two task count, got {tasks}"
    );
    assert!(mapping.len() >= tasks);
    let rounds = tasks.trailing_zeros();
    let mut b = FlowDagBuilder::with_capacity(tasks * rounds as usize, 2 * tasks * rounds as usize);
    // send[i] / recv[i]: previous round's flows touching task i.
    let mut send: Vec<Option<FlowId>> = vec![None; tasks];
    let mut recv: Vec<Option<FlowId>> = vec![None; tasks];
    for r in 0..rounds {
        let mut new_send = vec![None; tasks];
        for i in 0..tasks {
            let partner = i ^ (1 << r);
            let mut deps = Vec::with_capacity(2);
            if let Some(s) = send[i] {
                deps.push(s);
            }
            if let Some(rcv) = recv[i] {
                deps.push(rcv);
            }
            let f = b.add_flow(mapping.node_of(i), mapping.node_of(partner), bytes, &deps);
            new_send[i] = Some(f);
        }
        // The flow i received in this round is partner's send.
        let new_recv: Vec<_> = (0..tasks).map(|i| new_send[i ^ (1 << r)]).collect();
        send = new_send;
        recv = new_recv;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use exaflow_sim::FlowId;

    fn map(n: usize) -> TaskMapping {
        TaskMapping::linear(n, n)
    }

    #[test]
    fn reduce_shape() {
        let w = WorkloadSpec::Reduce {
            tasks: 8,
            bytes: 100,
        };
        let dag = w.generate(&map(8));
        assert_eq!(dag.len(), 7);
        assert_eq!(dag.num_edges(), 0);
        for f in dag.flows() {
            assert_eq!(f.dst, 0);
            assert_ne!(f.src, 0);
            assert_eq!(f.bytes, 100);
        }
    }

    #[test]
    fn allreduce_shape() {
        let w = WorkloadSpec::AllReduce {
            tasks: 8,
            bytes: 64,
        };
        let dag = w.generate(&map(8));
        // 3 rounds x 8 flows.
        assert_eq!(dag.len(), 24);
        // Round 0 flows have no deps; later rounds have 2 deps each.
        let no_dep = (0..dag.len())
            .filter(|&f| dag.preds(FlowId(f as u32)).is_empty())
            .count();
        assert_eq!(no_dep, 8);
        assert_eq!(dag.num_edges(), 2 * 16);
    }

    #[test]
    fn allreduce_partners_are_xor() {
        let w = WorkloadSpec::AllReduce { tasks: 4, bytes: 1 };
        let dag = w.generate(&map(4));
        // Round 0: partners differ in bit 0.
        for f in &dag.flows()[0..4] {
            assert_eq!(f.src ^ f.dst, 1);
        }
        // Round 1: bit 1.
        for f in &dag.flows()[4..8] {
            assert_eq!(f.src ^ f.dst, 2);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn allreduce_rejects_non_pow2() {
        WorkloadSpec::AllReduce { tasks: 6, bytes: 1 }.generate(&map(6));
    }

    #[test]
    fn respects_mapping() {
        let mapping = TaskMapping::strided(4, 16, 4);
        let dag = WorkloadSpec::Reduce { tasks: 4, bytes: 1 }.generate(&mapping);
        for f in dag.flows() {
            assert_eq!(f.dst, 0);
            assert!(f.src % 4 == 0);
        }
    }
}
