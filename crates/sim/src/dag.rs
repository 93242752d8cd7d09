//! Flow DAGs: the workload representation consumed by the simulator.
//!
//! A [`FlowDag`] is a list of flows plus causal dependencies: a flow may
//! start only when all of its predecessors have completed. Builders must
//! reference only already-added flows as dependencies, which makes the
//! graph acyclic *by construction* — a property the engine relies on.
//!
//! Flows live in **task/endpoint space**: `src` and `dst` are endpoint
//! indices of the topology the DAG will be simulated on. Zero-byte flows
//! are legal and complete instantly; they are useful as pure
//! synchronisation points (e.g. a barrier between workload phases).

use exaflow_netgraph::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a flow within a [`FlowDag`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The id as a `usize`, for indexing per-flow vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One flow: a point-to-point transfer of `bytes` from `src` to `dst`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Source endpoint.
    pub src: u32,
    /// Destination endpoint.
    pub dst: u32,
    /// Transfer size in bytes. Zero-byte flows complete instantly.
    pub bytes: u64,
}

/// An immutable DAG of flows.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowDag {
    flows: Vec<FlowSpec>,
    /// CSR of predecessor lists.
    pred_offsets: Vec<u32>,
    preds: Vec<u32>,
}

impl FlowDag {
    /// Number of flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the DAG has no flows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow record.
    #[inline]
    pub fn flow(&self, id: FlowId) -> &FlowSpec {
        &self.flows[id.index()]
    }

    /// All flows, indexable by [`FlowId::index`].
    #[inline]
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    /// Predecessors of a flow.
    #[inline]
    pub fn preds(&self, id: FlowId) -> &[u32] {
        let lo = self.pred_offsets[id.index()] as usize;
        let hi = self.pred_offsets[id.index() + 1] as usize;
        &self.preds[lo..hi]
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.preds.len()
    }

    /// Sum of all flow sizes in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Largest endpoint index referenced, or `None` for an empty DAG.
    pub fn max_endpoint(&self) -> Option<u32> {
        self.flows.iter().map(|f| f.src.max(f.dst)).max()
    }

    /// Build successor adjacency (CSR) — used by the engine.
    pub(crate) fn successors(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.flows.len();
        let mut counts = vec![0u32; n + 1];
        for &p in &self.preds {
            counts[p as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut succs = vec![0u32; self.preds.len()];
        let mut cursor = counts;
        for f in 0..n {
            for &p in self.preds(FlowId(f as u32)) {
                succs[cursor[p as usize] as usize] = f as u32;
                cursor[p as usize] += 1;
            }
        }
        (offsets, succs)
    }
}

/// Incremental builder for [`FlowDag`].
#[derive(Default, Debug)]
pub struct FlowDagBuilder {
    flows: Vec<FlowSpec>,
    pred_offsets: Vec<u32>,
    preds: Vec<u32>,
}

impl FlowDagBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        FlowDagBuilder {
            flows: Vec::new(),
            pred_offsets: vec![0],
            preds: Vec::new(),
        }
    }

    /// Create a builder with capacity for `flows` flows and `edges`
    /// dependency edges.
    pub fn with_capacity(flows: usize, edges: usize) -> Self {
        let mut b = FlowDagBuilder {
            flows: Vec::with_capacity(flows),
            pred_offsets: Vec::with_capacity(flows + 1),
            preds: Vec::with_capacity(edges),
        };
        b.pred_offsets.push(0);
        b
    }

    /// Add a flow depending on `deps` (all must be already-added flows).
    ///
    /// Panics on a forward reference — this is what guarantees acyclicity.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[FlowId]) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        for &d in deps {
            assert!(
                d.0 < id.0,
                "flow {} depends on not-yet-added flow {}",
                id.0,
                d.0
            );
            self.preds.push(d.0);
        }
        self.flows.push(FlowSpec {
            src: src.0,
            dst: dst.0,
            bytes,
        });
        self.pred_offsets.push(self.preds.len() as u32);
        id
    }

    /// Add a zero-byte synchronisation flow joining all `deps`.
    ///
    /// The src/dst are irrelevant for a zero-byte flow; endpoint 0 is used.
    pub fn add_barrier(&mut self, deps: &[FlowId]) -> FlowId {
        self.add_flow(NodeId(0), NodeId(0), 0, deps)
    }

    /// Number of flows added so far.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flows were added yet.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Finalise the DAG.
    pub fn build(self) -> FlowDag {
        FlowDag {
            flows: self.flows,
            pred_offsets: self.pred_offsets,
            preds: self.preds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_chain() {
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(1), 100, &[]);
        let c = b.add_flow(NodeId(1), NodeId(2), 200, &[a]);
        let d = b.add_flow(NodeId(2), NodeId(3), 300, &[c]);
        let dag = b.build();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.num_edges(), 2);
        assert_eq!(dag.preds(d), &[c.0]);
        assert_eq!(dag.preds(a), &[] as &[u32]);
        assert_eq!(dag.total_bytes(), 600);
        assert_eq!(dag.max_endpoint(), Some(3));
    }

    #[test]
    #[should_panic(expected = "not-yet-added")]
    fn forward_reference_panics() {
        let mut b = FlowDagBuilder::new();
        b.add_flow(NodeId(0), NodeId(1), 1, &[FlowId(5)]);
    }

    #[test]
    fn successors_invert_preds() {
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(0), NodeId(1), 1, &[]);
        let c = b.add_flow(NodeId(0), NodeId(2), 1, &[a]);
        let d = b.add_flow(NodeId(0), NodeId(3), 1, &[a, c]);
        let dag = b.build();
        let (off, succ) = dag.successors();
        let succs_of = |f: FlowId| &succ[off[f.index()] as usize..off[f.index() + 1] as usize];
        assert_eq!(succs_of(a), &[c.0, d.0]);
        assert_eq!(succs_of(c), &[d.0]);
        assert_eq!(succs_of(d), &[] as &[u32]);
    }

    #[test]
    fn barrier_is_zero_bytes() {
        let mut b = FlowDagBuilder::new();
        let a = b.add_flow(NodeId(3), NodeId(4), 10, &[]);
        let bar = b.add_barrier(&[a]);
        let dag = b.build();
        assert_eq!(dag.flow(bar).bytes, 0);
    }

    #[test]
    fn empty_dag() {
        let dag = FlowDagBuilder::new().build();
        assert!(dag.is_empty());
        assert_eq!(dag.max_endpoint(), None);
        assert_eq!(dag.total_bytes(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = FlowDagBuilder::with_capacity(10, 10);
        let a = b.add_flow(NodeId(0), NodeId(1), 5, &[]);
        assert_eq!(a, FlowId(0));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        let dag = b.build();
        assert_eq!(dag.len(), 1);
    }
}
