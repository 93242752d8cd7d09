//! Task → endpoint placement policies.
//!
//! The paper's simulator (INRFlow) separates workload generation from
//! scheduling: tasks are mapped onto physical endpoints by a placement
//! policy. We provide the three classics: linear (consecutive), strided,
//! and random.

use exaflow_netgraph::NodeId;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// An immutable task → endpoint table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskMapping {
    table: Vec<u32>,
}

impl TaskMapping {
    /// Task `i` on endpoint `i`.
    pub fn linear(tasks: usize, endpoints: usize) -> Self {
        assert!(tasks <= endpoints, "{tasks} tasks > {endpoints} endpoints");
        TaskMapping {
            table: (0..tasks as u32).collect(),
        }
    }

    /// Task `i` on endpoint `(i * stride) % endpoints`, with collision
    /// avoidance by requiring `gcd(stride, endpoints) * tasks <= endpoints`
    /// — the simple sufficient condition `stride * tasks <= endpoints` is
    /// enforced instead for clarity.
    pub fn strided(tasks: usize, endpoints: usize, stride: usize) -> Self {
        assert!(stride >= 1);
        assert!(
            tasks * stride <= endpoints,
            "{tasks} tasks with stride {stride} exceed {endpoints} endpoints"
        );
        TaskMapping {
            table: (0..tasks).map(|i| (i * stride) as u32).collect(),
        }
    }

    /// Random placement without collisions (a uniform sample of endpoints),
    /// deterministic in `seed`.
    pub fn random(tasks: usize, endpoints: usize, seed: u64) -> Self {
        assert!(tasks <= endpoints, "{tasks} tasks > {endpoints} endpoints");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<u32> = (0..endpoints as u32).collect();
        all.shuffle(&mut rng);
        all.truncate(tasks);
        TaskMapping { table: all }
    }

    /// Number of mapped tasks.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Endpoint of task `task`.
    #[inline]
    pub fn node_of(&self, task: usize) -> NodeId {
        NodeId(self.table[task])
    }

    /// The raw table.
    pub fn table(&self) -> &[u32] {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_identity() {
        let m = TaskMapping::linear(4, 8);
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m.node_of(i), NodeId(i as u32));
        }
    }

    #[test]
    fn strided_spreads() {
        let m = TaskMapping::strided(4, 16, 4);
        assert_eq!(m.table(), &[0, 4, 8, 12]);
    }

    #[test]
    fn random_is_deterministic_and_collision_free() {
        let a = TaskMapping::random(50, 100, 7);
        let b = TaskMapping::random(50, 100, 7);
        assert_eq!(a, b);
        let c = TaskMapping::random(50, 100, 8);
        assert_ne!(a, c);
        let mut seen = std::collections::HashSet::new();
        for i in 0..a.len() {
            assert!(seen.insert(a.node_of(i)));
            assert!(a.node_of(i).0 < 100);
        }
    }

    #[test]
    #[should_panic(expected = "tasks > ")]
    fn too_many_tasks_panics() {
        TaskMapping::linear(9, 8);
    }

    #[test]
    fn empty_is_fine() {
        let m = TaskMapping::linear(0, 0);
        assert!(m.is_empty());
    }
}
