//! The per-run path table: every resource path a run uses, stored once.
//!
//! A route is interned when it is first built — on a route-memo miss, at
//! an activation or a fault reroute — and from then on the route memo, the
//! active set and the solver all hold its 4-byte
//! [`PathId`]. Interning is by *content*: two routes with the same
//! resources get the same id, so "same path" is an integer comparison
//! everywhere (the solver's coalescing index is a dense array over ids)
//! and a reroute that lands on a path some other flow already uses joins
//! that flow's solver entry.
//!
//! Paths are never evicted: the table lives as long as the run and holds
//! at most one copy of each distinct route the run ever took — hops × 4
//! bytes each, no per-path allocation.

use exaflow_netgraph::IntHasher;
use std::hash::Hasher;

/// Index of an interned path in its [`PathTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathId(pub u32);

/// Flat, content-deduplicated store of resource paths.
#[derive(Debug)]
pub struct PathTable {
    /// Path `i` is `hops[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    hops: Vec<u32>,
    /// Open-addressed content index: `id + 1` per occupied slot, 0 when
    /// empty; a power of two in length and at most half full.
    slots: Vec<u32>,
}

impl Default for PathTable {
    fn default() -> Self {
        PathTable::new()
    }
}

impl PathTable {
    pub fn new() -> Self {
        PathTable {
            offsets: vec![0],
            hops: Vec::new(),
            slots: vec![0; 16],
        }
    }

    /// Number of distinct paths interned so far.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resources of path `id`, in route order.
    #[inline]
    pub fn get(&self, id: PathId) -> &[u32] {
        let i = id.0 as usize;
        &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The id of `path`, storing it first if no equal path is in the table.
    pub fn intern(&mut self, path: &[u32]) -> PathId {
        let mask = self.slots.len() - 1;
        let mut slot = Self::hash(path) as usize & mask;
        while self.slots[slot] != 0 {
            let id = PathId(self.slots[slot] - 1);
            if self.get(id) == path {
                return id;
            }
            slot = (slot + 1) & mask;
        }
        let id = u32::try_from(self.len()).expect("path table holds under 2^32 paths");
        self.hops.extend_from_slice(path);
        let end = u32::try_from(self.hops.len()).expect("path table holds under 2^32 hops");
        self.offsets.push(end);
        self.slots[slot] = id + 1;
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        PathId(id)
    }

    fn hash(path: &[u32]) -> u64 {
        let mut h = IntHasher::default();
        for &r in path {
            h.write_u32(r);
        }
        h.finish()
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![0u32; mask + 1];
        for id in 0..self.len() as u32 {
            let mut slot = Self::hash(self.get(PathId(id))) as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id + 1;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_content_shares_an_id_and_survives_growth() {
        let mut t = PathTable::new();
        assert!(t.is_empty());
        let paths: Vec<Vec<u32>> = (0..1000u32)
            .map(|i| (0..(i % 7)).map(|h| i * 31 + h).collect())
            .collect();
        let ids: Vec<PathId> = paths.iter().map(|p| t.intern(p)).collect();
        // Lengths 0..7 repeat: the empty path is one path, interned once.
        assert_eq!(ids[0], ids[7]);
        assert_eq!(t.get(ids[0]), &[] as &[u32]);
        for (p, &id) in paths.iter().zip(&ids) {
            assert_eq!(t.get(id), p.as_slice());
            assert_eq!(t.intern(p), id, "re-interning after growth");
        }
        let distinct: std::collections::HashSet<&Vec<u32>> = paths.iter().collect();
        assert_eq!(t.len(), distinct.len());
    }

    #[test]
    fn prefixes_and_permutations_are_distinct_paths() {
        let mut t = PathTable::new();
        let a = t.intern(&[1, 2, 3]);
        assert_ne!(t.intern(&[1, 2]), a);
        assert_ne!(t.intern(&[3, 2, 1]), a);
        assert_ne!(t.intern(&[1, 2, 3, 0]), a);
        assert_eq!(t.intern(&[1, 2, 3]), a);
        assert_eq!(t.len(), 4);
    }
}
