//! The per-run path table: every resource path the active set uses,
//! stored once.
//!
//! A route is interned when it is first built — on a route-memo miss, at
//! an activation or a fault reroute — and from then on the route memo, the
//! active set and the solver all hold its 4-byte
//! [`PathId`]. Interning is by *content*: two routes with the same
//! resources get the same id, so "same path" is an integer comparison
//! everywhere, and a reroute that lands on a path some other flow already
//! uses joins that flow's solver entry. The id *is* the solver's entry:
//! its per-entry arrays are indexed by it.
//!
//! The table is a content store and nothing more: it does not know which
//! paths are in use. The solver does (its entry weights, see the
//! [`crate::maxmin`] module docs, "Deferred settle"), so the solver says
//! when a sweep pays and which ids it keeps. A `sweep` walks the paths in
//! hop order, frees every id its caller lets go of for reuse and compacts
//! the hops of the rest in place. Each id keeps its own `(start, len)`
//! span, so a kept [`PathId`] never moves. The content index, which a
//! route rebuilt after a fault transition still needs, keeps the slots of
//! freed ids until it is rebuilt: lookups pass over them, and they count
//! towards the load that triggers the rebuild, so a sweep costs the paths
//! it walks and nothing more. Swept whenever the solver asks, the table
//! holds the hops of the paths in use and of those dead since the last
//! settle, and at most as many again dead ones — hops × 4 bytes each, no
//! per-path allocation.

use exaflow_netgraph::IntHasher;
use std::hash::Hasher;

/// `start` of a freed id's span: out of range, so reading it panics.
const FREED: u32 = u32::MAX;

/// Index of an interned path in its [`PathTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathId(pub u32);

/// Flat, content-deduplicated store of resource paths.
#[derive(Debug)]
pub struct PathTable {
    /// Path `i` is `hops[start..start + len]` for `spans[i] = (start,
    /// len)`; a freed id's span is `(FREED, 0)`.
    spans: Vec<(u32, u32)>,
    hops: Vec<u32>,
    /// The ids not freed, in the order of their hops.
    order: Vec<u32>,
    /// Freed ids: `intern` reuses them first.
    free: Vec<u32>,
    /// Open-addressed content index: `id + 1` per occupied slot, 0 when
    /// empty; a power of two in length. A sweep leaves the slots of the
    /// ids it frees, which lookups pass over, until occupied slots fill
    /// half the index and it is rebuilt over the ids in use.
    slots: Vec<u32>,
    /// Occupied slots of `slots`, stale ones included.
    occupied: usize,
}

impl Default for PathTable {
    fn default() -> Self {
        PathTable::new()
    }
}

impl PathTable {
    pub fn new() -> Self {
        PathTable {
            spans: Vec::new(),
            hops: Vec::new(),
            order: Vec::new(),
            free: Vec::new(),
            slots: vec![0; 16],
            occupied: 0,
        }
    }

    /// Number of paths in the table: every id not freed.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id handed out so far: the length of a dense
    /// array over ids.
    pub(crate) fn ids(&self) -> usize {
        self.spans.len()
    }

    /// Hops stored, over every path in the table.
    pub(crate) fn hops(&self) -> usize {
        self.hops.len()
    }

    /// Whether `id` names a path of the table: false once a sweep freed
    /// it, until `intern` reuses it.
    pub(crate) fn contains(&self, id: PathId) -> bool {
        self.spans[id.0 as usize].0 != FREED
    }

    /// The resources of path `id`, in route order.
    #[inline]
    pub fn get(&self, id: PathId) -> &[u32] {
        let (start, len) = self.spans[id.0 as usize];
        &self.hops[start as usize..(start + len) as usize]
    }

    /// The id of `path`, storing it first if no equal path is in the
    /// table. A stored path may take an id a sweep freed.
    pub fn intern(&mut self, path: &[u32]) -> PathId {
        let mask = self.slots.len() - 1;
        let mut slot = Self::hash(path) as usize & mask;
        while self.slots[slot] != 0 {
            let id = PathId(self.slots[slot] - 1);
            if self.contains(id) && self.get(id) == path {
                return id;
            }
            slot = (slot + 1) & mask;
        }
        let start = self.hops.len();
        self.hops.extend_from_slice(path);
        let end = u32::try_from(self.hops.len()).expect("path table holds under 2^32 hops");
        let span = (start as u32, end - start as u32);
        let id = match self.free.pop() {
            Some(id) => {
                self.spans[id as usize] = span;
                id
            }
            None => {
                let id = u32::try_from(self.spans.len())
                    .ok()
                    .filter(|&id| id != u32::MAX)
                    .expect("path table holds under 2^32 - 1 paths");
                self.spans.push(span);
                id
            }
        };
        self.order.push(id);
        self.slots[slot] = id + 1;
        self.occupied += 1;
        if 2 * self.occupied > self.slots.len() {
            self.index();
        }
        PathId(id)
    }

    /// Keep the paths `keep` accepts and free the rest: one walk over the
    /// paths in the table, calling `keep` with each id and its hops. A
    /// freed id can be reused once `keep` has returned; the kept paths'
    /// hops are compacted, and their ids and contents stay.
    pub fn sweep(&mut self, mut keep: impl FnMut(PathId, &[u32]) -> bool) {
        let (mut kept, mut end) = (0, 0);
        for k in 0..self.order.len() {
            let id = self.order[k];
            let i = id as usize;
            let (start, len) = self.spans[i];
            let hops = start as usize..(start + len) as usize;
            if !keep(PathId(id), &self.hops[hops.clone()]) {
                self.spans[i] = (FREED, 0);
                self.free.push(id);
                continue;
            }
            // Spans lie in `order`: none lands past one not yet moved.
            self.hops.copy_within(hops, end as usize);
            self.spans[i] = (end, len);
            end += len;
            self.order[kept] = id;
            kept += 1;
        }
        self.order.truncate(kept);
        self.hops.truncate(end as usize);
    }

    fn hash(path: &[u32]) -> u64 {
        let mut h = IntHasher::default();
        for &r in path {
            h.write_u32(r);
        }
        h.finish()
    }

    /// Rebuild the content index over the ids in use, at twice its size
    /// if they fill over a quarter of it; otherwise stale slots made the
    /// load, and the rebuilt index is at most a quarter full.
    fn index(&mut self) {
        let size = if 4 * self.len() > self.slots.len() {
            2 * self.slots.len()
        } else {
            (4 * self.len()).next_power_of_two().max(16)
        };
        let mask = size - 1;
        let mut slots = vec![0u32; size];
        for &id in &self.order {
            let mut slot = Self::hash(self.get(PathId(id))) as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id + 1;
        }
        self.slots = slots;
        self.occupied = self.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::MaxMinSolver;

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

    /// A solver over `n` resources, the owner of which paths are in use.
    fn solver(n: usize) -> MaxMinSolver {
        MaxMinSolver::new(vec![1.0; n]).unwrap()
    }

    /// Sweep `t`, keeping what `s` holds; returns the freed ids in id
    /// order.
    fn sweep(t: &mut PathTable, s: &MaxMinSolver) -> Vec<PathId> {
        let mut freed = Vec::new();
        t.sweep(|id, _| {
            let keep = s.holds(id);
            if !keep {
                freed.push(id);
            }
            keep
        });
        freed.sort_unstable_by_key(|id| id.0);
        freed
    }

    #[test]
    fn a_sweep_frees_released_paths_and_keeps_every_other_id_and_content() {
        // 64 distinct paths of 1..=4 hops, each with a flow; then path `i`
        // keeps its flow iff `i % 3 == 0`, and a second one if it is also
        // even.
        let mut t = PathTable::new();
        let mut s = solver(700);
        let paths: Vec<(PathId, Vec<u32>)> = (0..64u32)
            .map(|i| {
                let p: Vec<u32> = (0..=i % 4).map(|h| i * 10 + h).collect();
                let id = t.intern(&p);
                s.insert_entry(&t, id);
                (id, p)
            })
            .collect();
        s.recompute(&t);
        for (i, (id, _)) in paths.iter().enumerate() {
            match (i % 3, i % 2) {
                (0, 0) => s.insert_entry(&t, *id),
                (0, _) => {}
                _ => s.remove_entry(&t, *id),
            }
        }
        // Nothing is released before the solver settles.
        assert!(!s.wants_sweep(&t));
        s.recompute(&t);
        assert!(s.wants_sweep(&t), "two thirds of the paths are dead");
        let dead: Vec<PathId> = (0..64).filter(|i| i % 3 != 0).map(|i| paths[i].0).collect();
        assert_eq!(sweep(&mut t, &s), dead);
        assert_eq!(t.len(), 64 - dead.len());
        for (i, (id, p)) in paths.iter().enumerate() {
            assert_eq!(t.contains(*id), i % 3 == 0, "{id:?}");
            if i % 3 == 0 {
                assert_eq!(t.get(*id), p.as_slice(), "a live path keeps its content");
                assert_eq!(t.intern(p), *id, "the rebuilt index finds it");
            }
        }
        assert!(!s.wants_sweep(&t), "a sweep releases nothing twice");
        // Freed ids are reused before the ids bound grows.
        let ids = t.ids();
        let fresh: Vec<PathId> = (0..dead.len() as u32)
            .map(|i| t.intern(&[1000 + i, 7]))
            .collect();
        let mut reused = fresh.clone();
        reused.sort_unstable_by_key(|id| id.0);
        assert_eq!(reused, dead);
        assert_eq!(t.ids(), ids);
        for (i, &id) in fresh.iter().enumerate() {
            assert_eq!(t.get(id), &[1000 + i as u32, 7]);
        }
        for (i, (id, p)) in paths.iter().enumerate().step_by(3) {
            assert_eq!(t.get(*id), p.as_slice(), "path {i} after reuse");
        }
    }

    /// The engine's order, round after round of new paths: retire a round,
    /// sweep if the solver asks, intern and admit the next, recompute. Each
    /// round is freed one round after it dies, so the ids, the hops and
    /// the index stay the size of two rounds, however many pass, and every
    /// path in use stays findable past the stale slots.
    #[test]
    fn rounds_of_new_paths_keep_the_table_the_size_of_two_rounds() {
        let mut t = PathTable::new();
        let mut s = solver(209);
        let mut live: Vec<PathId> = Vec::new();
        for round in 0..200u32 {
            live.drain(..).for_each(|id| s.remove_entry(&t, id));
            if s.wants_sweep(&t) {
                sweep(&mut t, &s);
            }
            for i in 0..8 {
                live.push(t.intern(&[round, 200 + i, 208]));
                s.insert_entry(&t, live[i as usize]);
            }
            s.recompute(&t);
            for (i, &id) in live.iter().enumerate() {
                assert_eq!(t.intern(&[round, 200 + i as u32, 208]), id);
            }
            assert!(t.len() <= 16, "round {round}: {} paths", t.len());
        }
        assert_eq!(t.ids(), 16);
        assert_eq!(t.hops.len(), 16 * 3);
        assert!(t.slots.len() <= 64, "{} index slots", t.slots.len());
    }

    #[test]
    fn a_path_dead_since_the_last_settle_or_revived_survives_a_sweep() {
        let mut t = PathTable::new();
        let mut s = solver(16);
        let old = t.intern(&[1, 2, 3, 4, 5, 6]);
        let revived = t.intern(&[7, 8, 9, 10, 11, 12]);
        let dying = t.intern(&[13, 14]);
        for id in [old, revived, dying] {
            s.insert_entry(&t, id);
        }
        s.recompute(&t);
        s.remove_entry(&t, old);
        s.remove_entry(&t, revived);
        s.recompute(&t);
        assert!(s.wants_sweep(&t), "12 released hops against 2 live ones");
        // Released: `old` and `revived`. `dying` loses its flow only now,
        // so the solver still holds it until its next settle; `revived`
        // gets a flow back.
        s.remove_entry(&t, dying);
        s.insert_entry(&t, revived);
        assert_eq!(sweep(&mut t, &s), [old]);
        for (id, p) in [(revived, &[7, 8, 9, 10, 11, 12][..]), (dying, &[13, 14])] {
            assert_eq!(t.get(id), p);
            assert_eq!(t.intern(p), id);
        }
        assert_eq!(t.intern(&[1, 2, 3, 4, 5, 6]), old, "the freed id is reused");
    }
}
