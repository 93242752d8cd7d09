//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each using a list of capacitated resources, the
//! max-min fair allocation is computed with the classic water-filling
//! algorithm: repeatedly find the resource with the smallest fair share
//! (remaining capacity divided by its number of unfrozen flows), freeze all
//! its flows at that share, subtract their rates from every other resource
//! they cross, and repeat.
//!
//! The implementation keeps the bottleneck frontier in an indexed binary
//! heap over resources, one key per resource, `(clamped share, id)` packed
//! into one integer. A freeze round subtracts from a resource once per
//! unit of weight of each entry it freezes there, but the resource is
//! re-keyed once, in place, when the round ends: nothing reads the heap
//! mid-round. A resource whose entries have all frozen stays on the heap
//! until it reaches the top, and leaves there. Each flow is frozen exactly
//! once, giving `O(Σ path · log R)` per allocation, and the heap never
//! holds more keys than the pass has materialised resources.
//!
//! All scratch state lives in [`MaxMinSolver`] and is reused across calls
//! (the engine recomputes rates at every completion event), with touched
//! lists to avoid `O(total resources)` clearing.
//!
//! # Incremental recomputes
//!
//! The solver is driven through an entry API ([`MaxMinSolver::insert_entry`],
//! [`MaxMinSolver::remove_entry`], [`MaxMinSolver::recompute`]): it keeps a
//! persistent per-resource incidence of the active flows, and every
//! recompute that finds a net change runs one pass over the whole flow set,
//! merged with the freeze log of the pass before so that it costs only the
//! rounds and resources the change reaches ("Merge replay"). Identical
//! paths — equal [`PathId`]s of the run's [`PathTable`], which interns by
//! content — share one weighted entry. [`MaxMinSolver::solve`] is the
//! one-shot form: insert every path, one pass.
//!
//! Rates are **bit-identical** to textbook progressive filling over the
//! same flow set ([`crate::trace_check::textbook_maxmin`], the reference
//! the equivalence suites hold every recompute to). A weighted entry
//! subtracts its share from each crossed resource once *per unit of
//! weight* (repeated subtraction, not `share * weight`), so the
//! floating-point trajectory matches `weight` separate flows exactly.
//!
//! # Deferred settle
//!
//! An entry *is* an interned path ([`PathId`] of the run's [`PathTable`])
//! with a weight, and everything the engine tells the solver between two
//! recomputes is a weight delta: `insert_entry` / `remove_entry` bump
//! `ent_weight` and list the entry once in `changed` — O(1), no per-hop
//! work, no hashing (the coalescing index is a dense array over path ids).
//! The next recompute opens with a *settle* pass over `changed`, comparing
//! each weight with `ent_solved`, the weight the previous settle left:
//!
//! * equal and non-zero — the entry was retired and re-issued (the
//!   paper's iterative workloads re-issue the endpoint pairs of a round in
//!   the next one). Nothing is tainted; its rate stands. If that is every
//!   changed entry the recompute returns without a pass.
//! * different — the resources of its path are tainted exactly as an
//!   eager insert/remove would have; an entry no settle has seen is linked
//!   into the incidence lists, an entry at zero is unlinked (per touched
//!   resource, with one `retain`) and its id freed.
//! * both zero — inserted and removed again unseen: the id is freed and
//!   nothing is tainted, since the incidence never knew it.
//!
//! A weight-zero entry stays in the coalescing index until the settle that
//! frees it, so a flow re-issuing its path *resurrects* it: same id, rate
//! intact. A recompute whose tainted resources host no entry any more —
//! pure departures — runs no pass either: no remaining flow crosses what
//! changed, so every rate and every other logged round stands.
//!
//! Eliding a pass is **bit-identical** to running it. Max-min rates are a
//! function of the multiset of (path, weight), as heap ties break by
//! resource id and the order of subtractions within a round is irrelevant.
//! Every entry whose weight *did* change taints its resources exactly as
//! at insert/remove time (a net change through zero, 1 → 0 → 2, is a
//! change), and ids are recycled only at settle, as their paths are
//! tainted, so a recycled id's stale logged round is never replayed. Only
//! the effort counters (`iterations`, `rate_recomputes`) differ from eager
//! maintenance, and only downward.
//!
//! # Merge replay
//!
//! Consecutive passes repeat almost all of their work: a change reaches
//! only a few of the freeze rounds of the pass before. So every pass
//! **logs** its freeze order, and the next one **merges** that log with a
//! heap over the resources the change has reached, the *tainted* ones,
//! building fill state for those alone. A logged round is named by its
//! bottleneck, as a resource bottlenecks at most one round of a pass: the
//! log holds its share, `ent_round` the bottleneck of the round that froze
//! each entry, and a round's entries are its bottleneck's incidence entries
//! with that `ent_round`. The rounds sit in pop order in an array of slots
//! with gaps (a packed-memory array), so the slot order *is* the round
//! order. It is never recovered from the keys, which are not monotone
//! under f64: 10 / 3 = 3.3333333333333335 freezes a round before
//! 10 − 10/3 − 10/3 = 3.3333333333333326 freezes the next one.
//!
//! Every pass merges, the first one an empty log with every resource
//! tainted, and keeps the invariant that **a frozen entry's `ent_rate` is
//! the share of the logged round that froze it**.
//!
//! * *Taint set.* Seeded with every resource on a path whose settled
//!   weight changed since the last pass; it grows during the pass.
//! * *Materialisation.* A resource gets `count`/`remaining` when it is
//!   first tainted, never before: `count` is the weight of its entries not
//!   yet frozen this pass, `remaining` its capacity less the share of each
//!   frozen one, once per unit of weight and in round order (the
//!   *catch-up*). It then sits on the heap, keyed `(clamped share, id)`.
//!   It also subscribes `(resource, weight)` to the logged round of each of
//!   its unfrozen entries that the merge has not reached yet.
//! * *Merge.* A cursor walks the log in slot order. A round has *work* if
//!   its bottleneck is tainted or it has a subscriber. A round without work
//!   whose key pops before the heap top is **jumped**: it stands as logged,
//!   with no write at all. The next round that cannot be jumped is found in
//!   O(log slots) — rounds with work wait in a heap by slot, and a segment
//!   tree over the slots keeps the key that pops last below each node. If
//!   the heap top keys before it, the heap pops: its unfrozen entries
//!   freeze at the current share the textbook way, every resource on their
//!   paths is tainted before the subtraction reaches it, and the round
//!   joins the log at the end of the pass, right after the slots the
//!   cursor had passed. Otherwise the round is **visited**: with a tainted
//!   bottleneck it is **skipped** and leaves the log — its entries freeze
//!   elsewhere, so their paths are tainted, and its subscriptions never
//!   fire — and without one it is **replayed**: each subscriber receives
//!   the share once per unit of weight.
//!
//! `iterations` advances by the rounds of the new log, `visited_rounds` by
//! the rounds a pass visited or popped. Why a merged pass is
//! **bit-identical** to the textbook:
//!
//! 1. An untainted resource hosts the same entries, at the same weights,
//!    as in the logged pass, and every subtraction the textbook applies to
//!    it comes from a jumped or replayed round at the logged share: skipped
//!    rounds and heap pops taint every resource they subtract from, or
//!    would have. So it has its logged state before the same round, and the
//!    merge reads it only as a bottleneck, through the round's logged key.
//! 2. So an untainted bottleneck has its logged key. Every other untainted
//!    live resource keys after it, because the logged pass popped it as
//!    the minimum; every tainted one does too, because the heap top was
//!    compared. It is the textbook's next pop. A jumped round has no
//!    subscriber, so it moves no tainted resource: the heap top stands
//!    across a run of them.
//! 3. Its unfrozen entries are exactly the logged ones, at the logged
//!    weight: an entry frozen by a heap pop, of a skipped round, or of
//!    changed weight would have tainted this bottleneck. By the invariant
//!    they already hold the round's share. The invariant itself holds
//!    because a heap pop writes the share it freezes at, and an entry
//!    leaves its round only when the round is skipped or its bottleneck
//!    pops from the heap, both of which freeze it again.
//! 4. Heap pops are textbook pops: the heap top keys before every other
//!    tainted resource and before the next round not jumped, whose key
//!    bounds every untainted one (2). Subtractions within a round share one
//!    share, so their order and incidence-list order are irrelevant.
//! 5. A materialised resource holds the textbook's state. Before it is
//!    tainted the textbook subtracts from it only in jumped and replayed
//!    rounds (1); the catch-up applies exactly those, in round order — slot
//!    order, with each heap pop of the pass after the slots its cursor had
//!    passed. Order is what keeps the bits: (1 − 0.1) − 0.2 = 0.7 but
//!    (1 − 0.2) − 0.1 = 0.7000000000000001. After, it receives every round
//!    that freezes one of its entries: a heap pop directly, a replayed
//!    round through its subscription; a skipped round freezes nothing. A
//!    resource first tainted inside a heap pop counts the entry being
//!    frozen as unfrozen and receives it right after, and catches up on
//!    those frozen before it, as the round is ordered before it is filled.

use crate::error::SimError;
use crate::paths::{PathId, PathTable};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `ent_path` of a slot on the free list.
const FREE: PathId = PathId(u32::MAX);
/// `entry_of_path` of a path no entry stands for.
const NO_ENTRY: u32 = u32::MAX;

/// A bottleneck key, `(clamped share, resource id)` as one integer that
/// sorts in pop order: smaller share first, ties to the smaller id. A share
/// is never negative, NaN or infinite, so its bits order as its value
/// (`-0.0` is made `+0.0`). Bit 96 marks a real key, so [`EMPTY`] sorts
/// before every one, and one integer compare stands for the two-part one.
type Key = u128;

/// Tree key of a subtree without rounds: pops before every real key.
const EMPTY: Key = 0;

#[inline]
fn key_of(share: f64, r: u32) -> Key {
    1 << 96 | ((share + 0.0).to_bits() as u128) << 32 | r as u128
}

/// The resource a key names.
#[inline]
fn key_res(k: Key) -> u32 {
    k as u32
}

/// The bottleneck order shared by the heap and the replay guard.
#[inline]
fn pops_before(a: Key, b: Key) -> bool {
    a < b
}

/// Clamped share of materialised resource `r`: the share it bottlenecks at
/// if it pops next.
#[inline]
fn share(remaining: &[f64], count: &[u32], r: u32) -> f64 {
    let ri = r as usize;
    (remaining[ri] / count[ri] as f64).max(0.0)
}

/// `ResourceHeap::pos` of a resource that is not on the heap.
const OFF_HEAP: u32 = u32::MAX;

/// Min-heap over resources by [`Key`], `(clamped share, id)` in
/// [`pops_before`] order. `pos` holds each resource's place in `keys`: a
/// resource sits on the heap at most once, and a new key moves it in
/// place, up or down.
#[derive(Debug)]
struct ResourceHeap {
    keys: Vec<Key>,
    /// Per resource: its index in `keys`, `OFF_HEAP` if absent.
    pos: Vec<u32>,
    /// The most keys the heap has held at once.
    #[cfg(test)]
    peak: usize,
}

impl ResourceHeap {
    fn new(resources: usize) -> Self {
        ResourceHeap {
            keys: Vec::new(),
            pos: vec![OFF_HEAP; resources],
            #[cfg(test)]
            peak: 0,
        }
    }

    fn peek(&self) -> Option<Key> {
        self.keys.first().copied()
    }

    /// The top key of a `live` resource: one that is not (a drained one)
    /// leaves the heap when it reaches the top.
    fn top(&mut self, live: impl Fn(u32) -> bool) -> Option<Key> {
        while let Some(k) = self.peek() {
            if live(key_res(k)) {
                return Some(k);
            }
            self.take(0);
        }
        None
    }

    fn clear(&mut self) {
        for &k in &self.keys {
            self.pos[key_res(k) as usize] = OFF_HEAP;
        }
        self.keys.clear();
    }

    /// Empty the heap, then fill it with `keys` (one per resource) in
    /// O(n).
    fn rebuild(&mut self, keys: impl Iterator<Item = Key>) {
        self.clear();
        for k in keys {
            self.pos[key_res(k) as usize] = self.keys.len() as u32;
            self.keys.push(k);
        }
        self.grew();
        for i in (0..self.keys.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Put the resource `k` names on the heap at `k`, or move it there.
    fn set(&mut self, k: Key) {
        let i = self.pos[key_res(k) as usize];
        if i == OFF_HEAP {
            self.keys.push(k);
            self.grew();
            self.sift_up(self.keys.len() - 1);
            return;
        }
        let old = std::mem::replace(&mut self.keys[i as usize], k);
        if pops_before(k, old) {
            self.sift_up(i as usize);
        } else {
            self.sift_down(i as usize);
        }
    }

    /// Take the top resource off the heap.
    fn pop(&mut self) -> Option<u32> {
        let top = key_res(self.peek()?);
        self.take(0);
        Some(top)
    }

    /// Drop the key at index `i`; the last key fills the hole.
    fn take(&mut self, i: usize) {
        let gone = self.keys.swap_remove(i);
        self.pos[key_res(gone) as usize] = OFF_HEAP;
        if let Some(&moved) = self.keys.get(i) {
            if pops_before(moved, gone) {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let k = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.keys[parent];
            if !pops_before(k, above) {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, k);
    }

    fn sift_down(&mut self, mut i: usize) {
        let (k, n) = (self.keys[i], self.keys.len());
        loop {
            let mut c = 2 * i + 1;
            if c >= n {
                break;
            }
            if c + 1 < n && pops_before(self.keys[c + 1], self.keys[c]) {
                c += 1;
            }
            let below = self.keys[c];
            if !pops_before(below, k) {
                break;
            }
            self.place(i, below);
            i = c;
        }
        self.place(i, k);
    }

    #[inline]
    fn place(&mut self, i: usize, k: Key) {
        self.keys[i] = k;
        self.pos[key_res(k) as usize] = i as u32;
    }

    #[inline]
    fn grew(&mut self) {
        #[cfg(test)]
        {
            self.peak = self.peak.max(self.keys.len());
        }
    }
}

/// A materialised resource's claim on a pending logged round: replaying
/// the round subtracts its share from `res` `weight` times. `next` links
/// the round's subscriptions (`NO_SUB` ends the list).
#[derive(Debug, Clone, Copy)]
struct Sub {
    res: u32,
    weight: u32,
    next: u32,
}

/// End of a subscription list.
const NO_SUB: u32 = u32::MAX;
/// `ent_round` of an entry the log does not hold.
const NO_ROUND: u32 = u32::MAX;
/// `slot_of` of a resource that bottlenecks no logged round, and
/// `res_at` of an empty slot.
const NO_SLOT: u32 = u32::MAX;

/// The freeze log of the last pass (module docs, "Merge replay"): its
/// rounds in pop order, in an array of slots with gaps between them, so a
/// heap pop goes in between two logged rounds without moving the others,
/// and a round's slot is its place in the order. A round is named by its
/// bottleneck, as a resource bottlenecks at most one round of a pass. A
/// segment tree over the slots holds the key that pops last below each
/// node, and the rounds with work wait in a heap by slot, so a merge finds
/// the next round it cannot jump in O(log slots).
#[derive(Debug, Default)]
struct FreezeLog {
    /// Per resource: the slot of the round it bottlenecks, `NO_SLOT` if
    /// none, that round's share, and whether the round has work.
    slot_of: Vec<u32>,
    share: Vec<f64>,
    work: Vec<bool>,
    /// Per slot: the bottleneck of the round there, `NO_SLOT` if empty.
    res_at: Vec<u32>,
    /// Segment tree: node 1 is the root, slot `s` is leaf `slots + s`.
    tree: Vec<Key>,
    /// `slot << 32 | bottleneck` of the rounds with work, one integer so
    /// the heap compares once; an entry whose round has moved or been
    /// visited since is stale.
    pending: BinaryHeap<Reverse<u64>>,
    /// Rounds in the log.
    len: u64,
    /// Re-spacing scratch: the bottlenecks of a window's rounds, in order.
    moved: Vec<u32>,
    /// `insert_pops` scratch: per run of pops, its end and the bottleneck
    /// of the round it goes ahead of (`NO_SLOT`: the end of the log).
    runs: Vec<(usize, u32)>,
    /// The last search of `next_stop` for a key that pops after the heap
    /// top: `(done, top, first such slot)`.
    seen: Option<(usize, Key, Option<usize>)>,
}

impl FreezeLog {
    fn new(resources: usize) -> Self {
        FreezeLog {
            slot_of: vec![NO_SLOT; resources],
            share: vec![0.0; resources],
            work: vec![false; resources],
            ..FreezeLog::default()
        }
    }

    fn slots(&self) -> usize {
        self.res_at.len()
    }

    /// Key of the round in slot `s`.
    fn key(&self, s: usize) -> Key {
        self.tree[self.slots() + s]
    }

    /// Node `n` as its children make it: the key that pops last.
    fn pull(&self, n: usize) -> Key {
        self.tree[2 * n].max(self.tree[2 * n + 1])
    }

    /// Drop the round `r` bottlenecks, and update the tree above its slot
    /// up to the first node that stays as it was.
    fn remove(&mut self, r: u32) {
        let s = std::mem::replace(&mut self.slot_of[r as usize], NO_SLOT) as usize;
        self.work[r as usize] = false;
        self.res_at[s] = NO_SLOT;
        self.len -= 1;
        let mut n = self.slots() + s;
        self.tree[n] = EMPTY;
        while n > 1 {
            n /= 2;
            let key = self.pull(n);
            if std::mem::replace(&mut self.tree[n], key) == key {
                break;
            }
        }
    }

    /// Give the round `r` bottlenecks work, if it sits at or after slot
    /// `done`.
    fn flag(&mut self, r: u32, done: usize) {
        let s = self.slot_of[r as usize];
        if s != NO_SLOT && s as usize >= done && !self.work[r as usize] {
            self.work[r as usize] = true;
            self.pending.push(Reverse((s as u64) << 32 | r as u64));
        }
    }

    /// The first slot at or after `done` whose round has work or pops
    /// after `top`: the next round a merge cannot jump.
    fn next_stop(&mut self, done: usize, top: Option<Key>) -> Option<usize> {
        while let Some(&Reverse(p)) = self.pending.peek() {
            let (s, r) = ((p >> 32) as u32, p as u32);
            if self.work[r as usize] && self.slot_of[r as usize] == s {
                break;
            }
            self.pending.pop(); // stale
        }
        let work = self.pending.peek().map(|&Reverse(p)| (p >> 32) as usize);
        let end = work.unwrap_or(self.slots());
        let later = top.and_then(|t| match self.seen {
            // No round joins the slots mid-pass, so the last search holds
            // while its round stands and the merge has not passed it.
            Some((d, seen_top, found))
                if seen_top == t
                    && d <= done
                    && found.is_none_or(|s| s >= done && self.res_at[s] != NO_SLOT) =>
            {
                found
            }
            _ => {
                let found = self.seek(done, false, |key| pops_before(t, key));
                self.seen = Some((done, t, found));
                found
            }
        });
        later.filter(|&s| s < end).or(work)
    }

    /// The first slot at or after `s` (`rev`: the last at or before it)
    /// whose key passes `hit`, where a node's key passes iff one of the
    /// keys below it does.
    fn seek(&self, s: usize, rev: bool, hit: impl Fn(Key) -> bool) -> Option<usize> {
        let size = self.slots();
        if s >= size || !hit(self.tree[1]) {
            return None;
        }
        let mut n = size + s;
        loop {
            if hit(self.tree[n]) {
                while n < size {
                    let first = 2 * n + rev as usize;
                    n = if hit(self.tree[first]) {
                        first
                    } else {
                        first ^ 1
                    };
                }
                return Some(n - size);
            }
            // Climb out of the subtrees this node ends (`rev`: starts),
            // then step to the neighbouring one.
            while n & 1 == !rev as usize {
                n >>= 1;
            }
            if n == rev as usize {
                return None;
            }
            n = if rev { n - 1 } else { n + 1 };
        }
    }

    /// Log the heap pops of a pass, `(bottleneck, done)` in pop order, each
    /// after every round in the slots before its `done` and ahead of the
    /// rest. The pops that fall between the same two logged rounds go in
    /// together, ahead of the round that follows them: named by its
    /// bottleneck, as making room moves rounds.
    fn insert_pops(&mut self, pops: &[(u32, u32)]) {
        self.seen = None;
        self.len += pops.len() as u64;
        let occupied = |key: Key| key != EMPTY;
        self.runs.clear();
        let mut i = 0;
        while i < pops.len() {
            let hi = self.seek(pops[i].1 as usize, false, occupied);
            i += pops[i..]
                .iter()
                .take_while(|p| hi.is_none_or(|hi| p.1 as usize <= hi))
                .count();
            self.runs.push((i, hi.map_or(NO_SLOT, |s| self.res_at[s])));
        }
        let mut start = 0;
        for k in 0..self.runs.len() {
            let (end, next) = self.runs[k];
            let run = &pops[start..end];
            start = end;
            let hi = if next == NO_SLOT {
                self.slots()
            } else {
                self.slot_of[next as usize] as usize
            };
            let last = hi.checked_sub(1).and_then(|s| self.seek(s, true, occupied));
            let lo = last.map_or(0, |s| s + 1);
            if hi - lo < run.len() {
                self.make_room(hi, run);
                continue;
            }
            // Evenly over the gap, but no sparser than the array on average.
            let step = ((hi - lo) / run.len())
                .min(self.slots() / self.len as usize)
                .max(1);
            for (k, &(r, _)) in run.iter().enumerate() {
                self.put(lo + step / 2 + k * step, r);
            }
            self.rebuild(lo, hi - lo);
        }
    }

    /// Log `run` ahead of slot `before`, where the free slots do not hold
    /// it: re-space the smallest aligned window around the gap that stays
    /// under its density bound (1 for a pair of slots, falling to 1/2 for
    /// the whole array), or double the array. The usual packed-memory-array
    /// bounds make this O(log² slots) amortised per round.
    fn make_room(&mut self, before: usize, run: &[(u32, u32)]) {
        let n = self.slots();
        let height = n.max(1).trailing_zeros() as usize;
        let at = before.saturating_sub(1);
        let window = (1..=height)
            .map(|h| (h, 1 << h, at & !((1 << h) - 1)))
            .find(|&(h, w, a)| {
                let rounds = (a..a + w).filter(|&s| self.res_at[s] != NO_SLOT).count();
                (rounds + run.len()) * 2 * height <= w * (2 * height - h)
            });
        let (a, w) = window.map_or((0, n), |(_, w, a)| (a, w));
        let split = before.clamp(a, a + w);
        self.moved.clear();
        self.moved
            .extend(self.res_at[a..split].iter().filter(|&&r| r != NO_SLOT));
        self.moved.extend(run.iter().map(|&(r, _)| r));
        self.moved
            .extend(self.res_at[split..a + w].iter().filter(|&&r| r != NO_SLOT));
        if window.is_none() {
            let n = (2 * n)
                .max(64)
                .max(2 * self.len as usize)
                .next_power_of_two();
            self.res_at = vec![NO_SLOT; n];
            self.tree = vec![EMPTY; 2 * n];
            return self.spread(0, n);
        }
        self.spread(a, w)
    }

    /// Lay `moved` out evenly over slots `a..a + w` and rebuild the tree
    /// above them; a moved round with work waits at its new slot.
    fn spread(&mut self, a: usize, w: usize) {
        let n = self.slots();
        self.res_at[a..a + w].fill(NO_SLOT);
        self.tree[n + a..n + a + w].fill(EMPTY);
        let m = self.moved.len();
        for k in 0..m {
            let r = self.moved[k];
            self.put(a + k * w / m, r);
            if self.work[r as usize] {
                let s = self.slot_of[r as usize];
                self.pending.push(Reverse((s as u64) << 32 | r as u64));
            }
        }
        self.rebuild(a, w);
    }

    /// Put the round of `r` in empty slot `s`, leaving the tree above it
    /// for [`FreezeLog::rebuild`].
    fn put(&mut self, s: usize, r: u32) {
        self.res_at[s] = r;
        self.slot_of[r as usize] = s as u32;
        let n = self.slots();
        self.tree[n + s] = key_of(self.share[r as usize], r);
    }

    /// Recompute the tree above slots `a..a + w`.
    fn rebuild(&mut self, a: usize, w: usize) {
        let n = self.slots();
        let (mut lo, mut hi) = ((n + a) / 2, (n + a + w - 1) / 2);
        while lo >= 1 {
            for i in lo..=hi {
                self.tree[i] = self.pull(i);
            }
            (lo, hi) = (lo / 2, hi / 2);
        }
    }
}

/// Reusable progressive-filling solver.
///
/// `R` resources with fixed capacities are registered at construction; the
/// entry API (module docs) keeps the rates of a changing flow set over
/// those resources current.
#[derive(Debug)]
pub struct MaxMinSolver {
    capacity: Vec<f64>,
    // Fill state, valid only for the resources the current pass
    // materialised.
    remaining: Vec<f64>,
    count: Vec<u32>,
    /// The materialised resources with unfrozen entries, by share.
    heap: ResourceHeap,
    /// Resources whose fill state the current round changed, each listed
    /// once (`rekey_mark`) and re-keyed when the round ends.
    rekey: Vec<u32>,
    rekey_mark: Vec<bool>,
    /// Materialised resources with unfrozen entries: at zero, every key
    /// left on the heap is a drained resource's.
    live_res: usize,
    /// Statistics: total freeze iterations across calls.
    pub iterations: u64,
    /// Statistics: water-filling passes executed.
    pub rate_recomputes: u64,
    /// Statistics: flows absorbed into an existing coalesced entry.
    pub flows_coalesced: u64,
    /// Statistics: freeze rounds passes visited — heap pops, and logged
    /// rounds skipped or replayed for a subscriber. The logged rounds a
    /// pass jumps (module docs, "Merge replay") count in `iterations`
    /// only.
    pub visited_rounds: u64,
    /// Statistics: resources passes built fill state for — the resources
    /// their change reached (module docs, "Merge replay").
    pub materialised_resources: u64,
    /// Entries (weighted flow groups) the most recent pass froze from the
    /// heap, re-deriving their rates — surfaced in trace events. Zero when
    /// the last recompute found nothing to do.
    pub last_pass_entries: u64,
    // ---- incremental entry store (see module docs) ----
    // Slot `e` is allocated iff `ent_path[e] != FREE`; freed slots recycle
    // through `free_ents`. An entry is an interned path with a weight: it
    // stands for `ent_weight[e]` flows sharing that path. Inserts and
    // removals only move the weight; `settle` (module docs, "Deferred
    // settle") reconciles everything else at the next recompute.
    ent_path: Vec<PathId>,
    ent_weight: Vec<u32>,
    /// The weight the last settle left the entry with — what `res_entries`
    /// and every rate reflect. Zero for an entry no settle has seen yet.
    ent_solved: Vec<u32>,
    /// The rate of the round that froze the entry (module docs, "Merge
    /// replay"); `INFINITY` for an empty path, negative before the first
    /// freeze.
    ent_rate: Vec<f64>,
    /// The bottleneck of the round that froze the entry, `NO_ROUND` if no
    /// logged round did. During a pass the entry is frozen iff a heap pop
    /// of the pass stamped it in `ent_mark` or its round's slot is behind
    /// the merge.
    ent_round: Vec<u32>,
    free_ents: Vec<u32>,
    /// Entries with `ent_weight > 0`.
    live_entries: usize,
    /// Entries inserted into or removed from since the last settle, each
    /// listed once (`ent_changed` is the membership flag).
    changed: Vec<u32>,
    ent_changed: Vec<bool>,
    /// Coalescing index: path id -> entry id or `NO_ENTRY`. Outlives a
    /// weight of zero until the settle that frees the entry, so a re-issued
    /// path finds its entry again.
    entry_of_path: Vec<u32>,
    /// Persistent incidence: resource -> settled entries crossing it, one
    /// occurrence per occurrence of the resource on the entry's path.
    res_entries: Vec<Vec<u32>>,
    /// Settle scratch: resources that host an entry being unlinked, and
    /// their epoch-stamped marks. A pass stamps `ent_mark` with an epoch
    /// of its own: "frozen on the heap this pass".
    unlink_res: Vec<u32>,
    res_mark: Vec<u32>,
    ent_mark: Vec<u32>,
    epoch: u32,
    log: FreezeLog,
    /// The heap pops of the current pass, `(bottleneck, done)` in pop
    /// order, logged at its end; per resource, the place of its pop in
    /// the round order, `done << 32` plus its pop number.
    popped: Vec<(u32, u32)>,
    pop_key: Vec<u64>,
    /// Tainted resources: flagged in `taint_mark`, listed once each in
    /// `taint_res`. Between passes, the resources perturbed since the
    /// logged pass; during a merge, also every resource it reached.
    taint_mark: Vec<bool>,
    taint_res: Vec<u32>,
    /// Per pending logged round, by bottleneck: head of its subscription
    /// list in `subs`.
    sub_head: Vec<u32>,
    subs: Vec<Sub>,
    /// Materialisation scratch: `(place in the round order, bottleneck,
    /// weight)` to catch up on.
    catch_up: Vec<(u64, u32, u32)>,
}

impl MaxMinSolver {
    /// Create a solver over `capacities` (bits/second per resource).
    ///
    /// Every capacity must be finite and strictly positive: a zero or
    /// negative capacity would hand out a zero rate and stall every flow
    /// crossing the resource, and a NaN would poison the bottleneck heap.
    /// Rejecting them here turns that whole deadlock class into a typed
    /// error at construction time.
    pub fn new(capacities: Vec<f64>) -> Result<Self, SimError> {
        if let Some((i, &c)) = capacities
            .iter()
            .enumerate()
            .find(|&(_, &c)| !(c.is_finite() && c > 0.0))
        {
            return Err(SimError::InvalidCapacity {
                resource: i as u32,
                capacity: format!("{c}"),
            });
        }
        let r = capacities.len();
        Ok(MaxMinSolver {
            capacity: capacities,
            remaining: vec![0.0; r],
            count: vec![0; r],
            heap: ResourceHeap::new(r),
            rekey: Vec::new(),
            rekey_mark: vec![false; r],
            live_res: 0,
            iterations: 0,
            rate_recomputes: 0,
            flows_coalesced: 0,
            visited_rounds: 0,
            materialised_resources: 0,
            last_pass_entries: 0,
            ent_path: Vec::new(),
            ent_weight: Vec::new(),
            ent_solved: Vec::new(),
            ent_rate: Vec::new(),
            ent_round: Vec::new(),
            free_ents: Vec::new(),
            live_entries: 0,
            changed: Vec::new(),
            ent_changed: Vec::new(),
            entry_of_path: Vec::new(),
            res_entries: vec![Vec::new(); r],
            unlink_res: Vec::new(),
            res_mark: vec![0; r],
            ent_mark: Vec::new(),
            epoch: 0,
            log: FreezeLog::new(r),
            popped: Vec::new(),
            pop_key: vec![0; r],
            taint_mark: vec![false; r],
            taint_res: Vec::new(),
            sub_head: vec![NO_SUB; r],
            subs: Vec::new(),
            catch_up: Vec::new(),
        })
    }

    /// Registered capacity of resource `r` (bits/second).
    pub fn capacity(&self, r: u32) -> f64 {
        self.capacity[r as usize]
    }

    /// Compute the max-min fair rates for the flows whose resource paths
    /// are given in `paths`. Writes the rate of flow `i` into `rates[i]`
    /// (which must be sized by the caller).
    ///
    /// A flow with an empty path is unconstrained and gets `f64::INFINITY`.
    /// The one-shot form of the entry API: every path is inserted, one full
    /// pass runs, and every entry is retired again — so a solver whose
    /// entries are in use elsewhere must not be passed here.
    pub fn solve<P: AsRef<[u32]>>(&mut self, paths: &[P], rates: &mut [f64]) {
        assert!(rates.len() >= paths.len());
        let mut table = PathTable::new();
        let ids: Vec<u32> = paths
            .iter()
            .map(|p| {
                let path = table.intern(p.as_ref());
                self.insert_entry(&table, path)
            })
            .collect();
        self.recompute(&table);
        for (rate, &e) in rates.iter_mut().zip(&ids) {
            *rate = self.entry_rate(e);
        }
        for &e in &ids {
            self.remove_entry(e);
        }
        // Unlink now, while the table the entries index is still alive.
        self.settle(&table);
    }

    // ---- incremental entry API ----

    /// Register one flow crossing `path` (an id of `paths`). A flow whose
    /// path already has an entry joins it (weight + 1) and the same id is
    /// returned; every [`MaxMinSolver::remove_entry`] of that id sheds one
    /// unit of weight.
    /// O(1): the incidence lists are brought up to date by the next
    /// recompute, after which the rate is available from
    /// [`MaxMinSolver::entry_rate`] (an empty path is unconstrained and
    /// rated `INFINITY` immediately).
    ///
    /// An entry retired since the last recompute is still indexed: a flow
    /// re-issuing its path gets the same id back, rate intact, and if the
    /// weight ends up where the last recompute left it the next one has
    /// nothing to do for it. Such a resurrection is not a coalesced flow —
    /// [`MaxMinSolver::flows_coalesced`] counts joins of a weight > 0 only.
    pub fn insert_entry(&mut self, paths: &PathTable, path: PathId) -> u32 {
        debug_assert!(paths
            .get(path)
            .iter()
            .all(|&r| (r as usize) < self.capacity.len()));
        let pi = path.0 as usize;
        if let Some(&id) = self.entry_of_path.get(pi).filter(|&&id| id != NO_ENTRY) {
            let ei = id as usize;
            if self.ent_weight[ei] > 0 {
                self.flows_coalesced += 1;
            } else {
                self.live_entries += 1;
            }
            self.ent_weight[ei] += 1;
            self.mark_changed(id);
            return id;
        }
        let id = match self.free_ents.pop() {
            Some(i) => i,
            None => {
                self.ent_path.push(FREE);
                self.ent_weight.push(0);
                self.ent_solved.push(0);
                self.ent_rate.push(-1.0);
                self.ent_round.push(NO_ROUND);
                self.ent_changed.push(false);
                self.ent_mark.push(0);
                (self.ent_path.len() - 1) as u32
            }
        };
        let ei = id as usize;
        self.ent_path[ei] = path;
        self.ent_weight[ei] = 1;
        self.ent_solved[ei] = 0;
        self.ent_rate[ei] = if paths.get(path).is_empty() {
            f64::INFINITY
        } else {
            -1.0
        };
        self.ent_round[ei] = NO_ROUND;
        if self.entry_of_path.len() <= pi {
            self.entry_of_path.resize(paths.len(), NO_ENTRY);
        }
        self.entry_of_path[pi] = id;
        self.live_entries += 1;
        self.mark_changed(id);
        id
    }

    /// Remove one flow from entry `id` (one unit of weight). O(1); an
    /// entry still at weight zero at the next recompute is freed there.
    pub fn remove_entry(&mut self, id: u32) {
        let ei = id as usize;
        self.ent_weight[ei] = self.ent_weight[ei]
            .checked_sub(1)
            .expect("remove of a live entry");
        if self.ent_weight[ei] == 0 {
            self.live_entries -= 1;
        }
        self.mark_changed(id);
    }

    fn mark_changed(&mut self, id: u32) {
        if !std::mem::replace(&mut self.ent_changed[id as usize], true) {
            self.changed.push(id);
        }
    }

    /// Start a fresh generation of the unlink and freeze marks.
    fn bump_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.res_mark.iter_mut().for_each(|m| *m = 0);
            self.ent_mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Reconcile the incidence lists, the coalescing index and the taint
    /// set with every weight change since the last recompute (module docs,
    /// "Deferred settle"). An entry back at its settled weight costs one
    /// comparison; any other taints the resources of its path, is linked
    /// if no settle has seen it yet, and is unlinked and freed if it ended
    /// at zero — per touched resource with one `retain`, so a batch that
    /// retires k entries sharing a link is O(k), not O(k²).
    fn settle(&mut self, paths: &PathTable) {
        if self.changed.is_empty() {
            return;
        }
        let epoch = self.bump_epoch();
        let MaxMinSolver {
            ent_path,
            ent_weight,
            ent_solved,
            ent_changed,
            changed,
            free_ents,
            entry_of_path,
            res_entries,
            res_mark,
            unlink_res,
            taint_mark,
            taint_res,
            ..
        } = self;
        for e in changed.drain(..) {
            let ei = e as usize;
            ent_changed[ei] = false;
            let (weight, solved) = (ent_weight[ei], ent_solved[ei]);
            if weight != solved {
                let path = paths.get(ent_path[ei]);
                for &r in path {
                    if !std::mem::replace(&mut taint_mark[r as usize], true) {
                        taint_res.push(r);
                    }
                }
                if solved == 0 {
                    for &r in path {
                        res_entries[r as usize].push(e);
                    }
                } else if weight == 0 {
                    for &r in path {
                        if res_mark[r as usize] != epoch {
                            res_mark[r as usize] = epoch;
                            unlink_res.push(r);
                        }
                    }
                }
                ent_solved[ei] = weight;
            }
            if weight == 0 {
                // Free the slot. A retired entry's id is recycled only
                // now, as its path is tainted; one inserted and removed
                // again unseen was never linked or logged.
                let pi = ent_path[ei].0 as usize;
                if entry_of_path.get(pi) == Some(&e) {
                    entry_of_path[pi] = NO_ENTRY;
                }
                ent_path[ei] = FREE;
                free_ents.push(e);
            }
        }
        // Everything listed at weight zero is an entry freed above.
        for r in unlink_res.drain(..) {
            res_entries[r as usize].retain(|&e| ent_weight[e as usize] > 0);
        }
    }

    /// Bring every entry rate up to date with the inserts and removals
    /// since the last call: one pass, merged with the log of the last one,
    /// whose cost is the rounds and resources the change reaches (module
    /// docs, "Merge replay"). Returns without a pass when nothing changed
    /// net. Rates are bit-identical to textbook progressive filling over
    /// the same flow multiset. `paths` must be the table every inserted
    /// [`PathId`] came from.
    pub fn recompute(&mut self, paths: &PathTable) {
        self.last_pass_entries = 0;
        self.settle(paths);
        if self
            .taint_res
            .iter()
            .all(|&r| self.res_entries[r as usize].is_empty())
        {
            // No live flow crosses what changed, so no rate moves: only the
            // rounds the departed flows froze leave the log.
            for r in self.taint_res.drain(..) {
                self.taint_mark[r as usize] = false;
                if self.log.slot_of[r as usize] != NO_SLOT {
                    self.log.remove(r);
                }
            }
            return;
        }
        self.rate_recomputes += 1;
        self.subs.clear();
        self.live_res = 0;
        self.bump_epoch();
        for i in 0..self.taint_res.len() {
            self.log.flag(self.taint_res[i], 0);
            self.materialise(self.taint_res[i], 0);
        }
        // Heapified in place: O(n), where n inserts would cost O(n log n).
        let MaxMinSolver {
            remaining,
            count,
            heap,
            rekey,
            rekey_mark,
            ..
        } = self;
        heap.rebuild(rekey.drain(..).map(|r| {
            rekey_mark[r as usize] = false;
            key_of(share(remaining, count, r), r)
        }));

        // Every round in slots before `done` is behind the merge.
        let mut done = 0;
        loop {
            let top = self.heap_top();
            // Every logged round before `stop` is jumped: replayed as it
            // stands, with no subscriber to feed and no heap pop ahead.
            let stop = self.log.next_stop(done, top);
            let heap_first =
                top.is_some_and(|t| stop.is_none_or(|s| pops_before(t, self.log.key(s))));
            match stop {
                _ if heap_first => {
                    // Every round before the stop is passed: jumped.
                    done = stop.unwrap_or(self.log.slots());
                    self.heap_round(paths, done);
                }
                Some(s) => done = self.logged_round(paths, s),
                None => break,
            }
        }
        self.log.insert_pops(&self.popped);
        self.popped.clear();
        self.iterations += self.log.len;
        for r in self.taint_res.drain(..) {
            self.taint_mark[r as usize] = false;
        }
    }

    /// Visit the logged round in slot `s`, the merge's next stop. Returns
    /// the new `done`.
    fn logged_round(&mut self, paths: &PathTable, s: usize) -> usize {
        let done = s + 1;
        let b = self.log.res_at[s];
        self.visited_rounds += 1;
        let mut sub = std::mem::replace(&mut self.sub_head[b as usize], NO_SUB);
        if self.taint_mark[b as usize] {
            // Skipped: its entries freeze elsewhere, so taint every
            // resource they would have subtracted from. Its subscriptions
            // never fire.
            self.log.remove(b);
            for i in 0..self.res_entries[b as usize].len() {
                let ei = self.res_entries[b as usize][i] as usize;
                if self.ent_round[ei] == b {
                    self.ent_round[ei] = NO_ROUND;
                    for &r in paths.get(self.ent_path[ei]) {
                        self.taint(r, done);
                    }
                }
            }
            self.rekey_round();
            return done;
        }
        // Replayed: the textbook's next pop, fed to its subscribers.
        self.log.work[b as usize] = false;
        let share = self.log.share[b as usize];
        while sub != NO_SUB {
            let Sub { res, weight, next } = self.subs[sub as usize];
            let ri = res as usize;
            self.count[ri] -= weight;
            for _ in 0..weight {
                self.remaining[ri] -= share;
            }
            if self.count[ri] == 0 {
                self.live_res -= 1;
            } else {
                self.queue_rekey(res);
            }
            sub = next;
        }
        self.rekey_round();
        done
    }

    /// Pop the heap top: a textbook freeze round at its share, ordered
    /// after every round behind the merge and ahead of the rest. It is
    /// ordered before it is filled, so a resource materialised during the
    /// round catches up on the entries frozen so far.
    fn heap_round(&mut self, paths: &PathTable, done: usize) {
        let t = self.heap.pop().expect("peeked");
        // The share the heap keyed `t` at, with its sign of zero.
        let share = share(&self.remaining, &self.count, t);
        let ti = t as usize;
        self.visited_rounds += 1;
        if self.log.slot_of[ti] != NO_SLOT {
            // Its logged round is pending (a passed one would have drained
            // it) and tainted: the entries it would freeze freeze here.
            self.log.remove(t);
            self.sub_head[ti] = NO_SUB;
            for &e in &self.res_entries[ti] {
                if self.ent_round[e as usize] == t {
                    self.ent_round[e as usize] = NO_ROUND;
                }
            }
        }
        self.log.share[ti] = share;
        self.pop_key[ti] = (done as u64) << 32 | (self.popped.len() as u64 + 1);
        self.popped.push((t, done as u32));
        for i in 0..self.res_entries[ti].len() {
            let e = self.res_entries[ti][i];
            let ei = e as usize;
            if self.frozen(e, done).is_some() {
                continue; // already frozen by an earlier bottleneck
            }
            let w = self.ent_weight[ei];
            for &r2 in paths.get(self.ent_path[ei]) {
                let r2i = r2 as usize;
                if !self.taint_mark[r2i] && self.res_entries[r2i].len() == 1 {
                    // `e` is its only entry and freezes here: no fill state.
                    self.taint_mark[r2i] = true;
                    self.taint_res.push(r2);
                    self.log.flag(r2, done);
                    continue;
                }
                // Tainted while `e` is still unfrozen: a resource this
                // materialises counts it, and then receives it here.
                self.taint(r2, done);
                self.count[r2i] -= w;
                for _ in 0..w {
                    self.remaining[r2i] -= share;
                }
                if self.count[r2i] == 0 {
                    self.live_res -= 1;
                } else {
                    self.queue_rekey(r2);
                }
            }
            self.ent_mark[ei] = self.epoch;
            self.ent_rate[ei] = share;
            self.ent_round[ei] = t;
            self.last_pass_entries += 1;
        }
        debug_assert_eq!(self.count[ti], 0, "bottleneck must fully drain");
        self.rekey_round();
    }

    /// The place in the round order of the round that froze entry `e`, if
    /// the merge has passed it with the slots before `done`.
    fn frozen(&self, e: u32, done: usize) -> Option<u64> {
        let (ei, b) = (e as usize, self.ent_round[e as usize]);
        if self.ent_mark[ei] == self.epoch {
            return Some(self.pop_key[b as usize]);
        }
        let s = if b == NO_ROUND {
            NO_SLOT
        } else {
            self.log.slot_of[b as usize]
        };
        ((s as usize) < done).then_some((s as u64 + 1) << 32)
    }

    /// List `r`, whose fill state the current round changed, for
    /// [`MaxMinSolver::rekey_round`].
    #[inline]
    fn queue_rekey(&mut self, r: u32) {
        if !std::mem::replace(&mut self.rekey_mark[r as usize], true) {
            self.rekey.push(r);
        }
    }

    /// End a round: re-key each resource it changed once, at its clamped
    /// share, unless it has drained since it was listed; a drained resource
    /// keeps its old key until it reaches the top, where it leaves. Nothing
    /// reads the heap mid-round, so one re-key at the end leaves the heap
    /// as a re-key after every subtraction would.
    fn rekey_round(&mut self) {
        for i in 0..self.rekey.len() {
            let r = self.rekey[i];
            self.rekey_mark[r as usize] = false;
            if self.count[r as usize] > 0 {
                self.heap
                    .set(key_of(share(&self.remaining, &self.count, r), r));
            }
        }
        self.rekey.clear();
    }

    /// The key of the first live resource on the heap: a drained one
    /// leaves when it reaches the top.
    fn heap_top(&mut self) -> Option<Key> {
        if self.live_res == 0 {
            self.heap.clear(); // every resource left is drained
        }
        let count = &self.count;
        self.heap.top(|r| count[r as usize] > 0)
    }

    /// Taint `r` in the middle of a merge that has passed the slots before
    /// `done`, materialising it if it was untainted.
    fn taint(&mut self, r: u32, done: usize) {
        if !std::mem::replace(&mut self.taint_mark[r as usize], true) {
            self.taint_res.push(r);
            self.log.flag(r, done);
            self.materialise(r, done);
        }
    }

    /// Give tainted resource `r` the fill state the textbook has for it
    /// once the merge has passed the slots before `done`: `count` is the
    /// weight of its unfrozen entries, and `remaining` is `capacity` minus
    /// the shares of its frozen entries, subtracted in round order as the
    /// textbook subtracted them. Each unfrozen entry with a pending logged
    /// round subscribes `r` to it, which makes the round work. A live `r`
    /// is queued for the heap.
    fn materialise(&mut self, r: u32, done: usize) {
        let ri = r as usize;
        self.materialised_resources += 1;
        self.catch_up.clear();
        let mut count = 0;
        for &e in &self.res_entries[ri] {
            let ei = e as usize;
            let (w, b) = (self.ent_weight[ei], self.ent_round[ei]);
            if let Some(key) = self.frozen(e, done) {
                self.catch_up.push((key, b, w));
                continue;
            }
            count += w;
            if b != NO_ROUND && self.log.slot_of[b as usize] != NO_SLOT {
                let head = &mut self.sub_head[b as usize];
                self.subs.push(Sub {
                    res: r,
                    weight: w,
                    next: *head,
                });
                *head = (self.subs.len() - 1) as u32;
                self.log.flag(b, done);
            }
        }
        if self.catch_up.len() > 1 {
            self.catch_up.sort_unstable_by_key(|&(key, ..)| key);
        }
        let mut remaining = self.capacity[ri];
        for &(_, b, w) in &self.catch_up {
            let share = self.log.share[b as usize];
            for _ in 0..w {
                remaining -= share;
            }
        }
        self.remaining[ri] = remaining;
        self.count[ri] = count;
        if count > 0 {
            self.live_res += 1;
            self.queue_rekey(r);
        }
    }

    /// The rate of entry `id` as of the last recompute (bits/second). For
    /// a coalesced entry this is the rate of *each* member flow.
    #[inline]
    pub fn entry_rate(&self, id: u32) -> f64 {
        self.ent_rate[id as usize]
    }

    /// Number of flows currently represented by entry `id`.
    pub fn entry_weight(&self, id: u32) -> u32 {
        self.ent_weight[id as usize]
    }

    /// Number of entries with a weight above zero right now (settled or
    /// not).
    pub fn live_entries(&self) -> usize {
        self.live_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_check::textbook_maxmin;

    /// Intern `path` and register one flow on it.
    fn insert(s: &mut MaxMinSolver, table: &mut PathTable, path: &[u32]) -> u32 {
        let id = table.intern(path);
        s.insert_entry(table, id)
    }

    /// Deterministic xorshift64* for structured-random path sets.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A solver held after every recompute to textbook progressive filling
    /// over its live flows: bit-equal rates, and as many freeze rounds as
    /// the textbook counts whenever a pass ran.
    struct Twin {
        table: PathTable,
        caps: Vec<f64>,
        fast: MaxMinSolver,
        /// One `(entry, path)` per live flow.
        live: Vec<(u32, Vec<u32>)>,
    }

    impl Twin {
        fn new(caps: &[f64]) -> Self {
            Twin {
                table: PathTable::new(),
                caps: caps.to_vec(),
                fast: MaxMinSolver::new(caps.to_vec()).unwrap(),
                live: Vec::new(),
            }
        }

        fn insert(&mut self, path: &[u32]) -> u32 {
            let id = insert(&mut self.fast, &mut self.table, path);
            self.live.push((id, path.to_vec()));
            id
        }

        fn remove(&mut self, id: u32) {
            self.fast.remove_entry(id);
            let i = self.live.iter().position(|&(e, _)| e == id).unwrap();
            self.live.swap_remove(i);
        }

        /// Recompute and check; returns the rounds the pass visited.
        fn recompute(&mut self) -> u64 {
            let s = &mut self.fast;
            let before = (s.visited_rounds, s.iterations, s.rate_recomputes);
            s.recompute(&self.table);
            let paths: Vec<&[u32]> = self.live.iter().map(|(_, p)| p.as_slice()).collect();
            let (rates, rounds) = textbook_maxmin(&self.caps, &paths);
            if s.rate_recomputes > before.2 {
                assert_eq!(s.iterations - before.1, rounds);
            }
            for (&(e, _), want) in self.live.iter().zip(&rates) {
                assert_eq!(s.entry_rate(e).to_bits(), want.to_bits(), "entry {e}");
            }
            s.visited_rounds - before.0
        }

        fn max_rate_entry(&self) -> u32 {
            self.live
                .iter()
                .map(|&(e, _)| e)
                .max_by(|&a, &b| {
                    let (ra, rb) = (self.fast.entry_rate(a), self.fast.entry_rate(b));
                    ra.partial_cmp(&rb).unwrap().then(b.cmp(&a))
                })
                .unwrap()
        }
    }

    /// Chain of three bottlenecks freezing at 5, 15 and 25: rounds
    /// `(5, r0, [A, B])`, `(15, r1, [C])`, `(25, r2, [D])`.
    fn chain() -> (Twin, [u32; 4]) {
        let mut t = Twin::new(&[10.0, 20.0, 40.0, 1.0]);
        let ids = [
            t.insert(&[0]),
            t.insert(&[0, 1]),
            t.insert(&[1, 2]),
            t.insert(&[2]),
        ];
        assert_eq!(t.recompute(), 3, "the first pass pops every round");
        assert_eq!(t.fast.iterations, 3);
        assert_eq!(t.fast.entry_rate(ids[3]), 25.0);
        (t, ids)
    }

    #[test]
    fn removing_the_fastest_entry_replays_every_round_but_the_last() {
        let (mut t, ids) = chain();
        t.remove(ids[3]);
        // r1's round is replayed for r2, which C crosses, and r2's is
        // skipped; r0's is jumped. Nothing is frozen on the heap.
        assert_eq!(t.recompute(), 2);
        assert_eq!(t.fast.iterations, 5);
        assert_eq!(t.fast.rate_recomputes, 2);
        assert_eq!(t.fast.last_pass_entries, 0);
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1]);
    }

    /// Bottlenecks of the current log, in pop order.
    fn logged_bottlenecks(s: &MaxMinSolver) -> Vec<u32> {
        s.log
            .res_at
            .iter()
            .copied()
            .filter(|&r| r != NO_SLOT)
            .collect()
    }

    #[test]
    fn an_insert_undercutting_the_first_bottleneck_replays_every_old_round() {
        let (mut t, _) = chain();
        // Capacity 1 < the first logged share of 5: the heap pops r3 ahead
        // of the log, and every old round is jumped.
        let e = t.insert(&[3]);
        assert_eq!(t.recompute(), 1);
        assert_eq!(t.fast.entry_rate(e), 1.0);
        assert_eq!(logged_bottlenecks(&t.fast), [3, 0, 1, 2]);
        // A third flow on r2 (40 / 3 < 15) pops r2 from the heap ahead of
        // r1's round and freezes C there, which taints r1: the rounds of
        // r3 and r0 are jumped, r1's is skipped and r2's is dropped.
        t.insert(&[2]);
        assert_eq!(t.recompute(), 2);
        assert_eq!(logged_bottlenecks(&t.fast), [3, 0, 2]);
    }

    #[test]
    fn a_perturbed_tie_pops_ahead_of_the_logged_round_only_from_a_lower_id() {
        // Logged round: (5, r1). A perturbed resource also at share 5
        // pops first iff its id is lower; the logged round is jumped
        // either way.
        for (path, order) in [([0u32], [0, 1]), ([2u32], [1, 2])] {
            let mut t = Twin::new(&[5.0, 10.0, 5.0]);
            t.insert(&[1]);
            t.insert(&[1]);
            t.recompute();
            let e = t.insert(&path);
            assert_eq!(t.recompute(), 1, "path {path:?}");
            assert_eq!(logged_bottlenecks(&t.fast), order, "path {path:?}");
            assert_eq!(t.fast.entry_rate(e), 5.0);
        }
    }

    #[test]
    fn a_recycled_entry_id_never_replays_its_stale_round() {
        let mut t = Twin::new(&[10.0, 20.0, 30.0, 40.0]);
        t.insert(&[0]);
        let b = t.insert(&[1]);
        t.insert(&[2]);
        t.recompute();
        // The id is freed by the settle of the next recompute — the round
        // of resource 1 at share 20 is skipped there, and dropped from the
        // log — and comes back afterwards for a different path.
        t.remove(b);
        assert_ne!(
            t.insert(&[3]),
            b,
            "ids are recycled at settle, not at remove"
        );
        assert_eq!(t.recompute(), 2);
        assert_eq!(logged_bottlenecks(&t.fast), [0, 2, 3]);
        assert_eq!(t.insert(&[1, 3]), b);
        // (10, r0) and (30, r2) are jumped; the heap pops r1 and r3 at 20
        // = 40 / 2 in between, and the stale round of r3 is dropped.
        assert_eq!(t.recompute(), 2);
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1, 3, 2]);
        assert_eq!(t.fast.entry_rate(b), 20.0);
    }

    /// Two disjoint chains interleave in the log: rounds (5, r0), (6, r3),
    /// (15, r1), (18, r4), (25, r2), (30, r5). An insert undercutting the
    /// first round reaches chain A only: the pass visits four rounds of
    /// chain A and jumps every round of chain B.
    #[test]
    fn a_change_to_one_chain_replays_every_round_of_a_disjoint_one() {
        let mut t = Twin::new(&[10.0, 20.0, 40.0, 12.0, 24.0, 48.0]);
        for path in [
            &[0][..],
            &[0, 1],
            &[1, 2],
            &[2],
            &[3],
            &[3, 4],
            &[4, 5],
            &[5],
        ] {
            t.insert(path);
        }
        t.recompute();
        assert_eq!(logged_bottlenecks(&t.fast), [0, 3, 1, 4, 2, 5]);
        t.insert(&[0]); // r0: 10 / 3 < 5
        assert_eq!(t.recompute(), 4);
        assert_eq!(t.fast.iterations, 12);
    }

    /// Old rounds (5, r0, [X, e]) and (11, r1, [Y]) with e = [0, 1]. X
    /// leaves: r0 is perturbed, its round is skipped, and e, still
    /// unfrozen, now shares r1 at 16 / 2 = 8. Skipping the round without
    /// tainting e's path would leave r1 off the heap until the heap pops r0
    /// at 10 and freezes e there, rating Y 6 instead of 8.
    #[test]
    fn a_skipped_round_taints_the_paths_of_its_entries() {
        let mut t = Twin::new(&[10.0, 16.0]);
        let x = t.insert(&[0]);
        let e = t.insert(&[0, 1]);
        let y = t.insert(&[1]);
        t.recompute();
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1]);
        assert_eq!((t.fast.entry_rate(e), t.fast.entry_rate(y)), (5.0, 11.0));
        t.remove(x);
        // Twin::recompute holds both rates to the textbook's bits.
        assert_eq!(t.recompute(), 2);
        assert_eq!((t.fast.entry_rate(e), t.fast.entry_rate(y)), (8.0, 8.0));
    }

    /// Old round (5, r1, [e, Z]) with e = [0, 1], r0 at 8 / 1. F joins r0,
    /// the heap pops it at 4 ahead of the log and freezes e there. Without
    /// tainting e's path, r1's round would replay and freeze e a second
    /// time, rating Z 5 instead of 6.
    #[test]
    fn a_heap_pop_taints_the_paths_it_freezes() {
        let mut t = Twin::new(&[8.0, 10.0]);
        let e = t.insert(&[0, 1]);
        let z = t.insert(&[1]);
        t.recompute();
        assert_eq!(logged_bottlenecks(&t.fast), [1]);
        t.insert(&[0]);
        assert_eq!(t.recompute(), 3);
        assert_eq!((t.fast.entry_rate(e), t.fast.entry_rate(z)), (4.0, 6.0));
    }

    /// Old rounds (0.1, r0, [A]), (0.2, r1, [B]), (0.3, r2, [D, E]),
    /// (0.4, r3, [C]), with A = [0, 3], B = [1, 3], D = [2, 3]. E leaves:
    /// the first two rounds are jumped, the skipped round of r2
    /// materialises r3 mid-pass, and r3 must catch up on A and B in round
    /// order — (1 - 0.1) - 0.2 = 0.7, while (1 - 0.2) - 0.1 =
    /// 0.7000000000000001. B is linked first, so its incidence order is
    /// the reverse of the round order.
    #[test]
    fn a_resource_materialised_mid_pass_catches_up_in_round_order() {
        let mut t = Twin::new(&[0.1, 0.2, 0.6, 1.0]);
        t.insert(&[1, 3]);
        t.insert(&[0, 3]);
        let d = t.insert(&[2, 3]);
        let e = t.insert(&[2]);
        let c = t.insert(&[3]);
        t.recompute();
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1, 2, 3]);
        t.remove(e);
        let materialised = t.fast.materialised_resources;
        // Twin::recompute holds every rate to the textbook's bits.
        assert_eq!(t.recompute(), 2);
        assert_eq!(t.fast.materialised_resources - materialised, 2);
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1, 3]);
        assert_eq!(t.fast.entry_rate(d).to_bits(), 0.35f64.to_bits());
        assert_eq!(t.fast.entry_rate(c).to_bits(), 0.35f64.to_bits());
    }

    /// Old rounds (5, r0, [e, G]) and (35, r1, [C]) with e = [0, 1]. H
    /// joins r0 and F joins r1, so both are materialised up front and r1
    /// subscribes to r0's round for e. The heap pops r0 at 10 / 3 first
    /// and freezes e there; the logged round of r0 is then dropped, and
    /// firing its subscriptions would take e's share off r1 a second time.
    #[test]
    fn a_skipped_round_fires_no_subscription() {
        let mut t = Twin::new(&[10.0, 40.0]);
        let e = t.insert(&[0, 1]);
        t.insert(&[0]);
        let c = t.insert(&[1]);
        t.recompute();
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1]);
        t.insert(&[0]);
        let f = t.insert(&[1]);
        assert_eq!(t.recompute(), 2);
        assert!(t.fast.subs.iter().any(|s| s.res == 1 && s.weight == 1));
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1]);
        let rest = (40.0 - t.fast.entry_rate(e)) / 2.0;
        assert_eq!((t.fast.entry_rate(c), t.fast.entry_rate(f)), (rest, rest));
    }

    /// Logged keys are not monotone under f64. A, B, C = [0, 2], [0, 1],
    /// [0, 1] freeze on r0 at a = 10 / 3; r1 is left with 10 - a - a =
    /// 3.3333333333333326 < a for D = [1, 2]. X then joins r2 (capacity
    /// 20), which subscribes to both rounds: they must be replayed in log
    /// order, (20 - a) - b = 13.333333333333336, not in share order,
    /// (20 - b) - a = 13.333333333333334.
    #[test]
    fn a_merge_replays_logged_rounds_in_pop_order_not_share_order() {
        let mut t = Twin::new(&[10.0, 10.0, 20.0]);
        t.insert(&[0, 2]);
        t.insert(&[0, 1]);
        t.insert(&[0, 1]);
        let d = t.insert(&[1, 2]);
        t.recompute();
        let (a, b) = (10.0 / 3.0, t.fast.entry_rate(d));
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1]);
        assert!(b < a, "the second round's share undercuts the first");
        assert_ne!((20.0 - a - b).to_bits(), (20.0 - b - a).to_bits());
        let x = t.insert(&[2]);
        // Both rounds are replayed for r2, which then pops from the heap.
        assert_eq!(t.recompute(), 3);
        assert_eq!(t.fast.entry_rate(x).to_bits(), (20.0 - a - b).to_bits());
    }

    // ---- the bottleneck heap ----

    /// Keys with many exact ties, `-0.0` against `+0.0` among them, pop
    /// in the order of a sort by `(share, id)`, whatever order they went
    /// in.
    #[test]
    fn the_resource_heap_pops_in_share_then_id_order_under_exact_ties() {
        const N: u32 = 200;
        let shares = [0.0, -0.0, 0.5, 1.0 / 3.0, 2.0];
        let mut st = 0x5DEE_CE66_D1CE_4E5Bu64;
        let mut keys: Vec<(f64, u32)> = (0..N)
            .map(|r| (shares[xorshift(&mut st) as usize % shares.len()], r))
            .collect();
        let mut heap = ResourceHeap::new(N as usize);
        // Inserted in a shuffled order, and half of them via a rebuild.
        for i in (1..keys.len()).rev() {
            keys.swap(i, xorshift(&mut st) as usize % (i + 1));
        }
        let (built, set) = keys.split_at(keys.len() / 2);
        heap.rebuild(built.iter().map(|&(share, r)| key_of(share, r)));
        for &(share, r) in set {
            heap.set(key_of(share, r));
        }
        keys.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let popped: Vec<u32> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(popped, keys.iter().map(|&(_, r)| r).collect::<Vec<_>>());
        assert!(heap.pos.iter().all(|&p| p == OFF_HEAP));
    }

    #[test]
    fn the_resource_heap_raises_and_lowers_a_key_in_place() {
        let mut heap = ResourceHeap::new(8);
        for r in 0..8 {
            heap.set(key_of(r as f64, r));
        }
        heap.set(key_of(10.0, 0)); // the top sinks
        heap.set(key_of(0.5, 7)); // the last rises
        heap.set(key_of(3.0, 3)); // unchanged
        assert_eq!(heap.keys.len(), 8, "one key per resource");
        let popped: Vec<u32> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(popped, [7, 1, 2, 3, 4, 5, 6, 0]);
    }

    #[test]
    fn a_drained_resource_leaves_the_heap_when_it_reaches_the_top() {
        let mut heap = ResourceHeap::new(4);
        for r in 0..4 {
            heap.set(key_of(r as f64, r));
        }
        let live = |r: u32| r % 2 == 1;
        assert_eq!(heap.top(live).map(key_res), Some(1));
        assert_eq!(heap.pos[0], OFF_HEAP, "drained on top: gone");
        assert_ne!(heap.pos[2], OFF_HEAP, "drained below the top: held");
        assert_eq!(heap.pop(), Some(1));
        assert_eq!(heap.top(live).map(key_res), Some(3));
        assert_eq!(heap.keys.len(), 1);
    }

    /// A round that freezes K entries crossing one shared link subtracts
    /// from that link K times. The link is keyed once, when the round
    /// ends, so the heap never holds more keys than the pass materialised
    /// resources: here the bottleneck and the link.
    #[test]
    fn a_round_freezing_k_entries_through_a_shared_link_keys_it_once() {
        const K: u32 = 64;
        // Resource 0 bottlenecks the K entries, resource 1 is the shared
        // link, and each entry has a private resource of its own.
        let mut caps = vec![1.0, 1000.0];
        caps.extend((0..K).map(|_| 1e6));
        let mut t = Twin::new(&caps);
        for i in 0..K {
            t.insert(&[0, 1, 2 + i]);
        }
        t.insert(&[1]); // keeps the link live after the round
        t.recompute();
        // A newcomer on the bottleneck: the heap pops it ahead of its
        // logged round and freezes all K + 1 of its entries at once.
        t.insert(&[0]);
        t.fast.heap.peak = 0;
        let materialised = t.fast.materialised_resources;
        t.recompute();
        assert_eq!(t.fast.materialised_resources - materialised, 2);
        assert_eq!(t.fast.last_pass_entries, u64::from(K) + 2);
        assert!(
            t.fast.heap.peak <= 2,
            "the heap held {} keys for 2 materialised resources",
            t.fast.heap.peak
        );
    }

    // ---- deferred settle ----

    fn incidence_is_empty(s: &MaxMinSolver) -> bool {
        s.res_entries.iter().all(Vec::is_empty)
    }

    /// The case the settle exists for: a batch that retires a path and
    /// re-issues it costs no pass and keeps id and rate.
    #[test]
    fn a_reissued_path_keeps_its_entry_and_costs_no_pass() {
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![9.0, 4.0]).unwrap();
        let a = insert(&mut s, &mut table, &[0, 1]);
        let b = insert(&mut s, &mut table, &[0]);
        s.recompute(&table);
        let before = (s.rate_recomputes, s.iterations, s.entry_rate(a).to_bits());
        assert_eq!(f64::from_bits(before.2), 4.0);

        s.remove_entry(a);
        assert_eq!(s.live_entries(), 1, "counts weight > 0 at call time");
        assert_eq!(insert(&mut s, &mut table, &[0, 1]), a);
        assert_eq!(s.flows_coalesced, 0, "a resurrection is not a join");
        s.recompute(&table);
        assert_eq!(
            (s.rate_recomputes, s.iterations, s.entry_rate(a).to_bits()),
            before
        );
        assert_eq!(s.last_pass_entries, 0);
        assert_eq!(s.entry_rate(b), 5.0);
    }

    #[test]
    fn a_net_change_through_zero_is_dirty() {
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![12.0]).unwrap();
        let a = insert(&mut s, &mut table, &[0]);
        s.recompute(&table);
        assert_eq!(s.entry_rate(a), 12.0);
        // 1 -> 0 -> 2: resurrected, then joined.
        s.remove_entry(a);
        assert_eq!(insert(&mut s, &mut table, &[0]), a);
        assert_eq!(insert(&mut s, &mut table, &[0]), a);
        assert_eq!(
            s.flows_coalesced, 1,
            "the second insert joined a weight of 1"
        );
        assert_eq!(s.entry_weight(a), 2);
        s.recompute(&table);
        assert_eq!(s.rate_recomputes, 2);
        assert_eq!(s.entry_rate(a), 6.0);
        assert_eq!(
            s.res_entries[0],
            vec![a],
            "linked once, whatever the weight"
        );
    }

    #[test]
    fn an_entry_inserted_and_removed_unseen_leaves_nothing_behind() {
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![8.0, 8.0]).unwrap();
        let keep = insert(&mut s, &mut table, &[1]);
        s.recompute(&table);
        let gone = insert(&mut s, &mut table, &[0, 1]);
        s.remove_entry(gone);
        assert_eq!(s.live_entries(), 1);
        s.recompute(&table);
        assert_eq!(s.rate_recomputes, 1, "weight 0 = solved 0 dirties nothing");
        assert!(s.res_entries[0].is_empty());
        assert_eq!(s.res_entries[1], vec![keep]);
        // The slot and the index entry were released all the same.
        assert_eq!(insert(&mut s, &mut table, &[0, 1]), gone);
        assert_eq!(s.flows_coalesced, 0);

        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![8.0]).unwrap();
        let e = insert(&mut s, &mut table, &[0]);
        s.remove_entry(e);
        s.recompute(&table);
        assert_eq!(s.live_entries(), 0);
        assert!(incidence_is_empty(&s));
        assert_eq!(s.rate_recomputes, 0);
    }

    #[test]
    fn a_retired_entry_is_unlinked_before_the_pass() {
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![8.0, 8.0]).unwrap();
        let a = insert(&mut s, &mut table, &[0, 1]);
        let b = insert(&mut s, &mut table, &[1]);
        s.recompute(&table);
        assert_eq!(s.entry_rate(b), 4.0);
        s.remove_entry(a);
        s.recompute(&table);
        assert_eq!(
            s.last_pass_entries, 1,
            "the retired entry is not in the pass"
        );
        assert!(s.res_entries[0].is_empty());
        assert_eq!(s.res_entries[1], vec![b]);
        assert_eq!(s.entry_rate(b), 8.0);
    }

    #[test]
    fn an_empty_path_is_rated_on_insert_and_resurrects_like_any_other() {
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![8.0]).unwrap();
        let e = insert(&mut s, &mut table, &[]);
        assert!(s.entry_rate(e).is_infinite());
        s.recompute(&table);
        s.remove_entry(e);
        assert_eq!(insert(&mut s, &mut table, &[]), e);
        s.recompute(&table);
        assert!(s.entry_rate(e).is_infinite());
        assert_eq!(s.rate_recomputes, 0);
    }

    /// Guards the batch unlink: every entry shares resource 0, so a
    /// `position` scan per (entry, hop) would be quadratic in the batch.
    #[test]
    fn a_batch_retiring_every_entry_of_a_shared_resource_unlinks_them_all() {
        const N: u32 = 4096;
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![1e9; N as usize + 1]).unwrap();
        let ids: Vec<u32> = (1..=N)
            .map(|i| insert(&mut s, &mut table, &[0, i]))
            .collect();
        s.recompute(&table);
        assert_eq!(s.res_entries[0].len(), N as usize);
        let survivor = ids[17];
        for &e in &ids {
            if e != survivor {
                s.remove_entry(e);
            }
        }
        s.recompute(&table);
        assert_eq!(s.res_entries[0], vec![survivor]);
        assert_eq!(s.entry_rate(survivor), 1e9);
        s.remove_entry(survivor);
        s.recompute(&table);
        assert_eq!(s.live_entries(), 0);
        assert!(incidence_is_empty(&s));
    }

    /// The workload the merge exists for: one giant component, the fastest
    /// flow leaves, repeat. Counts, not times, so it cannot flake.
    #[test]
    fn fastest_first_departures_replay_nine_rounds_in_ten() {
        let caps: Vec<f64> = (0..96).map(|i| 1e9 + i as f64 * 3.7e7).collect();
        let mut t = Twin::new(&caps);
        let mut st = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..256 {
            let mut p: Vec<u32> = (0..3)
                .map(|_| (xorshift(&mut st) % caps.len() as u64) as u32)
                .collect();
            p.sort_unstable();
            p.dedup();
            t.insert(&p);
        }
        t.recompute();
        let (first_pass, first_visits) = (t.fast.iterations, t.fast.visited_rounds);
        let (mut solved, mut live) = (0, 0);
        for _ in 0..200 {
            let e = t.max_rate_entry();
            t.remove(e);
            t.recompute();
            solved += t.fast.last_pass_entries;
            live += t.live.len() as u64;
        }
        let later = t.fast.iterations - first_pass;
        let visited = t.fast.visited_rounds - first_visits;
        // 480 of 31,100 entries are frozen from the heap, the rest keep
        // their logged round; 2,050 of 4,532 rounds are visited.
        assert!(solved * 20 <= live, "re-solved {solved} of {live} entries");
        assert!(visited * 2 <= later, "visited {visited} of {later} rounds");
    }

    /// The workload the merge exists for: departures of any rate and
    /// arrivals anywhere, so changes land all along the freeze order. 512
    /// ring arcs of 2–6 consecutive resources over 256; each step retires a
    /// random flow and admits a random arc. The passes visit 15 % of their
    /// rounds and materialise ~21 resources of the ~256 a walk over
    /// every live entry touches. Counts, not times, so it cannot flake.
    #[test]
    fn random_ring_churn_replays_most_rounds() {
        const RESOURCES: u64 = 256;
        let caps: Vec<f64> = (0..RESOURCES).map(|i| 1e9 + i as f64 * 3.7e7).collect();
        let mut t = Twin::new(&caps);
        let mut st = 0x2545_F491_4F6C_DD1Du64;
        let arc = |st: &mut u64| -> Vec<u32> {
            let start = xorshift(st) % RESOURCES;
            let len = 2 + xorshift(st) % 5;
            (0..len).map(|k| ((start + k) % RESOURCES) as u32).collect()
        };
        for _ in 0..512 {
            t.insert(&arc(&mut st));
        }
        t.recompute();
        let (first_pass, first_visits) = (t.fast.iterations, t.fast.visited_rounds);
        // Resources a pass that walks every live entry would touch.
        let mut touched = 0;
        for _ in 0..300 {
            let i = (xorshift(&mut st) % t.live.len() as u64) as usize;
            t.remove(t.live[i].0);
            t.insert(&arc(&mut st));
            t.recompute();
            let mut hit = vec![false; RESOURCES as usize];
            for (_, p) in &t.live {
                p.iter().for_each(|&r| hit[r as usize] = true);
            }
            touched += hit.iter().filter(|&&h| h).count() as u64;
        }
        let later = t.fast.iterations - first_pass;
        let visited = t.fast.visited_rounds - first_visits;
        assert!(visited * 5 <= later, "visited {visited} of {later} rounds");
        // Work guard: the passes build fill state for about one resource
        // in twelve; walking the bulk would make it every one.
        assert_eq!(t.fast.rate_recomputes, 301, "every later step ran a pass");
        assert!(
            t.fast.materialised_resources * 8 <= touched,
            "materialised {} of {touched} resources",
            t.fast.materialised_resources
        );
    }

    /// Work guard for the jump: `n` disjoint two-resource chains, and a
    /// step that retires one flow of a chain and admits another. Only the
    /// same 64 chains ever change, so a pass that visits only the rounds
    /// its change reaches does the same work at 64 chains as at 1,024; one
    /// that walks every logged round does 16 times more at 1,024. Returns
    /// `(rounds visited, resources materialised)` over the steps.
    fn disjoint_chain_churn(n: u32) -> (u64, u64) {
        let caps: Vec<f64> = (0..2 * n).map(|r| [10.0, 16.0][r as usize % 2]).collect();
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(caps.clone()).unwrap();
        let shapes = |c: u32| [vec![2 * c], vec![2 * c, 2 * c + 1], vec![2 * c + 1]];
        // Per chain, its live flows oldest first: `(entry, path)`.
        let mut chains: Vec<Vec<(u32, usize)>> = (0..n)
            .map(|c| {
                (0..3)
                    .map(|k| (insert(&mut s, &mut table, &shapes(c)[k]), k))
                    .collect()
            })
            .collect();
        s.recompute(&table);
        let before = (s.visited_rounds, s.materialised_resources);
        for k in 0..512u32 {
            let c = (k % 64) * (n / 64);
            let (old, shape) = chains[c as usize].remove(0);
            s.remove_entry(old);
            let shape = (shape + 1) % 3;
            let e = insert(&mut s, &mut table, &shapes(c)[shape]);
            chains[c as usize].push((e, shape));
            s.recompute(&table);
        }
        let flows = chains
            .iter()
            .enumerate()
            .flat_map(|(c, f)| f.iter().map(move |&e| (c, e)));
        let paths: Vec<_> = flows
            .clone()
            .map(|(c, (_, k))| shapes(c as u32)[k].clone())
            .collect();
        let want = textbook_maxmin(&caps, &paths)
            .0
            .into_iter()
            .map(f64::to_bits);
        assert!(want.eq(flows.map(|(_, (e, _))| s.entry_rate(e).to_bits())));
        let work = (s.visited_rounds, s.materialised_resources);
        (work.0 - before.0, work.1 - before.1)
    }

    #[test]
    fn disjoint_chain_churn_does_the_same_work_at_any_chain_count() {
        let (small, large) = (disjoint_chain_churn(64), disjoint_chain_churn(1024));
        // 1,344 rounds and 1,024 resources over 512 passes at either size.
        assert_eq!(small, large);
        assert!(
            small.0 <= 3 * 512,
            "visited {} rounds in 512 passes",
            small.0
        );
    }

    /// `solve` on hand-worked cases, each held to its expected rates and
    /// freeze rounds and, bit for bit, to the textbook. Feasibility,
    /// saturation and state reset on random instances are
    /// `tests/proptest_maxmin.rs`.
    #[test]
    fn solve_matches_hand_worked_cases_and_the_textbook() {
        let d = f64::from_bits(1); // the smallest subnormal
        type Case<'a> = (&'a [f64], &'a [&'a [u32]], &'a [f64], u64);
        let cases: &[Case] = &[
            (&[10.0], &[&[0], &[0]], &[5.0, 5.0], 1),
            (&[1.0, 1.0], &[&[0, 1], &[0], &[1]], &[0.5, 0.5, 0.5], 2),
            // A is frozen at 0.5 by link 0; C then gets the 9.5 left on link 1.
            (&[1.0, 10.0], &[&[0, 1], &[0], &[1]], &[0.5, 0.5, 9.5], 2),
            (&[1.0], &[&[], &[0]], &[f64::INFINITY, 1.0], 1),
            (&[1.0; 4], &[], &[], 0),
            // Subnormal capacities make a share round up: resource 0
            // (4d / 4 = d) ties with resource 1 (3d / 5 rounds to d) and
            // pops first on the lower id, leaving resource 1 at 3d - 4d =
            // -d for its last flow, which the clamp rates 0.
            (
                &[4.0 * d, 3.0 * d],
                &[&[0, 1], &[0, 1], &[0, 1], &[0, 1], &[1]],
                &[d, d, d, d, 0.0],
                2,
            ),
        ];
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &(caps, paths, want, rounds) in cases {
            let mut s = MaxMinSolver::new(caps.to_vec()).unwrap();
            let mut rates = vec![0.0; paths.len()];
            s.solve(paths, &mut rates);
            assert_eq!(rates, want, "{paths:?}");
            assert_eq!(s.iterations, rounds, "{paths:?}");
            let (textbook, textbook_rounds) = textbook_maxmin(caps, paths);
            assert_eq!(bits(&rates), bits(&textbook), "{paths:?}");
            assert_eq!(textbook_rounds, rounds, "{paths:?}");
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        let err = MaxMinSolver::new(vec![1.0, 0.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidCapacity {
                resource: 1,
                capacity: "0".to_string(),
            }
        );
    }

    #[test]
    fn negative_and_nan_capacities_rejected() {
        assert!(matches!(
            MaxMinSolver::new(vec![-1.0]),
            Err(SimError::InvalidCapacity { resource: 0, .. })
        ));
        assert!(matches!(
            MaxMinSolver::new(vec![5.0, f64::NAN]),
            Err(SimError::InvalidCapacity { resource: 1, .. })
        ));
        assert!(matches!(
            MaxMinSolver::new(vec![f64::INFINITY]),
            Err(SimError::InvalidCapacity { resource: 0, .. })
        ));
    }
}
