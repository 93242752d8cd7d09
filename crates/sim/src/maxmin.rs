//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each using a list of capacitated resources, the
//! max-min fair allocation is computed with the classic water-filling
//! algorithm: repeatedly find the resource with the smallest fair share
//! (remaining capacity divided by its number of unfrozen flows), freeze all
//! its flows at that share, subtract their rates from every other resource
//! they cross, and repeat.
//!
//! The implementation keeps the bottleneck frontier in a lazy binary heap:
//! when a resource's share changes, a new entry is pushed with a bumped
//! version and stale entries are discarded on pop. Each flow is frozen
//! exactly once, giving `O(Σ path · log R)` per allocation.
//!
//! All scratch state lives in [`MaxMinSolver`] and is reused across calls
//! (the engine recomputes rates at every completion event), with touched
//! lists to avoid `O(total resources)` clearing.
//!
//! # Incremental recomputes
//!
//! The solver is driven through an entry API ([`MaxMinSolver::insert_entry`],
//! [`MaxMinSolver::remove_entry`], [`MaxMinSolver::recompute`]): it keeps a
//! persistent per-resource incidence of the active flows and, on each
//! change, re-runs water-filling only over the connected component(s) of
//! the flow–resource sharing graph that the change touched. Identical
//! paths — equal [`PathId`]s of the run's [`PathTable`], which interns by
//! content — share one weighted entry. [`MaxMinSolver::solve`] is the
//! one-shot form: insert every path, one full pass.
//!
//! Rates are **bit-identical** to textbook progressive filling over the
//! same flow set ([`crate::trace_check::textbook_maxmin`], the reference
//! the equivalence suites hold every recompute to):
//!
//! * Water-filling decomposes over connected components: a resource's
//!   `remaining`/`count` trajectory only depends on flows of its own
//!   component, and the bottleneck heap's ordering (share, then resource
//!   id) is a total order over *valid* entries, so interleaving components
//!   in one heap or solving them separately freezes every flow at the same
//!   share.
//! * A weighted entry subtracts its share from each crossed resource once
//!   *per unit of weight* (repeated subtraction, not `share * weight`), so
//!   the floating-point trajectory matches `weight` separate flows exactly.
//!
//! The dirty region of a change is the BFS closure, over the *new* sharing
//! graph, of the resources on every path whose weight changed since the
//! last recompute; [`MaxMinSolver::invalidate_all`] degrades the next
//! recompute to a full one (used for fault-overlay churn), as does a dirty
//! region larger than a caller-chosen fraction of the active set.
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
//!   the next one). Nothing is dirtied; its rate stands. If that is every
//!   changed entry the recompute returns without a pass.
//! * different — the resources of its path are dirtied exactly as an
//!   eager insert/remove would have; an entry no settle has seen is linked
//!   into the incidence lists, an entry at zero is unlinked (per touched
//!   resource, with one `retain`) and its id freed.
//! * both zero — inserted and removed again unseen: the id is freed and
//!   nothing is dirtied, since the incidence never knew it.
//!
//! A weight-zero entry stays in the coalescing index until the settle that
//! frees it, so a flow re-issuing its path *resurrects* it: same id, rate
//! intact.
//!
//! Why eliding the pass is **bit-identical** to running it:
//!
//! * Max-min rates of a connected component are a function of its
//!   multiset of (path, weight) — the property the component-local pass
//!   already relies on: heap ties break by resource id and the order of
//!   subtractions within a round is irrelevant (see "Merge replay"). So
//!   an entry whose (path, weight) is unchanged, in a component nothing
//!   else changed, keeps its rate to the bit, whichever flows carry it.
//! * Every entry whose weight *did* change dirties its resources at
//!   settle exactly as it did at insert/remove time before, so the BFS
//!   closure, the full-pass threshold (a fraction of
//!   [`MaxMinSolver::live_entries`], which counts weight > 0 at call
//!   time) and the perturbed set of the merge replay see the same net
//!   change. A net change through zero (1 → 0 → 2) is a changed weight.
//! * Entry ids are recycled only at settle, when the resources of the
//!   freed entry are dirty — hence perturbed — so a recycled id's stale
//!   logged round is never replayed.
//! * The incidence lists may order their entries differently than eager
//!   maintenance would; that order is irrelevant for the same reason
//!   `swap_remove` reordering was.
//!
//! [`MaxMinSolver::invalidate_all`] settles like any recompute and then
//! runs a from-scratch full pass — no elision. Only the effort counters (`iterations`, `rate_recomputes`) differ from
//! eager maintenance, and only downward.
//!
//! # Merge replay
//!
//! On one giant component (random traffic) most recomputes degrade to a
//! full pass, and consecutive full passes repeat almost all of their own
//! work: a change since the last full pass reaches only a few of its
//! freeze rounds. So every full sequential pass **logs** its freeze order
//! — per valid pop `(share, bottleneck, entries frozen, their weight)` —
//! and records in `ent_round` the round that froze each entry. The next
//! full pass **merges** that log with a heap over the resources the change
//! has reached, the *tainted* ones, and builds fill state for those alone:
//!
//! * *Taint set.* Seeded with the perturbed set: every resource on a path
//!   whose settled weight changed since the logged pass (the deduped
//!   `dirty_res` of every recompute since, component-local ones and those
//!   that return early included). It grows during the pass, and every
//!   sequential full pass clears it at its end.
//! * *Materialisation.* A resource gets `count`/`remaining` when it is
//!   first tainted, never before: `count` is the weight of its entries not
//!   yet frozen this pass, `remaining` its capacity less the share of each
//!   frozen one, once per unit of weight and in round order (the
//!   *catch-up*). It then sits on
//!   the heap, keyed `(clamped share, id)`, and re-keys whenever it
//!   receives a subtraction. There is no pass 1 over the live entries.
//! * *Subscriptions.* A materialised resource subscribes `(resource,
//!   weight)` to the logged round of each of its unfrozen entries that the
//!   merge has not reached yet.
//! * *Merge.* Each step takes whichever pops first under that key: the
//!   next logged round or the heap top. A logged round whose bottleneck is
//!   untainted is **replayed**: its entries take the logged share and the
//!   pass's frozen stamp, `frozen` advances by the logged weight, and each
//!   subscriber receives the share once per unit of weight — no path walk,
//!   no division. A logged round whose bottleneck is tainted is
//!   **skipped**: its entries will freeze elsewhere, so every resource on
//!   their current paths is tainted (`FREE` slots have none), and its
//!   subscriptions never fire. A heap pop freezes the unfrozen entries of
//!   its resource at the current share the textbook way, taints every
//!   resource on their paths before subtracting from it, and is logged.
//!
//! A replayed round thus costs its subscribers plus one rate write per
//! entry, and a merged pass builds state for the tainted resources only.
//! A from-scratch full pass (the first one, or one after the log was
//! discarded) is the classic loop over every live entry and logs the same
//! way. The new log is written in pop order while the old one is read, so
//! the two are double-buffered. A component-local pass neither reads nor
//! writes the log: its dirty resources join the taint set like any other.
//! Only [`MaxMinSolver::invalidate_all`], which drops its dirty set
//! unseen, and the pooled round-based pass, which keeps no log, discard it.
//!
//! Why the merged pass is **bit-identical** to a from-scratch one:
//!
//! 1. An untainted resource hosts the same entries, at the same weights,
//!    as in the logged pass. Every subtraction the textbook applies to it
//!    comes from a replayed round at the logged share: skipped rounds and
//!    heap pops taint every resource they subtract from, or would have
//!    subtracted from. So its textbook `remaining`/`count` equal their
//!    logged values before the same round, and the merge never needs them:
//!    an untainted resource is read only as the bottleneck of a replayed
//!    round, through the round's logged key.
//! 2. So an untainted bottleneck has its logged key. Every other untainted
//!    live resource keys after it, because the logged pass popped it as
//!    the minimum; every tainted one does too, because the heap top was
//!    compared. It is therefore the textbook's next pop.
//! 3. Its unfrozen entries are exactly the logged ones, at the logged
//!    weight: an entry frozen by a heap pop, listed in a skipped round, or
//!    of changed weight would have tainted this bottleneck. Entry ids are
//!    recycled only at settle, where the path of the freed entry is
//!    perturbed, so a recycled id's stale round is always skipped
//!    (tainting the id's new path is only conservative).
//! 4. Heap pops are textbook pops: the heap top keys before every other
//!    tainted resource and before the next logged round, whose key bounds
//!    every untainted one (2). Subtractions within a round all use one
//!    share, so their order is irrelevant (the property the parallel
//!    rounds below rely on) and `swap_remove`-reordered incidence lists
//!    are harmless.
//! 5. A materialised resource holds the textbook's state. Until it is
//!    tainted the textbook subtracts from it only in replayed rounds (1),
//!    one share per round; the catch-up applies exactly those
//!    subtractions, in round order. Order is what keeps the bits: f64
//!    subtraction does not commute across shares, (1 − 0.1) − 0.2 = 0.7
//!    but (1 − 0.2) − 0.1 = 0.7000000000000001. From then on it receives
//!    every round that freezes one of its entries: a heap pop directly, a
//!    replayed round through its subscription. A skipped round freezes
//!    nothing, so it fires nothing; its entries freeze later on the heap.
//!    A resource first tainted inside a heap pop counts the entry being
//!    frozen as unfrozen and receives it right after; it catches up on the
//!    entries that round froze before, because the round is logged before
//!    it is filled.
//! 6. Keeping the log across component-local passes is sound. Such a pass
//!    changes rates, never the entry set, and the merge reads no rate: its
//!    frozen test is the pass's stamp in `ent_mark`, not `ent_rate`. The
//!    entry set differs from the logged one only by settled weight
//!    changes, whose resources every recompute adds to the taint set while
//!    the log is valid, whether its own pass is full or component-local.
//!
//! # Parallel water-filling
//!
//! [`MaxMinSolver::recompute_with`] accepts a [`WorkerPool`]; passes large
//! enough to amortise the dispatch run a *round-based* formulation of the
//! same algorithm (see `waterfill_rounds`): each round scans all live
//! resources for the globally minimal clamped share (partitioned across
//! workers), freezes that one bottleneck exactly as the heap loop would,
//! and applies the rate subtractions sharded by resource owner. Because
//! the heap also freezes one bottleneck per valid pop — the resource with
//! the minimal current share, ties to the smallest id — and because every
//! subtraction within a round uses the *same* share value (making the
//! subtraction order across entries irrelevant: each resource receives an
//! identical count of identical f64 subtractions), the rounds produce
//! **bit-identical** rates and an identical `iterations` count at every
//! thread count, including 1.

use crate::error::SimError;
use crate::paths::{PathId, PathTable};
use crate::pool::{SharedSlice, WorkerPool};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// `ent_path` of a slot on the free list.
const FREE: PathId = PathId(u32::MAX);
/// `entry_of_path` of a path no entry stands for.
const NO_ENTRY: u32 = u32::MAX;

/// Smallest pass (in entries) worth dispatching to the worker pool: below
/// this the per-round condvar handshakes dwarf the arithmetic and the
/// sequential heap wins outright. Incremental recomputes of small dirty
/// components therefore stay on the heap even when a pool is attached.
pub const PARALLEL_MIN_ENTRIES: usize = 64;

/// Heap entry: min-share ordering with lazy invalidation by version.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    share: f64,
    resource: u32,
    version: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get the smallest share first.
        other
            .share
            .partial_cmp(&self.share)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.resource.cmp(&self.resource))
    }
}

/// The bottleneck order shared by the heap, the round scan and the replay
/// guard: smaller clamped share first, ties to the smaller resource id.
#[inline]
fn pops_before(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// One logged freeze round: `bottleneck` was popped at `share` and froze
/// the entries `log_entries[previous end..end]`, `weight` flows in all.
#[derive(Debug, Clone, Copy)]
struct LogRound {
    share: f64,
    weight: u64,
    bottleneck: u32,
    end: u32,
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

/// Reusable progressive-filling solver.
///
/// `R` resources with fixed capacities are registered at construction; the
/// entry API (module docs) keeps the rates of a changing flow set over
/// those resources current.
#[derive(Debug)]
pub struct MaxMinSolver {
    capacity: Vec<f64>,
    // Per-resource scratch, valid only for resources in `touched`.
    remaining: Vec<f64>,
    count: Vec<u32>,
    version: Vec<u32>,
    /// Position of each resource in `touched` (the pooled rounds' owner map).
    touched_index: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
    /// Statistics: total freeze iterations across calls.
    pub iterations: u64,
    /// Statistics: water-filling passes executed (full or partial).
    pub rate_recomputes: u64,
    /// Statistics: full (non-component) passes among `rate_recomputes`.
    pub full_recomputes: u64,
    /// Statistics: flows absorbed into an existing coalesced entry.
    pub flows_coalesced: u64,
    /// Statistics: water-filling passes that ran on the round-based
    /// parallel path (0 without a pool or below the entry threshold).
    pub parallel_passes: u64,
    /// Statistics: freeze rounds (of `iterations`) that full passes took
    /// from the log of the previous full pass instead of the heap.
    pub replayed_rounds: u64,
    /// Statistics: resources merged passes built fill state for — the
    /// resources their change reached (module docs, "Merge replay").
    pub materialised_resources: u64,
    /// Entries (weighted flow groups) the most recent pass actually
    /// re-solved — the dirty-component size surfaced in trace events.
    /// Zero when the last recompute found nothing to do.
    pub last_pass_entries: u64,
    /// Whether the most recent pass covered every live entry (a full pass)
    /// rather than one dirty component.
    pub last_pass_full: bool,
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
    ent_rate: Vec<f64>,
    /// The round of the log that froze the entry, `NO_ROUND` if none did.
    /// During a merge: an index of the new log for entries frozen this
    /// pass (`ent_mark` at the pass's stamp), of the merged one for the
    /// others.
    ent_round: Vec<u32>,
    free_ents: Vec<u32>,
    /// Entries with `ent_weight > 0`.
    live_entries: usize,
    /// Σ `ent_solved` over entries with a non-empty path: the weight a
    /// full pass freezes.
    constrained_weight: u64,
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
    /// Resources whose entry set the current settle changed; empty between
    /// recomputes.
    dirty_res: Vec<u32>,
    /// Settle scratch: resources that host an entry being unlinked.
    unlink_res: Vec<u32>,
    /// Force a full pass on the next recompute (fault churn).
    pending_full: bool,
    // Epoch-stamped BFS visit marks and component scratch. A merged pass
    // stamps `ent_mark` with an epoch of its own: "frozen this pass".
    res_mark: Vec<u32>,
    ent_mark: Vec<u32>,
    epoch: u32,
    comp_entries: Vec<u32>,
    comp_res: Vec<u32>,
    // ---- freeze log of the last full pass (module docs, "Merge replay") ----
    log_rounds: Vec<LogRound>,
    log_entries: Vec<u32>,
    /// The log a pass merges, swapped in from `log_*` at its start.
    prev_rounds: Vec<LogRound>,
    prev_entries: Vec<u32>,
    /// The log describes a full pass over the entry set as it stood then,
    /// and `taint_res` covers every change since.
    log_valid: bool,
    /// Tainted resources: flagged in `taint_mark`, listed once each in
    /// `taint_res`. Between passes, the resources perturbed since the
    /// logged pass (meaningful only while `log_valid`); during a merge,
    /// also every resource it reached.
    taint_mark: Vec<bool>,
    taint_res: Vec<u32>,
    /// Per merged round: head of its subscription list in `subs`.
    sub_head: Vec<u32>,
    subs: Vec<Sub>,
    /// Materialisation scratch: `(new round, weight)` to catch up on.
    catch_up: Vec<(u32, u32)>,
}

/// The pool a pass over `entries` entries runs on: none unless the pool
/// has several threads and the pass is big enough to amortise them.
fn pass_pool(pool: Option<&WorkerPool>, entries: usize) -> Option<&WorkerPool> {
    pool.filter(|p| p.threads() > 1 && entries >= PARALLEL_MIN_ENTRIES)
}

/// Replace the lazy heap by every resource of `touched` with a live count,
/// at its current clamped share and version 0 (heapified in place: O(n),
/// where n pushes would cost O(n log n)).
fn heapify_frontier(
    heap: &mut BinaryHeap<HeapEntry>,
    touched: &[u32],
    remaining: &[f64],
    count: &[u32],
) {
    let mut frontier = std::mem::take(heap).into_vec();
    frontier.clear();
    frontier.extend(
        touched
            .iter()
            .filter(|&&r| count[r as usize] > 0)
            .map(|&r| HeapEntry {
                share: (remaining[r as usize] / count[r as usize] as f64).max(0.0),
                resource: r,
                version: 0,
            }),
    );
    *heap = BinaryHeap::from(frontier);
}

/// Push resource `r` onto the lazy heap at its current clamped share,
/// invalidating any entry it already has there.
#[inline]
fn rekey(
    heap: &mut BinaryHeap<HeapEntry>,
    version: &mut [u32],
    remaining: &[f64],
    count: &[u32],
    r: u32,
) {
    let ri = r as usize;
    version[ri] += 1;
    heap.push(HeapEntry {
        share: (remaining[ri] / count[ri] as f64).max(0.0),
        resource: r,
        version: version[ri],
    });
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
            version: vec![0; r],
            touched_index: vec![0; r],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            iterations: 0,
            rate_recomputes: 0,
            full_recomputes: 0,
            flows_coalesced: 0,
            parallel_passes: 0,
            replayed_rounds: 0,
            materialised_resources: 0,
            last_pass_entries: 0,
            last_pass_full: false,
            ent_path: Vec::new(),
            ent_weight: Vec::new(),
            ent_solved: Vec::new(),
            ent_rate: Vec::new(),
            ent_round: Vec::new(),
            free_ents: Vec::new(),
            live_entries: 0,
            constrained_weight: 0,
            changed: Vec::new(),
            ent_changed: Vec::new(),
            entry_of_path: Vec::new(),
            res_entries: vec![Vec::new(); r],
            dirty_res: Vec::new(),
            unlink_res: Vec::new(),
            pending_full: false,
            res_mark: vec![0; r],
            ent_mark: Vec::new(),
            epoch: 0,
            comp_entries: Vec::new(),
            comp_res: Vec::new(),
            log_rounds: Vec::new(),
            log_entries: Vec::new(),
            prev_rounds: Vec::new(),
            prev_entries: Vec::new(),
            log_valid: false,
            taint_mark: vec![false; r],
            taint_res: Vec::new(),
            sub_head: Vec::new(),
            subs: Vec::new(),
            catch_up: Vec::new(),
        })
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.capacity.len()
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
        self.invalidate_all();
        self.recompute(&table, 0.0);
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
        self.ent_mark[ei] = 0;
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

    /// Start a fresh generation of the BFS / unlink visit marks.
    fn bump_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.res_mark.iter_mut().for_each(|m| *m = 0);
            self.ent_mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Reconcile the incidence lists, the coalescing index and `dirty_res`
    /// with every weight change since the last recompute (module docs,
    /// "Deferred settle"). An entry back at its settled weight costs one
    /// comparison; any other dirties the resources of its path, is linked
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
            dirty_res,
            unlink_res,
            constrained_weight,
            ..
        } = self;
        for e in changed.drain(..) {
            let ei = e as usize;
            ent_changed[ei] = false;
            let (weight, solved) = (ent_weight[ei], ent_solved[ei]);
            if weight != solved {
                let path = paths.get(ent_path[ei]);
                if !path.is_empty() {
                    *constrained_weight = *constrained_weight + weight as u64 - solved as u64;
                }
                dirty_res.extend_from_slice(path);
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
                // now, as its path is dirtied; one inserted and removed
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

    /// Degrade the next [`MaxMinSolver::recompute`] to a full pass over
    /// every live entry. Coalesced groups survive (their path identity is
    /// unchanged); callers rerouting flows must `remove_entry` +
    /// `insert_entry` them individually.
    pub fn invalidate_all(&mut self) {
        self.pending_full = true;
    }

    /// Recompute the rates of every entry affected by inserts/removals
    /// since the last call. Only the connected component(s) of the sharing
    /// graph reached from the changed resources are re-solved — unless the
    /// region exceeds `full_threshold` (a fraction of the live entries,
    /// `0.0..=1.0`; `0.0` forces a full pass whenever anything changed) or
    /// [`MaxMinSolver::invalidate_all`] was called, which fall back to a
    /// full pass. Rates are bit-identical to textbook progressive filling
    /// over the same flow multiset either way. `paths` must be the table
    /// every inserted [`PathId`] came from.
    pub fn recompute(&mut self, paths: &PathTable, full_threshold: f64) {
        self.recompute_with(paths, full_threshold, None);
    }

    /// [`MaxMinSolver::recompute`] with an optional worker pool: passes
    /// whose entry count reaches the parallel threshold run the
    /// round-based parallel water-fill (see the module docs), which is
    /// bit-identical to the sequential heap at every thread count.
    pub fn recompute_with(
        &mut self,
        paths: &PathTable,
        full_threshold: f64,
        pool: Option<&WorkerPool>,
    ) {
        self.last_pass_entries = 0;
        self.last_pass_full = false;
        self.settle(paths);
        if self.pending_full {
            // The dirty set is dropped unseen, so the log can no longer be
            // checked against it: this pass runs from scratch and re-logs.
            self.pending_full = false;
            self.dirty_res.clear();
            self.log_valid = false;
            self.full_pass(paths, pool);
            return;
        }
        if self.dirty_res.is_empty() {
            return; // no net change: every entry rate is still current
        }
        // BFS closure of the dirty resources over the sharing graph:
        // resources -> entries crossing them -> those entries' resources.
        let epoch = self.bump_epoch();
        self.comp_entries.clear();
        self.comp_res.clear();
        // Past this many entries the dirty region is no cheaper than a
        // full pass — stop expanding the closure as soon as it is crossed
        // instead of walking the rest of a (possibly giant) component.
        let limit = (full_threshold * self.live_entries as f64) as usize;
        let mut oversized = false;
        {
            let MaxMinSolver {
                res_entries,
                ent_path,
                res_mark,
                ent_mark,
                dirty_res,
                comp_entries,
                comp_res,
                log_valid,
                taint_mark,
                taint_res,
                ..
            } = self;
            for &r in dirty_res.iter() {
                let ri = r as usize;
                if res_mark[ri] != epoch {
                    res_mark[ri] = epoch;
                    comp_res.push(r);
                    if *log_valid && !taint_mark[ri] {
                        taint_mark[ri] = true;
                        taint_res.push(r);
                    }
                }
            }
            dirty_res.clear();
            let mut cur = 0;
            while cur < comp_res.len() && !oversized {
                let r = comp_res[cur] as usize;
                cur += 1;
                for &e in &res_entries[r] {
                    let ei = e as usize;
                    if ent_mark[ei] == epoch {
                        continue;
                    }
                    ent_mark[ei] = epoch;
                    comp_entries.push(e);
                    if comp_entries.len() > limit {
                        oversized = true;
                        break;
                    }
                    for &r2 in paths.get(ent_path[ei]) {
                        let r2i = r2 as usize;
                        if res_mark[r2i] != epoch {
                            res_mark[r2i] = epoch;
                            comp_res.push(r2);
                        }
                    }
                }
            }
        }
        if self.comp_entries.is_empty() {
            return; // pure departures: nothing left in the dirty region
        }
        if oversized {
            self.full_pass(paths, pool);
        } else {
            self.waterfill(paths, pool);
        }
    }

    /// Run a full pass over every live entry: merged with the log of the
    /// previous full pass when that log is valid and the pass stays on the
    /// heap, from scratch otherwise.
    fn full_pass(&mut self, paths: &PathTable, pool: Option<&WorkerPool>) {
        // Called after a settle: every allocated slot is linked and live.
        let live = self.ent_path.len() - self.free_ents.len();
        if live == 0 {
            return;
        }
        self.full_recomputes += 1;
        self.last_pass_full = true;
        if self.log_valid && pass_pool(pool, live).is_none() {
            self.merge_pass(paths, live);
        } else {
            self.comp_entries.clear();
            for (e, &p) in self.ent_path.iter().enumerate() {
                if p != FREE {
                    self.comp_entries.push(e as u32);
                }
            }
            self.waterfill(paths, pool);
        }
    }

    /// Forget the per-resource fill state of the previous pass: every
    /// resource outside `touched` has a zero `count` and `version`.
    fn reset_scratch(&mut self) {
        for &r in &self.touched {
            self.count[r as usize] = 0;
            self.version[r as usize] = 0;
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// Reset the per-resource scratch and run pass 1 over `comp_entries`:
    /// weighted flow counts per resource, `remaining = capacity`, every
    /// constrained entry unfrozen. Returns `(total weight, weight already
    /// frozen)` — unconstrained entries are rated `INFINITY` on the spot.
    fn begin_pass(&mut self, paths: &PathTable) -> (u64, u64) {
        self.reset_scratch();
        let MaxMinSolver {
            capacity,
            remaining,
            count,
            touched,
            ent_path,
            ent_weight,
            ent_rate,
            comp_entries,
            ..
        } = self;
        let (mut total_weight, mut frozen) = (0u64, 0u64);
        for &e in comp_entries.iter() {
            let ei = e as usize;
            let w = ent_weight[ei];
            total_weight += w as u64;
            let path = paths.get(ent_path[ei]);
            if path.is_empty() {
                ent_rate[ei] = f64::INFINITY;
                frozen += w as u64;
                continue;
            }
            ent_rate[ei] = -1.0;
            for &r in path {
                let ri = r as usize;
                if count[ri] == 0 {
                    touched.push(r);
                    remaining[ri] = capacity[ri];
                }
                count[ri] += w;
            }
        }
        debug_assert!(
            !self.last_pass_full || total_weight - frozen == self.constrained_weight,
            "constrained_weight tracks the weight a full pass freezes"
        );
        (total_weight, frozen)
    }

    /// Water-fill the entries listed in `comp_entries`, writing their
    /// rates: the heap freeze loop over the persistent `res_entries`
    /// incidence. Weighted entries subtract their share once per unit of
    /// weight so the floating-point trajectory matches that many separate
    /// flows bit-for-bit.
    ///
    /// A full pass run here (no valid log to merge) logs its freeze order
    /// for the next one; a component-local pass leaves the log and the
    /// taint set alone (module docs, "Merge replay").
    ///
    /// With a multi-thread `pool` and at least [`PARALLEL_MIN_ENTRIES`]
    /// entries, the pass runs the round-based parallel formulation
    /// ([`MaxMinSolver::waterfill_rounds`]) instead of the heap loop; both
    /// produce bit-identical rates and iteration counts.
    fn waterfill(&mut self, paths: &PathTable, pool: Option<&WorkerPool>) {
        self.rate_recomputes += 1;
        self.last_pass_entries = self.comp_entries.len() as u64;
        let (total_weight, mut frozen) = self.begin_pass(paths);

        if let Some(pool) = pass_pool(pool, self.comp_entries.len()) {
            self.parallel_passes += 1;
            self.log_valid = false; // the rounds keep no log
            self.waterfill_rounds(paths, pool, total_weight, frozen);
            return;
        }

        let full = self.last_pass_full;
        if full {
            self.log_rounds.clear();
            self.log_entries.clear();
        }
        let MaxMinSolver {
            remaining,
            count,
            version,
            touched,
            heap,
            iterations,
            ent_path,
            ent_weight,
            ent_rate,
            ent_round,
            res_entries,
            log_rounds,
            log_entries,
            log_valid,
            taint_mark,
            taint_res,
            ..
        } = self;

        heapify_frontier(heap, touched, remaining, count);

        // Progressive filling over the component's entries. Resources in
        // `touched` only host entries from `comp_entries` (BFS closure), so
        // the loop never sees a stale outside rate.
        while frozen < total_weight {
            let Some(entry) = heap.pop() else {
                break; // numerically everything frozen
            };
            let r = entry.resource as usize;
            if entry.version != version[r] || count[r] == 0 {
                continue; // stale
            }
            let share = entry.share;
            *iterations += 1;
            let round = log_rounds.len() as u32;
            let mut round_weight = 0u64;
            for &e in &res_entries[r] {
                let ei = e as usize;
                if ent_rate[ei] >= 0.0 {
                    continue; // already frozen by an earlier bottleneck
                }
                ent_rate[ei] = share;
                let w = ent_weight[ei];
                frozen += w as u64;
                if full {
                    ent_round[ei] = round;
                    log_entries.push(e);
                    round_weight += w as u64;
                }
                for &r2 in paths.get(ent_path[ei]) {
                    let r2i = r2 as usize;
                    count[r2i] -= w;
                    for _ in 0..w {
                        remaining[r2i] -= share;
                    }
                    if r2i != r && count[r2i] > 0 {
                        rekey(heap, version, remaining, count, r2);
                    }
                }
            }
            debug_assert_eq!(count[r], 0, "bottleneck must fully drain");
            version[r] += 1;
            if full {
                log_rounds.push(LogRound {
                    share,
                    weight: round_weight,
                    bottleneck: entry.resource,
                    end: log_entries.len() as u32,
                });
            }
        }

        if full {
            *log_valid = true;
            for r in taint_res.drain(..) {
                taint_mark[r as usize] = false;
            }
        }
    }

    /// A full pass of `live` entries merged with the freeze log of the
    /// previous full pass (module docs, "Merge replay"). Only tainted
    /// resources get fill state, materialised when first tainted; a
    /// replayed round writes its entries' rates and applies its share to
    /// the resources subscribed to it, and walks no path.
    fn merge_pass(&mut self, paths: &PathTable, live: usize) {
        self.rate_recomputes += 1;
        self.last_pass_entries = live as u64;
        // `ent_mark == stamp`: frozen this pass. `ent_round` then indexes
        // the new log, and the old one for every other entry.
        let stamp = self.bump_epoch();
        self.reset_scratch();
        std::mem::swap(&mut self.log_rounds, &mut self.prev_rounds);
        std::mem::swap(&mut self.log_entries, &mut self.prev_entries);
        self.log_rounds.clear();
        self.log_entries.clear();
        self.subs.clear();
        self.sub_head.clear();
        self.sub_head.resize(self.prev_rounds.len(), NO_SUB);
        for i in 0..self.taint_res.len() {
            self.materialise(self.taint_res[i], 0, stamp);
        }
        heapify_frontier(&mut self.heap, &self.touched, &self.remaining, &self.count);

        let total_weight = self.constrained_weight;
        let mut frozen = 0u64;
        let (mut next, mut start) = (0usize, 0usize); // next logged round, its first entry
        while frozen < total_weight {
            while let Some(top) = self.heap.peek() {
                let r = top.resource as usize;
                if top.version == self.version[r] && self.count[r] > 0 {
                    break;
                }
                self.heap.pop(); // stale
            }
            let top = self.heap.peek().map(|h| (h.share, h.resource));
            let logged = self.prev_rounds.get(next).copied().filter(|round| {
                top.is_none_or(|t| pops_before((round.share, round.bottleneck), t))
            });
            if let Some(round) = logged {
                let (j, end) = (next, round.end as usize);
                next += 1;
                if self.taint_mark[round.bottleneck as usize] {
                    // Skipped: its entries freeze elsewhere, so taint every
                    // resource they would have subtracted from. Its
                    // subscriptions never fire.
                    for i in start..end {
                        let path = self.ent_path[self.prev_entries[i] as usize];
                        if path != FREE {
                            for &r in paths.get(path) {
                                if self.taint(r, next, stamp) {
                                    self.rekey(r);
                                }
                            }
                        }
                    }
                    start = end;
                    continue;
                }
                // Replayed: the textbook's next pop, applied as logged.
                self.iterations += 1;
                self.replayed_rounds += 1;
                let k = self.log_rounds.len() as u32;
                for &e in &self.prev_entries[start..end] {
                    let ei = e as usize;
                    debug_assert_ne!(self.ent_mark[ei], stamp, "a replayed entry is unfrozen");
                    self.ent_mark[ei] = stamp;
                    self.ent_rate[ei] = round.share;
                    self.ent_round[ei] = k;
                }
                frozen += round.weight;
                let mut s = self.sub_head[j];
                while s != NO_SUB {
                    let Sub { res, weight, next } = self.subs[s as usize];
                    let ri = res as usize;
                    self.count[ri] -= weight;
                    for _ in 0..weight {
                        self.remaining[ri] -= round.share;
                    }
                    if self.count[ri] > 0 {
                        self.rekey(res);
                    }
                    s = next;
                }
                self.log_entries
                    .extend_from_slice(&self.prev_entries[start..end]);
                self.log_rounds.push(LogRound {
                    end: self.log_entries.len() as u32,
                    ..round
                });
                start = end;
                continue;
            }

            // Heap pop: a textbook freeze round at the current share. It is
            // logged before it is filled, so a resource materialised during
            // the round can catch up on the entries frozen so far.
            let Some(entry) = self.heap.pop() else {
                break; // numerically everything frozen
            };
            let (r, share) = (entry.resource, entry.share);
            self.iterations += 1;
            let k = self.log_rounds.len();
            self.log_rounds.push(LogRound {
                share,
                weight: 0,
                bottleneck: r,
                end: 0,
            });
            let mut round_weight = 0u64;
            for i in 0..self.res_entries[r as usize].len() {
                let e = self.res_entries[r as usize][i];
                let ei = e as usize;
                if self.ent_mark[ei] == stamp {
                    continue; // already frozen by an earlier bottleneck
                }
                let w = self.ent_weight[ei];
                round_weight += w as u64;
                for &r2 in paths.get(self.ent_path[ei]) {
                    // Tainted while `e` is still unfrozen: a resource this
                    // materialises counts it, and then receives it here.
                    self.taint(r2, next, stamp);
                    let r2i = r2 as usize;
                    self.count[r2i] -= w;
                    for _ in 0..w {
                        self.remaining[r2i] -= share;
                    }
                    if r2 != r && self.count[r2i] > 0 {
                        self.rekey(r2);
                    }
                }
                self.ent_mark[ei] = stamp;
                self.ent_rate[ei] = share;
                self.ent_round[ei] = k as u32;
                self.log_entries.push(e);
            }
            debug_assert_eq!(self.count[r as usize], 0, "bottleneck must fully drain");
            self.version[r as usize] += 1;
            frozen += round_weight;
            self.log_rounds[k].weight = round_weight;
            self.log_rounds[k].end = self.log_entries.len() as u32;
        }

        self.log_valid = true;
        for r in self.taint_res.drain(..) {
            self.taint_mark[r as usize] = false;
        }
    }

    /// [`rekey`] on the solver's own heap and fill state.
    fn rekey(&mut self, r: u32) {
        rekey(
            &mut self.heap,
            &mut self.version,
            &self.remaining,
            &self.count,
            r,
        );
    }

    /// Taint `r` in the middle of a merge whose next logged round is
    /// `next`, materialising it if it was untainted. Returns whether it
    /// was materialised with a live count, for the caller to put on the
    /// heap.
    fn taint(&mut self, r: u32, next: usize, stamp: u32) -> bool {
        if std::mem::replace(&mut self.taint_mark[r as usize], true) {
            return false;
        }
        self.taint_res.push(r);
        self.materialise(r, next, stamp)
    }

    /// Give tainted resource `r` the fill state the textbook has for it
    /// before logged round `next` of the merge: `count` is the weight of
    /// its unfrozen entries, and `remaining` is `capacity` minus the shares
    /// of its frozen entries, subtracted in round order as the textbook
    /// subtracted them. Each unfrozen entry with a pending logged round
    /// subscribes `r` to it. Returns whether `r` has a live count, which
    /// the caller puts on the heap.
    fn materialise(&mut self, r: u32, next: usize, stamp: u32) -> bool {
        let ri = r as usize;
        self.materialised_resources += 1;
        self.touched.push(r);
        self.catch_up.clear();
        let mut count = 0;
        for &e in &self.res_entries[ri] {
            let ei = e as usize;
            let (w, round) = (self.ent_weight[ei], self.ent_round[ei]);
            if self.ent_mark[ei] == stamp {
                self.catch_up.push((round, w));
                continue;
            }
            count += w;
            // A round before `next` was skipped, as every replayed one
            // froze its entries: this entry freezes on the heap.
            if round != NO_ROUND && round as usize >= next {
                let head = &mut self.sub_head[round as usize];
                self.subs.push(Sub {
                    res: r,
                    weight: w,
                    next: *head,
                });
                *head = (self.subs.len() - 1) as u32;
            }
        }
        self.catch_up.sort_unstable_by_key(|&(round, _)| round);
        let mut remaining = self.capacity[ri];
        for &(round, w) in &self.catch_up {
            let share = self.log_rounds[round as usize].share;
            for _ in 0..w {
                remaining -= share;
            }
        }
        self.remaining[ri] = remaining;
        self.count[ri] = count;
        count > 0
    }

    /// Round-based parallel water-fill over the pass the caller already
    /// counted into `touched`/`remaining`/`count`. One round freezes
    /// exactly one bottleneck — the live resource with the minimal clamped
    /// share, ties to the smallest id — which is precisely what one valid
    /// heap pop of the sequential path does, so rates, `remaining`
    /// trajectories, and the `iterations` count are bit-identical at every
    /// thread count (module docs, "Parallel water-filling").
    fn waterfill_rounds(
        &mut self,
        paths: &PathTable,
        pool: &WorkerPool,
        total_weight: u64,
        mut frozen: u64,
    ) {
        let nthreads = pool.threads();
        let MaxMinSolver {
            remaining,
            count,
            touched_index,
            touched,
            iterations,
            ent_path,
            ent_weight,
            ent_rate,
            res_entries,
            ..
        } = self;
        // A resource's owning worker is its touched index mod the thread
        // count, so ownership is deterministic and covers every resource
        // this pass can touch.
        for (i, &r) in touched.iter().enumerate() {
            touched_index[r as usize] = i as u32;
        }
        // Per-worker live-resource worklists (static split of the
        // deterministic touched order); workers prune drained resources so
        // the scan stays proportional to the live set.
        let mut live: Vec<Vec<u32>> = vec![Vec::new(); nthreads];
        for (i, &r) in touched.iter().enumerate() {
            live[i % nthreads].push(r);
        }
        let mut mins: Vec<(f64, u32)> = vec![(f64::INFINITY, u32::MAX); nthreads];
        let mut round: Vec<u32> = Vec::new();

        while frozen < total_weight {
            // Phase 1: every worker scans (and prunes) its own live list
            // for the locally minimal (share, id). Reads only.
            {
                let live_slots = SharedSlice::new(&mut live[..]);
                let min_slots = SharedSlice::new(&mut mins[..]);
                let remaining: &[f64] = remaining;
                let count: &[u32] = count;
                pool.run(|w| {
                    // SAFETY: slot `w` belongs to this worker alone.
                    let list = unsafe { live_slots.get_mut(w) };
                    let mut best = (f64::INFINITY, u32::MAX);
                    list.retain(|&r| {
                        let ri = r as usize;
                        if count[ri] == 0 {
                            return false;
                        }
                        let share = (remaining[ri] / count[ri] as f64).max(0.0);
                        if pops_before((share, r), best) {
                            best = (share, r);
                        }
                        true
                    });
                    unsafe { *min_slots.get_mut(w) = best };
                });
            }
            let (mut share, mut bottleneck) = (f64::INFINITY, u32::MAX);
            for &(s, r) in &mins {
                if pops_before((s, r), (share, bottleneck)) {
                    share = s;
                    bottleneck = r;
                }
            }
            if bottleneck == u32::MAX {
                break; // numerically everything frozen
            }
            *iterations += 1;

            // Phase 2 (coordinator): freeze every unfrozen entry crossing
            // the bottleneck, in incidence order — the order the heap's
            // freeze loop uses.
            round.clear();
            for &e in &res_entries[bottleneck as usize] {
                let ei = e as usize;
                if ent_rate[ei] >= 0.0 {
                    continue; // already frozen by an earlier bottleneck
                }
                ent_rate[ei] = share;
                frozen += ent_weight[ei] as u64;
                round.push(e);
            }

            // Phase 3: subtract the frozen rates, sharded by resource
            // owner. Every subtraction this round uses the same `share`,
            // so each resource receives an identical sequence of f64
            // operations regardless of how entries interleave across
            // workers — and each owner still walks `round` in order.
            {
                let remaining = SharedSlice::new(&mut remaining[..]);
                let count = SharedSlice::new(&mut count[..]);
                let round: &[u32] = &round;
                let touched_index: &[u32] = touched_index;
                let ent_path: &[PathId] = ent_path;
                let ent_weight: &[u32] = ent_weight;
                pool.run(|worker| {
                    for &e in round {
                        let ei = e as usize;
                        let w = ent_weight[ei];
                        for &r2 in paths.get(ent_path[ei]) {
                            let r2i = r2 as usize;
                            if touched_index[r2i] as usize % nthreads != worker {
                                continue;
                            }
                            // SAFETY: resource r2 has exactly one owning
                            // worker, so these writes never race.
                            unsafe {
                                *count.get_mut(r2i) -= w;
                                let rem = remaining.get_mut(r2i);
                                for _ in 0..w {
                                    *rem -= share;
                                }
                            }
                        }
                    }
                });
            }
            debug_assert_eq!(count[bottleneck as usize], 0, "bottleneck must fully drain");
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

    /// The parallel round-based pass must match the sequential heap
    /// bit-for-bit — rates and iteration counts — on an entangled pass of
    /// weighted entries at several thread counts.
    #[test]
    fn parallel_waterfill_is_bit_identical_to_the_heap() {
        let caps: Vec<f64> = (0..96).map(|i| 1e9 + i as f64 * 3.7e7).collect();
        let mut paths: Vec<Vec<u32>> = Vec::new();
        let mut st = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..(PARALLEL_MIN_ENTRIES * 3) {
            let len = 1 + (xorshift(&mut st) % 4) as usize;
            let mut p: Vec<u32> = (0..len)
                .map(|_| (xorshift(&mut st) % caps.len() as u64) as u32)
                .collect();
            p.dedup();
            paths.push(p);
        }
        // Duplicate a slice of the paths so coalesced weights > 1 exist.
        for i in 0..40 {
            let p = paths[i * 3].clone();
            paths.push(p);
        }

        let mut table = PathTable::new();
        let mut seq = MaxMinSolver::new(caps.clone()).unwrap();
        let seq_ids: Vec<u32> = paths
            .iter()
            .map(|p| insert(&mut seq, &mut table, p))
            .collect();
        seq.recompute(&table, 0.5);
        assert_eq!(seq.parallel_passes, 0);

        for threads in [2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut par = MaxMinSolver::new(caps.clone()).unwrap();
            let par_ids: Vec<u32> = paths
                .iter()
                .map(|p| insert(&mut par, &mut table, p))
                .collect();
            par.recompute_with(&table, 0.5, Some(&pool));
            assert_eq!(par.parallel_passes, 1, "threads={threads}");
            assert_eq!(par.iterations, seq.iterations, "threads={threads}");
            for (s, p) in seq_ids.iter().zip(&par_ids) {
                assert_eq!(
                    seq.entry_rate(*s).to_bits(),
                    par.entry_rate(*p).to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    /// Below the entry threshold a pooled recompute must fall back to the
    /// sequential heap (no dispatch overhead for small dirty components).
    #[test]
    fn small_passes_stay_sequential_even_with_a_pool() {
        let pool = WorkerPool::new(4);
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![1e9; 8]).unwrap();
        for i in 0..4u32 {
            insert(&mut s, &mut table, &[i]);
        }
        s.recompute_with(&table, 0.5, Some(&pool));
        assert_eq!(s.parallel_passes, 0);
        assert!((s.entry_rate(0) - 1e9).abs() < 1.0);
    }

    /// A solver driven through the replaying path (threshold 0: every
    /// recompute that finds a change is a full pass), held after every
    /// recompute to textbook progressive filling over its live flows:
    /// bit-equal rates, and as many freeze rounds as the textbook counts.
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

        /// Recompute and check; returns the rounds the solver replayed.
        fn recompute(&mut self) -> u64 {
            let before = (self.fast.replayed_rounds, self.fast.iterations);
            self.fast.recompute(&self.table, 0.0);
            let paths: Vec<&[u32]> = self.live.iter().map(|(_, p)| p.as_slice()).collect();
            let (rates, rounds) = textbook_maxmin(&self.caps, &paths);
            if self.fast.last_pass_full {
                assert_eq!(self.fast.iterations - before.1, rounds);
            }
            for (&(e, _), want) in self.live.iter().zip(&rates) {
                assert_eq!(
                    self.fast.entry_rate(e).to_bits(),
                    want.to_bits(),
                    "entry {e}"
                );
            }
            self.fast.replayed_rounds - before.0
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
        assert_eq!(t.recompute(), 0, "nothing to replay on the first pass");
        assert_eq!(t.fast.iterations, 3);
        assert_eq!(t.fast.entry_rate(ids[3]), 25.0);
        (t, ids)
    }

    #[test]
    fn removing_the_fastest_entry_replays_every_round_but_the_last() {
        let (mut t, ids) = chain();
        t.remove(ids[3]);
        assert_eq!(t.recompute(), 2);
        // The drained last bottleneck leaves no tail at all.
        assert_eq!(t.fast.iterations, 5);
        assert_eq!(t.fast.full_recomputes, 2);
        assert!(t.fast.last_pass_full);
        assert_eq!(t.fast.last_pass_entries, 3);
    }

    /// Bottlenecks of the current log, in pop order.
    fn logged_bottlenecks(s: &MaxMinSolver) -> Vec<u32> {
        s.log_rounds.iter().map(|r| r.bottleneck).collect()
    }

    #[test]
    fn an_insert_undercutting_the_first_bottleneck_replays_every_old_round() {
        let (mut t, _) = chain();
        // Capacity 1 < the first logged share of 5: the heap pops r3 ahead
        // of the log, and no old round crosses r3.
        let e = t.insert(&[3]);
        assert_eq!(t.recompute(), 3);
        assert_eq!(t.fast.entry_rate(e), 1.0);
        assert_eq!(logged_bottlenecks(&t.fast), [3, 0, 1, 2]);
        // A third flow on r2 (40 / 3 < 15) pops r2 from the heap ahead of
        // r1's round and freezes C there, which taints r1: the rounds of
        // r3 and r0 replay, those of r1 and r2 are skipped.
        t.insert(&[2]);
        assert_eq!(t.recompute(), 2);
        assert_eq!(logged_bottlenecks(&t.fast), [3, 0, 2]);
    }

    #[test]
    fn a_perturbed_tie_pops_ahead_of_the_logged_round_only_from_a_lower_id() {
        // Logged round: (5, r1). A perturbed resource also at share 5
        // pops first iff its id is lower; the logged round replays either
        // way.
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
        // (10, r0) and (30, r2) replay; the heap pops r1 and r3 at 20 =
        // 40 / 2 in between, and the stale round of r3 is skipped.
        assert_eq!(t.recompute(), 2);
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1, 3, 2]);
        assert_eq!(t.fast.entry_rate(b), 20.0);
    }

    #[test]
    fn a_component_pass_keeps_the_log_and_only_an_invalidation_discards_it() {
        // Three independent pairs, one weight-2 entry each: rounds (5, r0),
        // (10, r1), (15, r2).
        let setup = || {
            let mut s = MaxMinSolver::new(vec![10.0, 20.0, 30.0]).unwrap();
            let mut table = PathTable::new();
            let ids: Vec<u32> = [[0u32], [0], [1], [1], [2], [2]]
                .iter()
                .map(|p| insert(&mut s, &mut table, p))
                .collect();
            s.recompute(&table, 0.0);
            assert!(s.last_pass_full);
            (s, table, ids)
        };
        // Control: two full passes back to back replay every round but
        // the one the change reached.
        let (mut s, table, ids) = setup();
        s.remove_entry(ids[4]);
        s.recompute(&table, 0.0);
        assert_eq!(s.replayed_rounds, 2);

        // A component-local pass in between (threshold 1.0 never degrades)
        // leaves its dirty r0 tainted: the full pass after it skips the
        // rounds of r0 and r2 and still replays (10, r1), after the heap
        // pops r0 at the same share on the lower id.
        let (mut s, table, ids) = setup();
        s.remove_entry(ids[0]);
        s.recompute(&table, 1.0);
        assert!(!s.last_pass_full);
        assert_eq!(s.entry_rate(ids[1]), 10.0);
        s.remove_entry(ids[4]);
        s.recompute(&table, 0.0);
        assert!(s.last_pass_full);
        assert_eq!(s.replayed_rounds, 1);
        assert_eq!(logged_bottlenecks(&s), [0, 1, 2]);
        assert_eq!(s.entry_rate(ids[1]), 10.0);
        assert_eq!(s.entry_rate(ids[3]), 10.0);
        assert_eq!(s.entry_rate(ids[5]), 30.0);

        // Fault churn: the dirty set is dropped, so the log goes with it.
        let (mut s, table, ids) = setup();
        s.invalidate_all();
        s.remove_entry(ids[4]);
        s.recompute(&table, 0.0);
        assert_eq!(s.replayed_rounds, 0);
        // ...and the pass it forced left a log like any other: (5, r0) and
        // (30, r2) replay around the change on r1.
        s.remove_entry(ids[2]);
        s.recompute(&table, 0.0);
        assert_eq!(s.replayed_rounds, 2);
    }

    /// Two disjoint chains interleave in the log: rounds (5, r0), (6, r3),
    /// (15, r1), (18, r4), (25, r2), (30, r5). An insert undercutting the
    /// first round reaches chain A only, and every round of chain B
    /// replays; a replay that stops at the first perturbed round would
    /// replay none of them.
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
        assert_eq!(t.recompute(), 3);
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
        assert_eq!(t.recompute(), 0);
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
        assert_eq!(t.recompute(), 0);
        assert_eq!((t.fast.entry_rate(e), t.fast.entry_rate(z)), (4.0, 6.0));
    }

    /// Old rounds (0.1, r0, [A]), (0.2, r1, [B]), (0.3, r2, [D, E]),
    /// (0.4, r3, [C]), with A = [0, 3], B = [1, 3], D = [2, 3]. E leaves:
    /// the first two rounds replay without touching r3, the skipped round
    /// of r2 materialises r3 mid-pass, and r3 must catch up on A and B in
    /// round order — (1 - 0.1) - 0.2 = 0.7, while (1 - 0.2) - 0.1 =
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
    /// and freezes e there; the logged round of r0 is then skipped, and
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
        assert_eq!(t.recompute(), 0);
        assert!(t.fast.subs.iter().any(|s| s.res == 1 && s.weight == 1));
        assert_eq!(logged_bottlenecks(&t.fast), [0, 1]);
        let rest = (40.0 - t.fast.entry_rate(e)) / 2.0;
        assert_eq!((t.fast.entry_rate(c), t.fast.entry_rate(f)), (rest, rest));
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
        s.recompute(&table, 0.5);
        let before = (s.rate_recomputes, s.iterations, s.entry_rate(a).to_bits());
        assert_eq!(f64::from_bits(before.2), 4.0);

        s.remove_entry(a);
        assert_eq!(s.live_entries(), 1, "counts weight > 0 at call time");
        assert_eq!(insert(&mut s, &mut table, &[0, 1]), a);
        assert_eq!(s.flows_coalesced, 0, "a resurrection is not a join");
        s.recompute(&table, 0.5);
        assert_eq!(
            (s.rate_recomputes, s.iterations, s.entry_rate(a).to_bits()),
            before
        );
        assert_eq!((s.last_pass_entries, s.last_pass_full), (0, false));
        assert_eq!(s.entry_rate(b), 5.0);

        // A forced full pass settles the same way and still runs its pass.
        s.remove_entry(a);
        assert_eq!(insert(&mut s, &mut table, &[0, 1]), a);
        s.invalidate_all();
        s.recompute(&table, 0.5);
        assert_eq!(s.rate_recomputes, before.0 + 1);
        assert_eq!(s.entry_rate(a).to_bits(), before.2);
    }

    #[test]
    fn a_net_change_through_zero_is_dirty() {
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![12.0]).unwrap();
        let a = insert(&mut s, &mut table, &[0]);
        s.recompute(&table, 0.5);
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
        s.recompute(&table, 0.5);
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
        s.recompute(&table, 0.5);
        let gone = insert(&mut s, &mut table, &[0, 1]);
        s.remove_entry(gone);
        assert_eq!(s.live_entries(), 1);
        s.recompute(&table, 0.5);
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
        s.recompute(&table, 0.5);
        assert_eq!(s.live_entries(), 0);
        assert!(incidence_is_empty(&s));
        assert_eq!(s.rate_recomputes, 0);
    }

    #[test]
    fn a_forced_full_pass_settles_first() {
        let mut table = PathTable::new();
        let mut s = MaxMinSolver::new(vec![8.0, 8.0]).unwrap();
        let a = insert(&mut s, &mut table, &[0, 1]);
        let b = insert(&mut s, &mut table, &[1]);
        s.recompute(&table, 0.5);
        assert_eq!(s.entry_rate(b), 4.0);
        s.remove_entry(a);
        s.invalidate_all();
        s.recompute(&table, 0.5);
        assert!(s.last_pass_full);
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
        s.recompute(&table, 0.5);
        s.remove_entry(e);
        assert_eq!(insert(&mut s, &mut table, &[]), e);
        s.recompute(&table, 0.5);
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
        s.recompute(&table, 0.5);
        assert_eq!(s.res_entries[0].len(), N as usize);
        let survivor = ids[17];
        for &e in &ids {
            if e != survivor {
                s.remove_entry(e);
            }
        }
        s.recompute(&table, 0.5);
        assert_eq!(s.res_entries[0], vec![survivor]);
        assert_eq!(s.entry_rate(survivor), 1e9);
        s.remove_entry(survivor);
        s.recompute(&table, 0.5);
        assert_eq!(s.live_entries(), 0);
        assert!(incidence_is_empty(&s));
    }

    /// The workload the replay exists for: one giant component, the fastest
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
        let first_pass = t.fast.iterations;
        for _ in 0..200 {
            let e = t.max_rate_entry();
            t.remove(e);
            t.recompute();
        }
        let later = t.fast.iterations - first_pass;
        assert!(
            t.fast.replayed_rounds * 10 >= later * 9,
            "replayed {} of {later} rounds",
            t.fast.replayed_rounds
        );
    }

    /// The workload the merge exists for: departures of any rate and
    /// arrivals anywhere, so changes land all along the freeze order. 512
    /// ring arcs of 2–6 consecutive resources over 256; each step retires a
    /// random flow and admits a random arc. The merge replays 93 % of the
    /// later rounds; a replay that stops at the first perturbed round
    /// took 24 %. Each merged pass materialises ~21 resources of the ~256
    /// a walk over every live entry touches. Counts, not times, so it
    /// cannot flake.
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
        let first_pass = t.fast.iterations;
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
        assert!(
            t.fast.replayed_rounds * 100 >= later * 85,
            "replayed {} of {later} rounds",
            t.fast.replayed_rounds
        );
        // Work guard: the merged passes build fill state for about one
        // resource in twelve; walking the bulk would make it every one.
        assert_eq!(t.fast.full_recomputes, 301, "every later pass merged");
        assert!(
            t.fast.materialised_resources * 8 <= touched,
            "materialised {} of {touched} resources",
            t.fast.materialised_resources
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
