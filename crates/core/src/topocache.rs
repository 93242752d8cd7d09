//! Content-addressed topology cache shared across campaign workers.
//!
//! Campaigns are "many workloads × few topologies": a sweep or resilience
//! grid runs dozens of entries against the same [`TopologySpec`], yet each
//! [`run_experiment`](crate::run_experiment) call would rebuild the
//! topology from scratch. [`TopoCache`] builds each distinct spec once
//! and hands out the result as an immutable `Arc<dyn Topology>` to every
//! worker thread that needs it.
//!
//! Three design points, in order:
//!
//! 1. **Content addressing.** Keys are the canonical-JSON fingerprint
//!    ([`fingerprint_value`]) of the *normalised* spec — the same hash the
//!    campaign journal uses — so the key survives serde round-trips and
//!    key-order permutations, and specs that build the same graph under
//!    different spellings (a fattree with `endpoints: Some(k^n)` vs
//!    `endpoints: None`) share one entry.
//! 2. **Kept only while an entry still needs it.** A suite dispatches its
//!    entries grouped by cache key and calls [`TopoCache::release`] when
//!    the last entry of a key finishes, so the built topology drops once no
//!    worker holds it. Each distinct spec is still built once per attempt
//!    round, and at most one spec per worker plus the one being dispatched
//!    is resident at a time ([`TopoCacheStats::peak_entries`]): one for a
//!    serial suite, whatever the number of distinct specs in its input. A
//!    resilience campaign runs one spec.
//! 3. **Single-flight builds.** Each key owns a build slot (`OnceLock`);
//!    the first worker to want a spec builds it while later arrivals block
//!    on that slot rather than duplicating the work or serialising every
//!    build behind one global lock. The topology wires its network on first
//!    use inside a `OnceLock` of its own, so workers sharing an entry share
//!    one wiring as well.
//!
//! It is a *build* cache and nothing more: an entry is exactly what
//! [`TopologySpec::build`] returns. Routes are not stored — every topology
//! here routes by O(hops) arithmetic, and `(src, dst)` → path memoisation
//! belongs to the engine's per-run route memo, which lives for one failure
//! epoch and serves nominal routes and detours alike.
//!
//! Topologies are immutable once built and routing is a pure function of
//! `(src, dst)`, so a run on a shared entry is the run on a fresh build:
//! `tests/topo_cache_equiv.rs` compares cached suites and campaigns with a
//! direct [`run_experiment`](crate::run_experiment) per entry, reports
//! and traces alike. The only trace of the cache is [`TopoCacheStats`],
//! which never enters report JSON.

use crate::error::ExperimentError;
use crate::journal::fingerprint_value;
use crate::topospec::TopologySpec;
use exaflow_topo::Topology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A finished build slot: the built topology, or the typed error the spec
/// produced. Errors are cached too — `build` is a pure function of the
/// spec, so a failing spec fails identically every time and re-running it
/// per entry would only burn time producing the same message.
type Built = Result<Arc<dyn Topology>, ExperimentError>;

/// One single-flight build slot. The first worker to claim a key runs the
/// build inside `OnceLock::get_or_init`; concurrent claimants block on the
/// slot (not on the cache-wide lock) until the value is ready.
type Slot = Arc<OnceLock<Built>>;

/// Counters describing what a [`TopoCache`] did over its lifetime.
///
/// Surfaced on the in-memory `SuiteReport` and the CLI stderr summary
/// only — deliberately **never** serialized into report JSON, which must
/// not depend on which entry paid for a build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopoCacheStats {
    /// Lookups served from an existing slot (the builder may still have
    /// been in flight; the point is the work was not duplicated).
    pub hits: u64,
    /// Lookups that created a new slot and built the topology.
    pub misses: u64,
    /// Always 0. The frozen `benchmark/src/main.rs` reads it; goes with the next `benchmark` PR.
    pub tables_built: u64,
    /// Most entries resident at once over the cache's lifetime.
    pub peak_entries: u64,
}

/// Slot map and counters, guarded by the cache-wide mutex. Only slot
/// *lookup/insertion* happens under this lock; topology builds run on the
/// claiming worker's thread with the lock released.
#[derive(Default)]
struct CacheState {
    slots: HashMap<String, Slot>,
    hits: u64,
    misses: u64,
    peak_entries: u64,
}

/// Thread-safe cache of built topologies, keyed by [`topology_cache_key`].
pub struct TopoCache {
    state: Mutex<CacheState>,
}

impl TopoCache {
    /// Ignored by [`new`](Self::new), like any cap. The frozen
    /// `benchmark/src/trace.rs` names it; goes with the next `benchmark` PR,
    /// which leaves `new` without an argument.
    pub const DEFAULT_CAP: usize = 64;

    /// An empty cache. `_cap` is ignored: an entry stays until its owner
    /// [releases](Self::release) it.
    pub fn new(_cap: usize) -> TopoCache {
        TopoCache {
            state: Mutex::default(),
        }
    }

    /// The built topology for `spec`, building it on the first request
    /// only. The `bool` is `true` when the slot already existed (another
    /// entry paid for the build).
    pub fn get_or_build(
        &self,
        spec: &TopologySpec,
    ) -> Result<(Arc<dyn Topology>, bool), ExperimentError> {
        let key = topology_cache_key(spec);
        let (slot, hit) = {
            let mut state = self.state.lock().expect("topology cache lock poisoned");
            let state = &mut *state;
            match state.slots.get(&key) {
                Some(slot) => {
                    state.hits += 1;
                    (slot.clone(), true)
                }
                None => {
                    state.misses += 1;
                    let slot: Slot = Arc::default();
                    state.slots.insert(key, slot.clone());
                    state.peak_entries = state.peak_entries.max(state.slots.len() as u64);
                    (slot, false)
                }
            }
        };
        let built = slot.get_or_init(|| spec.build().map(Arc::from));
        built.clone().map(|topo| (topo, hit))
    }

    /// Drop the entry under `key` (a [`topology_cache_key`]), if any. The
    /// built topology is freed once the last worker holding it lets go; a
    /// later request for the spec builds it afresh and counts as a miss.
    pub fn release(&self, key: &str) {
        let slot = self
            .state
            .lock()
            .expect("topology cache lock poisoned")
            .slots
            .remove(key);
        // Dropped here, with the cache-wide lock released.
        drop(slot);
    }

    /// Lifetime counters (see [`TopoCacheStats`] for field semantics).
    pub fn stats(&self) -> TopoCacheStats {
        let state = self.state.lock().expect("topology cache lock poisoned");
        TopoCacheStats {
            hits: state.hits,
            misses: state.misses,
            tables_built: 0,
            peak_entries: state.peak_entries,
        }
    }
}

/// The cache key for `spec`: the canonical-JSON fingerprint of its
/// *normalised* form.
///
/// Normalisation strips spellings that do not affect the built graph — a
/// fattree or GHC asking for exactly its full endpoint population is the
/// same graph as one that leaves `endpoints` unset — so such specs share a
/// cache entry. Canonical JSON (recursively sorted keys) makes the key
/// insensitive to serde key order, mirroring the journal fingerprint.
pub fn topology_cache_key(spec: &TopologySpec) -> String {
    let value =
        serde_json::to_value(&normalize(spec)).expect("topology spec serialization is infallible");
    fingerprint_value(&value)
}

/// Rewrite `spec` into its canonical spelling: `endpoints: Some(full)`
/// becomes `endpoints: None` for the partially-populatable families.
/// Overflowing parameter combinations are left untouched — they fail in
/// `build` with a typed error either way.
fn normalize(spec: &TopologySpec) -> TopologySpec {
    let mut spec = spec.clone();
    match &mut spec {
        TopologySpec::Fattree { k, n, endpoints } => {
            let full = (*k as usize).checked_pow(*n);
            if endpoints.is_some() && *endpoints == full {
                *endpoints = None;
            }
        }
        TopologySpec::Ghc {
            dims,
            ports_per_router,
            endpoints,
        } => {
            let full = dims
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d as usize))
                .and_then(|routers| routers.checked_mul(*ports_per_router as usize));
            if endpoints.is_some() && *endpoints == full {
                *endpoints = None;
            }
        }
        _ => {}
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaflow_netgraph::NodeId;

    fn torus(d: u32) -> TopologySpec {
        TopologySpec::Torus { dims: vec![d, d] }
    }

    #[test]
    fn builds_once_and_counts_hits() {
        let cache = TopoCache::new(8);
        let (a, hit_a) = cache.get_or_build(&torus(4)).unwrap();
        let (b, hit_b) = cache.get_or_build(&torus(4)).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "same spec must share one build");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.peak_entries, 1);
    }

    #[test]
    fn released_specs_rebuild_as_misses() {
        let cache = TopoCache::new(8);
        let (a, _) = cache.get_or_build(&torus(4)).unwrap();
        cache.get_or_build(&torus(5)).unwrap();
        cache.release(&topology_cache_key(&torus(4)));
        cache.release(&topology_cache_key(&torus(4)));
        let (b, hit) = cache.get_or_build(&torus(4)).unwrap();
        assert!(!hit, "a released spec is built afresh");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(
            a.route_vec(NodeId(0), NodeId(5)),
            b.route_vec(NodeId(0), NodeId(5))
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.peak_entries), (0, 3, 2));
    }

    #[test]
    fn build_errors_are_returned_per_call() {
        let cache = TopoCache::new(8);
        let bad = TopologySpec::Torus { dims: vec![] };
        assert!(cache.get_or_build(&bad).is_err());
        assert!(cache.get_or_build(&bad).is_err());
        // The error slot is cached like any other entry.
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn cached_topology_routes_exactly_like_a_direct_build() {
        let spec = TopologySpec::Nested {
            upper: exaflow_topo::UpperTierKind::Fattree,
            subtori: 8,
            t: 2,
            u: 2,
        };
        let cache = TopoCache::new(8);
        let (cached, _) = cache.get_or_build(&spec).unwrap();
        let direct = spec.build().unwrap();
        assert_eq!(cached.num_endpoints(), 64);
        for src in (0..64).map(NodeId) {
            for dst in (0..64).map(NodeId) {
                assert_eq!(cached.route_vec(src, dst), direct.route_vec(src, dst));
            }
        }
        assert_eq!(cache.stats().tables_built, 0);
    }

    #[test]
    fn full_population_spellings_share_a_key() {
        let explicit = TopologySpec::Fattree {
            k: 4,
            n: 2,
            endpoints: Some(16),
        };
        let implicit = TopologySpec::Fattree {
            k: 4,
            n: 2,
            endpoints: None,
        };
        let partial = TopologySpec::Fattree {
            k: 4,
            n: 2,
            endpoints: Some(12),
        };
        assert_eq!(topology_cache_key(&explicit), topology_cache_key(&implicit));
        assert_ne!(topology_cache_key(&explicit), topology_cache_key(&partial));

        let ghc_full = TopologySpec::Ghc {
            dims: vec![4, 4],
            ports_per_router: 2,
            endpoints: Some(32),
        };
        let ghc_none = TopologySpec::Ghc {
            dims: vec![4, 4],
            ports_per_router: 2,
            endpoints: None,
        };
        assert_eq!(topology_cache_key(&ghc_full), topology_cache_key(&ghc_none));

        let cache = TopoCache::new(8);
        cache.get_or_build(&explicit).unwrap();
        let (_, hit) = cache.get_or_build(&implicit).unwrap();
        assert!(hit, "normalised spellings must share one cache entry");
    }

    #[test]
    fn concurrent_workers_build_each_spec_once() {
        let cache = TopoCache::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for d in [4u32, 5, 6] {
                        cache.get_or_build(&torus(d)).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 3, "one build per distinct spec");
        assert_eq!(stats.hits, 8 * 3 - 3);
    }
}
