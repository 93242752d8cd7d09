//! Parallel experiment suites: run a batch of [`ExperimentConfig`]s across
//! a scoped worker pool, isolate panics per experiment, and aggregate
//! engine statistics into a serializable [`SuiteReport`].
//!
//! The pool is built on [`std::thread::scope`] only — no external executor
//! — so suites work wherever the standard library does. Workers pull
//! experiment indices from a shared atomic counter (work stealing by
//! construction: a worker stuck on a slow experiment never blocks the
//! others), stream outcomes back over a channel the moment they complete,
//! and results are scattered back into **input order** no matter which
//! worker finished first.
//!
//! Three layers of robustness keep a long campaign alive:
//!
//! * Each experiment runs under [`std::panic::catch_unwind`]: a panicking
//!   configuration produces an `Err` entry for that experiment and leaves
//!   the rest of the suite untouched.
//! * A worker thread that dies outright (a panic escaping the isolation
//!   boundary) strands only the entry it was running: the stranded index
//!   becomes a typed [`ExperimentError::Panicked`] entry and the surviving
//!   workers finish the rest of the suite.
//! * [`attempts`](ExperimentSuite::attempts) re-runs transiently-failed
//!   entries (panics, wall-clock deadline overruns, see
//!   [`ExperimentError::is_transient`]) straight away; an entry that keeps
//!   failing is **quarantined** into the report as
//!   [`ExperimentError::Quarantined`] with its full attempt history
//!   instead of failing the campaign.
//!
//! Every run owns one [`TopoCache`], and each attempt round dispatches its
//! pending entries grouped by [`topology_cache_key`] — groups in order of
//! first appearance, input order inside a group. A spec is built once per
//! round, by the first worker that needs it, shared by the rest of its
//! group, and released when the group's last entry finishes: a serial
//! suite holds one topology at a time, a pool at most one per worker plus
//! the group being dispatched. (A resilience campaign's baseline and grid
//! suites share one `TopoCache::keeping` cache, so the campaign builds
//! its spec once.) Only the dispatch order changes; results, per-entry
//! wall times and journal records stay keyed by input index.
//!
//! [`run_journaled`](ExperimentSuite::run_journaled) additionally streams
//! every finalised outcome to an append-only JSONL journal (see
//! [`crate::journal`]) so a killed process can resume without redoing
//! completed work.
//!
//! ```
//! use exaflow::prelude::*;
//!
//! let scale = SystemScale::new(64).unwrap();
//! let configs: Vec<ExperimentConfig> = [scale.torus_spec(), scale.fattree_spec()]
//!     .into_iter()
//!     .map(|topology| ExperimentConfig {
//!         topology,
//!         workload: WorkloadSpec::AllReduce { tasks: 64, bytes: 1 << 20 },
//!         mapping: MappingSpec::Linear,
//!         sim: SimConfig::default(),
//!         failures: None,
//!         fault_injection: None,
//!     })
//!     .collect();
//! let run = ExperimentSuite::new(configs).threads(2).run();
//! assert_eq!(run.results.len(), 2);
//! assert!(run.results.iter().all(Result::is_ok));
//! assert_eq!(run.report.succeeded, 2);
//! ```

use crate::error::ExperimentError;
use crate::experiment::{run_experiment_with, ExperimentConfig, ExperimentResult};
use crate::journal::{fingerprint, Journal, JournalIndex, JournaledOutcome};
use crate::topocache::{topology_cache_key, TopoCache, TopoCacheStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A batch of experiments to run as one unit.
#[derive(Clone, Debug)]
pub struct ExperimentSuite {
    configs: Vec<ExperimentConfig>,
    threads: Option<usize>,
    attempts: u32,
}

/// Everything a finished suite produced: per-experiment outcomes in input
/// order plus the aggregate [`SuiteReport`].
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// One entry per submitted config, in submission order. A panicking or
    /// invalid experiment yields a typed [`ExperimentError`] without
    /// affecting its neighbours.
    pub results: Vec<Result<ExperimentResult, ExperimentError>>,
    /// Aggregate statistics over the whole batch.
    pub report: SuiteReport,
}

/// Aggregate statistics for one suite run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Experiments submitted.
    pub experiments: u64,
    /// Experiments that returned a result.
    pub succeeded: u64,
    /// Experiments that errored or panicked.
    pub failed: u64,
    /// Extra attempts the suite executed in this invocation
    /// (beyond each entry's first attempt; journal-cached entries are
    /// never re-attempted, so a resumed run counts only its own work).
    #[serde(default)]
    pub retries: u64,
    /// Entries quarantined after exhausting the retry budget (a subset of
    /// `failed`; derived from the results, so it is deterministic).
    #[serde(default)]
    pub quarantined: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Wall-clock seconds for the whole suite.
    pub wall_seconds: f64,
    /// Sum of per-experiment simulation wall times — on a multi-core pool
    /// this exceeds `wall_seconds` by roughly the parallel speedup.
    pub experiment_wall_seconds: f64,
    /// Total flows simulated (successful experiments).
    pub flows: u64,
    /// Total completion events processed (successful experiments).
    pub events: u64,
    /// Total progressive-filling iterations (successful experiments).
    pub maxmin_iterations: u64,
    /// Aggregate event throughput: `events / wall_seconds`.
    pub events_per_second: f64,
    /// Per-experiment wall seconds, in submission order (0 for failures
    /// that never reached the simulator).
    pub per_experiment_wall_seconds: Vec<f64>,
    /// Aggregated engine metrics, present only when at least one
    /// experiment ran with tracing enabled (`sim.trace`); suites of
    /// untraced experiments serialize byte-identically to pre-tracing
    /// report files.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<SuiteMetrics>,
    /// Topology-cache statistics for this run; always `Some` from a run
    /// (an `Option` because the frozen benchmark harness maps over it).
    /// **Never serialized**: the JSON report must not depend on which entry
    /// paid for a build (and stays byte-identical to pre-cache report
    /// files); the CLI surfaces these on stderr instead.
    #[serde(default, skip_serializing_if = "never_serialize")]
    pub topo_cache: Option<TopoCacheStats>,
}

/// `skip_serializing_if` helper for fields that are in-memory provenance
/// only and must never enter the serialized report.
fn never_serialize<T>(_: &T) -> bool {
    true
}

/// Engine metrics summed over every traced experiment in a suite.
///
/// Counters mirror [`exaflow_sim::MetricsSnapshot`]; each experiment's own
/// snapshot stays in [`crate::ExperimentResult::metrics`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SuiteMetrics {
    /// Experiments that carried a metrics snapshot.
    pub experiments_with_metrics: u64,
    pub flows_activated: u64,
    pub flows_started: u64,
    pub flows_finished: u64,
    pub flows_skipped: u64,
    pub faults_applied: u64,
    pub faults_cleared: u64,
    pub reroutes: u64,
    pub rate_recomputes: u64,
    /// Recomputations that ran a solver pass (every pass covers all live
    /// entries); the others changed no rate.
    pub full_passes: u64,
    /// Total solver wall-clock seconds across all traced experiments.
    /// **Non-deterministic.**
    pub solver_seconds_total: f64,
}

impl SuiteMetrics {
    /// Fold one experiment's snapshot into the aggregate.
    fn absorb(&mut self, m: &exaflow_sim::MetricsSnapshot) {
        self.experiments_with_metrics += 1;
        self.flows_activated += m.flows_activated;
        self.flows_started += m.flows_started;
        self.flows_finished += m.flows_finished;
        self.flows_skipped += m.flows_skipped;
        self.faults_applied += m.faults_applied;
        self.faults_cleared += m.faults_cleared;
        self.reroutes += m.reroutes;
        self.rate_recomputes += m.rate_recomputes;
        self.full_passes += m.full_passes;
        self.solver_seconds_total += m.solver_seconds_total;
    }
}

impl ExperimentSuite {
    /// A suite over `configs`, defaulting to one worker per available core.
    pub fn new(configs: Vec<ExperimentConfig>) -> Self {
        ExperimentSuite {
            configs,
            threads: None,
            attempts: 1,
        }
    }

    /// Use exactly `threads` workers (clamped to at least 1). One worker
    /// runs the suite serially on the calling thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Give each entry up to `attempts` runs in total (clamped to at least
    /// 1, the default: never retry). Only transient failures are re-run,
    /// and a retry round starts as soon as the previous one ends — a
    /// deterministic run gains nothing from waiting.
    pub fn attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Number of experiments in the suite.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when the suite holds no experiments.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    fn effective_threads(&self) -> usize {
        let requested = self
            .threads
            .unwrap_or_else(exaflow_analysis::default_threads);
        // Never spawn more workers than there is work.
        requested.min(self.configs.len()).max(1)
    }

    /// Run every experiment and aggregate the outcome.
    pub fn run(&self) -> SuiteRun {
        let (run, _) = self.run_prefilled(None, vec![None; self.len()], &|_| {}, None);
        run
    }

    /// Run the suite against an append-only journal at `path`: every
    /// finalised outcome is recorded the moment it completes, so a killed
    /// process loses at most in-flight work. With `resume`, outcomes
    /// already journaled for a config's [`fingerprint`] are reused instead
    /// of re-run and the final report's deterministic fields are
    /// bit-identical to an uninterrupted run; without it, the journal is
    /// truncated and the campaign starts fresh.
    pub fn run_journaled(&self, path: &Path, resume: bool) -> std::io::Result<SuiteRun> {
        self.run_on(Some((path, resume)), None)
    }

    /// [`run`](Self::run) (`journal: None`) or
    /// [`run_journaled`](Self::run_journaled) (`Some((path, resume))`),
    /// building topologies in `shared` when given: a resilience campaign
    /// runs its baseline and grid suites on one [`TopoCache::keeping`]
    /// cache, so it builds its one spec once.
    pub(crate) fn run_on(
        &self,
        journal: Option<(&Path, bool)>,
        shared: Option<&TopoCache>,
    ) -> std::io::Result<SuiteRun> {
        let mut prefilled: Vec<Option<JournaledOutcome>> = vec![None; self.len()];
        let Some((path, resume)) = journal else {
            return Ok(self.run_prefilled(None, prefilled, &|_| {}, shared).0);
        };
        let fingerprints: Vec<String> = self.configs.iter().map(fingerprint).collect();
        if resume {
            let mut index = JournalIndex::load(path)?;
            for (slot, fp) in prefilled.iter_mut().zip(&fingerprints) {
                *slot = index.take(fp);
            }
        }
        let mut journal = Journal::open(path, !resume)?;
        let (run, io_error) = self.run_prefilled(
            Some((&mut journal, &fingerprints)),
            prefilled,
            &|_| {},
            shared,
        );
        match io_error {
            Some(e) => Err(e),
            None => Ok(run),
        }
    }

    /// The shared engine under [`run`](Self::run) and
    /// [`run_journaled`](Self::run_journaled): round-based retries over a
    /// scoped worker pool, with `prefilled` entries (journal hits) taken
    /// as already-final and every newly-finalised outcome streamed to
    /// `journal` as it completes. Returns the run plus the first journal
    /// I/O error, if any (experiments keep running; the caller decides).
    /// Topologies come from `shared`, or else from a cache of the run's own.
    /// `fault` is a test hook invoked on each worker thread *outside* the
    /// per-experiment panic isolation, with the round-local dispatch
    /// position it just claimed: a panicking hook kills that worker dead,
    /// exactly like an abort-level failure mid-suite.
    fn run_prefilled(
        &self,
        mut journal: Option<(&mut Journal, &[String])>,
        prefilled: Vec<Option<JournaledOutcome>>,
        fault: &(dyn Fn(usize) + Sync),
        shared: Option<&TopoCache>,
    ) -> (SuiteRun, Option<std::io::Error>) {
        let own_cache = TopoCache::new(TopoCache::DEFAULT_CAP);
        let topo_cache = shared.unwrap_or(&own_cache);
        let n = self.configs.len();
        debug_assert_eq!(prefilled.len(), n);
        let threads = self.effective_threads();
        let started = Instant::now();

        let mut finals: Vec<Option<JournaledOutcome>> = prefilled;
        let mut histories: Vec<Vec<ExperimentError>> = vec![Vec::new(); n];
        let mut pending: Vec<usize> = (0..n).filter(|&i| finals[i].is_none()).collect();
        let mut retries = 0u64;
        let mut journal_error: Option<std::io::Error> = None;
        let max_attempts = self.attempts;

        for attempt in 1..=max_attempts {
            if pending.is_empty() {
                break;
            }
            if attempt > 1 {
                retries += pending.len() as u64;
            }
            let dispatch = Dispatch::new(&pending, &self.configs);
            let batch: Vec<&ExperimentConfig> =
                dispatch.order.iter().map(|&i| &self.configs[i]).collect();
            let mut next_pending: Vec<usize> = Vec::new();
            scoped_map_observed(
                &batch,
                threads.min(batch.len()).max(1),
                &|k, cfg: &&ExperimentConfig| {
                    // Dropped after the run, panicking or not.
                    let _finished = Finished {
                        dispatch: &dispatch,
                        position: k,
                        cache: topo_cache,
                    };
                    run_experiment_with(cfg, Some(topo_cache), None)
                },
                fault,
                |k, outcome| {
                    let i = dispatch.order[k];
                    // Flatten panic (outer) and config (inner) failures
                    // into the one typed error channel.
                    let entry: JournaledOutcome = match outcome {
                        Ok(inner) => inner.clone(),
                        // scoped_map prefixes its message with
                        // "panicked: "; the variant already says that.
                        Err(message) => Err(ExperimentError::Panicked {
                            message: message
                                .strip_prefix("panicked: ")
                                .map_or(message.clone(), str::to_owned),
                        }),
                    };
                    let finalised: Option<JournaledOutcome> = match entry {
                        Ok(res) => Some(Ok(res)),
                        Err(e) if !e.is_transient() => Some(Err(e)),
                        // Transient, but retries were never requested:
                        // keep the plain error (quarantine describes an
                        // exhausted retry budget, not its absence).
                        Err(e) if max_attempts == 1 => Some(Err(e)),
                        Err(e) => {
                            histories[i].push(e);
                            if attempt == max_attempts {
                                Some(Err(ExperimentError::Quarantined {
                                    attempts: std::mem::take(&mut histories[i]),
                                }))
                            } else {
                                next_pending.push(i);
                                None
                            }
                        }
                    };
                    if let Some(entry) = finalised {
                        // Journal the outcome *now* — crash safety means a
                        // kill one experiment later must not lose this one.
                        if let Some((j, fps)) = journal.as_mut() {
                            if let Err(e) = j.record(&fps[i], &entry) {
                                journal_error.get_or_insert(e);
                            }
                        }
                        finals[i] = Some(entry);
                    }
                },
            );
            // A worker that died before running its entry never finished
            // it, so its group still holds the key.
            for key in &dispatch.keys {
                topo_cache.release(key);
            }
            // Completion order is scheduling-dependent; retry rounds are
            // re-sorted so the retry sequence stays deterministic.
            next_pending.sort_unstable();
            pending = next_pending;
        }

        let wall_seconds = started.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(n);
        let mut per_wall = Vec::with_capacity(n);
        let (mut flows, mut events, mut iters) = (0u64, 0u64, 0u64);
        let mut experiment_wall = 0.0;
        let mut metrics: Option<SuiteMetrics> = None;
        for entry in finals {
            let entry = entry.expect("every entry finalised by the retry loop");
            if let Ok(res) = &entry {
                flows += res.flows;
                events += res.events;
                iters += res.maxmin_iterations;
                experiment_wall += res.wall_seconds;
                per_wall.push(res.wall_seconds);
                if let Some(m) = &res.metrics {
                    metrics.get_or_insert_with(SuiteMetrics::default).absorb(m);
                }
            } else {
                per_wall.push(0.0);
            }
            results.push(entry);
        }

        let succeeded = results.iter().filter(|r| r.is_ok()).count() as u64;
        let quarantined = results
            .iter()
            .filter(|r| matches!(r, Err(ExperimentError::Quarantined { .. })))
            .count() as u64;
        let report = SuiteReport {
            experiments: n as u64,
            succeeded,
            failed: n as u64 - succeeded,
            retries,
            quarantined,
            threads: threads as u64,
            wall_seconds,
            experiment_wall_seconds: experiment_wall,
            flows,
            events,
            maxmin_iterations: iters,
            events_per_second: if wall_seconds > 0.0 {
                events as f64 / wall_seconds
            } else {
                0.0
            },
            per_experiment_wall_seconds: per_wall,
            metrics,
            topo_cache: Some(topo_cache.stats()),
        };
        (SuiteRun { results, report }, journal_error)
    }
}

/// One attempt round's dispatch plan: the pending entries grouped by
/// topology cache key, and what each group still owes.
struct Dispatch {
    /// Input indices in dispatch order.
    order: Vec<usize>,
    /// The group of each dispatch position.
    group: Vec<usize>,
    /// Each group's cache key, groups in order of first appearance.
    keys: Vec<String>,
    /// Entries of each group not yet finished.
    owed: Vec<AtomicUsize>,
}

impl Dispatch {
    fn new(pending: &[usize], configs: &[ExperimentConfig]) -> Dispatch {
        let mut keys: Vec<String> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<String, usize> = HashMap::new();
        for &i in pending {
            let key = topology_cache_key(&configs[i].topology);
            let g = *group_of.entry(key).or_insert_with_key(|key| {
                keys.push(key.clone());
                members.push(Vec::new());
                keys.len() - 1
            });
            members[g].push(i);
        }
        let group = members
            .iter()
            .enumerate()
            .flat_map(|(g, m)| std::iter::repeat_n(g, m.len()))
            .collect();
        Dispatch {
            order: members.iter().flatten().copied().collect(),
            group,
            keys,
            owed: members.iter().map(|m| AtomicUsize::new(m.len())).collect(),
        }
    }
}

/// Marks one dispatched entry finished when dropped, on the worker that
/// ran it and before it claims the next; the last entry of a group
/// releases the group's topology.
struct Finished<'a> {
    dispatch: &'a Dispatch,
    position: usize,
    cache: &'a TopoCache,
}

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        let g = self.dispatch.group[self.position];
        if self.dispatch.owed[g].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.cache.release(&self.dispatch.keys[g]);
        }
    }
}

/// One entry out of [`scoped_map`]: `Ok(f(item))`, or `Err(message)` when
/// `f` panicked.
pub type MapOutcome<U> = Result<U, String>;

/// Apply `f` to every item on a scoped worker pool, catching panics, and
/// return the outcomes in input order.
///
/// This is the primitive under [`ExperimentSuite::run`]; Table 2
/// ([`crate::reproduce::table2`]) uses it directly to fan out grid points
/// that are not experiments. With `threads == 1`
/// everything runs serially on the calling thread — no spawn at all.
///
/// A worker thread that dies outright (a panic outside the per-item
/// isolation — an invariant violation in the pool itself, not in `f`)
/// strands only the item it had claimed: that slot comes back as an
/// `Err` naming the dead worker, and the other workers drain the rest.
pub fn scoped_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<MapOutcome<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    scoped_map_observed(items, threads, &f, &|_| {}, |_, _| {})
}

/// [`scoped_map`] with two hooks: `fault(i)` runs on the worker thread
/// after claiming index `i`, *outside* the panic isolation (tests panic
/// here to simulate a dying worker); `observe(i, &outcome)` runs on the
/// **calling** thread the moment item `i`'s outcome arrives — including
/// synthesized outcomes for indices stranded by a dead worker — so
/// callers can act on completions (journaling) before the batch ends.
fn scoped_map_observed<T, U, F>(
    items: &[T],
    threads: usize,
    f: &F,
    fault: &(dyn Fn(usize) + Sync),
    mut observe: impl FnMut(usize, &MapOutcome<U>),
) -> Vec<MapOutcome<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let run_one = |index: usize, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(index, item)))
            .map_err(|payload| format!("panicked: {}", panic_message(payload.as_ref())))
    };

    if threads <= 1 || items.len() <= 1 {
        // Serial path: no worker threads exist, so the fault hook (which
        // models a *worker* dying) does not apply.
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let outcome = run_one(i, item);
                observe(i, &outcome);
                outcome
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<MapOutcome<U>>> = (0..items.len()).map(|_| None).collect();
    let mut dead_workers: Vec<String> = Vec::new();
    {
        let next = &next;
        let (tx, rx) = std::sync::mpsc::channel::<(usize, MapOutcome<U>)>();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        // Outside catch_unwind: a panic here kills this
                        // worker, stranding index i (handled below).
                        fault(i);
                        let outcome = run_one(i, item);
                        if tx.send((i, outcome)).is_err() {
                            break;
                        }
                    })
                })
                .collect();
            drop(tx);
            // Drain on the calling thread as outcomes arrive; the channel
            // closes once every worker has exited (dead or alive).
            for (i, outcome) in rx {
                observe(i, &outcome);
                slots[i] = Some(outcome);
            }
            for worker in workers {
                if let Err(payload) = worker.join() {
                    dead_workers.push(panic_message(payload.as_ref()).to_owned());
                }
            }
        });
    }

    // Indices a dead worker claimed but never reported.
    let detail = if dead_workers.is_empty() {
        "unknown cause".to_owned()
    } else {
        dead_workers.join("; ")
    };
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(outcome) => outcome,
            None => {
                let outcome = Err(format!(
                    "panicked: worker thread died before reporting this entry ({detail})"
                ));
                observe(i, &outcome);
                outcome
            }
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MappingSpec;
    use crate::topospec::TopologySpec;
    use exaflow_sim::SimConfig;
    use exaflow_workloads::WorkloadSpec;

    fn cfg(dims: Vec<u32>, tasks: usize) -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologySpec::Torus { dims },
            workload: WorkloadSpec::AllReduce {
                tasks,
                bytes: 1 << 16,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        }
    }

    #[test]
    fn empty_suite_runs() {
        let run = ExperimentSuite::new(vec![]).run();
        assert!(run.results.is_empty());
        assert_eq!(run.report.experiments, 0);
        assert_eq!(run.report.events_per_second, 0.0);
    }

    #[test]
    fn results_in_input_order() {
        // Distinguishable task counts so order mix-ups are visible.
        let configs = vec![cfg(vec![4, 4], 4), cfg(vec![4, 4], 8), cfg(vec![4, 4], 16)];
        let run = ExperimentSuite::new(configs).threads(3).run();
        let flows: Vec<u64> = run
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().flows)
            .collect();
        // Recursive-doubling AllReduce over n tasks: n·log2(n) flows.
        assert_eq!(flows, vec![8, 24, 64]);
    }

    #[test]
    fn config_errors_are_isolated() {
        // 16 tasks cannot fit a 2x2 torus; neighbours still succeed.
        let configs = vec![cfg(vec![4, 4], 16), cfg(vec![2, 2], 16), cfg(vec![4, 4], 8)];
        let run = ExperimentSuite::new(configs).threads(2).run();
        assert!(run.results[0].is_ok());
        assert!(run.results[1].is_err());
        assert!(run.results[2].is_ok());
        assert_eq!(run.report.succeeded, 2);
        assert_eq!(run.report.failed, 1);
        assert_eq!(run.report.retries, 0);
        assert_eq!(run.report.quarantined, 0);
        assert_eq!(run.report.per_experiment_wall_seconds[1], 0.0);
    }

    /// A worker thread dying outright (panic outside the per-experiment
    /// isolation — the bug class that used to take down the whole suite via
    /// `join().expect(...)`) must strand only the entry it had claimed.
    ///
    /// The input is workload-major over four topologies (entry `i` runs on
    /// topology `i % 4`), and a round dispatches it grouped by topology:
    /// inputs 0, 4, 8, then 1, 5, 9, and so on. Dispatch position 2 is
    /// therefore input 8, the last entry on the first topology.
    #[test]
    fn dead_worker_loses_only_its_own_entry() {
        let dims = [vec![4, 4], vec![8, 2], vec![4, 4, 2], vec![2, 2, 4]];
        let configs: Vec<ExperimentConfig> = (0..12)
            .map(|i| cfg(dims[i % 4].clone(), 4 << (i / 4)))
            .collect();
        let kill_position_2 = |i: usize| {
            if i == 2 {
                panic!("simulated worker abort");
            }
        };
        let run_killing = |suite: ExperimentSuite| {
            let prefilled = vec![None; suite.len()];
            suite
                .run_prefilled(None, prefilled, &kill_position_2, None)
                .0
        };
        let run = run_killing(ExperimentSuite::new(configs.clone()).threads(2));
        assert_eq!(run.results.len(), 12, "every entry must come back");
        for (i, r) in run.results.iter().enumerate() {
            if i == 8 {
                let err = r.as_ref().unwrap_err();
                match err {
                    ExperimentError::Panicked { message } => {
                        assert!(message.contains("worker thread died"), "{message}");
                        assert!(message.contains("simulated worker abort"), "{message}");
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            } else {
                assert!(r.is_ok(), "entry {i} should be unaffected: {r:?}");
            }
        }
        assert_eq!(run.report.succeeded, 11);
        assert_eq!(run.report.failed, 1);

        // The same fault with a second attempt recovers completely: the
        // retry round re-runs the stranded entry on a fresh (serial) pass.
        // Its topology was released at the end of the first round, so the
        // retry builds it again — one miss more than the four distinct
        // topologies — and still comes out exactly as an uninterrupted run.
        let run = run_killing(ExperimentSuite::new(configs.clone()).threads(2).attempts(2));
        assert!(run.results.iter().all(Result::is_ok), "{:?}", run.report);
        assert_eq!(run.report.retries, 1);
        assert_eq!(run.report.quarantined, 0);
        let stats = run.report.topo_cache.unwrap();
        assert_eq!((stats.misses, stats.hits), (5, 7));
        let reference = ExperimentSuite::new(configs).threads(1).run();
        let signature = |results: &[Result<ExperimentResult, ExperimentError>]| {
            let ok = |r: &Result<ExperimentResult, ExperimentError>| {
                let r = r.as_ref().expect("experiment");
                (r.makespan_seconds, r.flows, r.events)
            };
            results.iter().map(ok).collect::<Vec<_>>()
        };
        assert_eq!(signature(&run.results), signature(&reference.results));
    }

    #[test]
    fn scoped_map_catches_panics() {
        let items = vec![1u32, 2, 3, 4];
        let values = scoped_map(&items, 2, |_, &x| {
            if x == 3 {
                panic!("boom on {x}");
            }
            x * 10
        });
        assert_eq!(values[0], Ok(10));
        assert_eq!(values[1], Ok(20));
        assert_eq!(values[3], Ok(40));
        let err = values[2].as_ref().unwrap_err();
        assert!(err.contains("boom on 3"), "{err}");
    }

    #[test]
    fn dead_worker_strands_only_its_claimed_item() {
        let items = vec![1u32, 2, 3, 4, 5, 6];
        let out = scoped_map_observed(
            &items,
            2,
            &|_, &x: &u32| x * 10,
            &|i| {
                if i == 2 {
                    panic!("injected worker death");
                }
            },
            |_, _| {},
        );
        assert_eq!(out.len(), 6, "every index must come back");
        for (i, o) in out.iter().enumerate() {
            if i == 2 {
                let err = o.as_ref().unwrap_err();
                assert!(err.contains("worker thread died"), "{err}");
                assert!(err.contains("injected worker death"), "{err}");
            } else {
                assert_eq!(*o, Ok(items[i] * 10), "index {i}");
            }
        }
    }

    #[test]
    fn observe_sees_every_outcome_exactly_once() {
        let items: Vec<u32> = (0..16).collect();
        let mut seen = vec![0u32; items.len()];
        scoped_map_observed(&items, 4, &|_, &x: &u32| x, &|_| {}, |i, outcome| {
            seen[i] += 1;
            assert_eq!(*outcome, Ok(i as u32));
        });
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn suites_on_a_shared_cache_build_each_spec_once() {
        // A resilience campaign's shape: a one-entry suite, then a grid
        // over the same spec. A suite's own cache releases the spec when
        // its group ends; a keeping one holds it for the next suite.
        let cache = TopoCache::keeping();
        let baseline = ExperimentSuite::new(vec![cfg(vec![4, 4], 8)]);
        let grid = ExperimentSuite::new(vec![cfg(vec![4, 4], 4), cfg(vec![4, 4], 16)]).threads(2);
        for suite in [&baseline, &grid] {
            let run = suite.run_on(None, Some(&cache)).unwrap();
            assert_eq!(run.report.succeeded, suite.len() as u64);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2), "{stats:?}");
        let (_, hit) = cache.get_or_build(&cfg(vec![4, 4], 8).topology).unwrap();
        assert!(hit, "a shared cache keeps its spec after the suites end");
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let run = ExperimentSuite::new(vec![cfg(vec![4, 4], 8)])
            .threads(64)
            .run();
        assert_eq!(run.report.threads, 1);
        assert_eq!(run.report.succeeded, 1);
    }

    #[test]
    fn report_serializes() {
        let run = ExperimentSuite::new(vec![cfg(vec![4, 4], 8)])
            .threads(1)
            .run();
        let json = serde_json::to_string(&run.report).unwrap();
        let back: SuiteReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.experiments, 1);
        assert_eq!(back.events, run.report.events);
        assert_eq!(back.retries, 0);
        assert_eq!(back.quarantined, 0);
    }

    #[test]
    fn transient_classification_matches_the_retry_contract() {
        use exaflow_sim::SimError;
        assert!(ExperimentError::Panicked {
            message: "x".into()
        }
        .is_transient());
        assert!(ExperimentError::Sim {
            sim: SimError::DeadlineExceeded {
                wall_limit_s: 1.0,
                events: 0,
                time: 0.0,
                delivered_bytes: 0,
                flows_completed: 0,
            }
        }
        .is_transient());
        // Deterministic failures re-run to the same error: never retried.
        assert!(!ExperimentError::Sim {
            sim: SimError::BudgetExhausted {
                max_events: 1,
                events: 1,
                time: 0.0,
                delivered_bytes: 0,
                flows_completed: 0,
            }
        }
        .is_transient());
        assert!(!ExperimentError::TooManyTasks {
            tasks: 9,
            endpoints: 4,
            topology: "t".into(),
        }
        .is_transient());
    }
}
