//! Parallel experiment suites: run a batch of [`ExperimentConfig`]s on
//! the workspace's one worker pool ([`exaflow_analysis::pool`]), isolate
//! panics per experiment, and aggregate engine statistics into a
//! serializable [`SuiteReport`].
//!
//! Workers claim entries from a shared counter, so a worker stuck on a
//! slow experiment never blocks the others, and results come back in
//! **input order** no matter which worker finished first. Each entry runs
//! once: the simulator is deterministic, so running an entry again
//! reproduces its outcome. An entry that panics, overruns its wall-clock
//! deadline or exhausts its event budget becomes a typed
//! [`ExperimentError`] entry and leaves the rest of the suite untouched.
//!
//! Every run owns one [`TopoCache`] and dispatches its pending entries
//! grouped by [`topology_cache_key`] — groups in order of first
//! appearance, input order inside a group. A spec is built once per run,
//! by the first worker that needs it, shared by the rest of its group, and
//! released when the group's last entry finishes: a serial suite holds
//! one topology at a time, a pool at most one per worker plus the group
//! being dispatched. (A resilience campaign's baseline and grid suites
//! share one `TopoCache::keeping` cache, so the campaign builds its spec
//! once.) Only the dispatch order changes; results, per-entry wall times
//! and journal records stay keyed by input index.
//!
//! [`run_journaled`](ExperimentSuite::run_journaled) additionally streams
//! every outcome to an append-only JSONL journal (see [`crate::journal`])
//! so a killed process can resume without redoing completed work.
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
use exaflow_analysis::pool::scoped_map_observed;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A batch of experiments to run as one unit.
#[derive(Clone, Debug)]
pub struct ExperimentSuite {
    configs: Vec<ExperimentConfig>,
    threads: Option<usize>,
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
        }
    }

    /// Use exactly `threads` workers (clamped to at least 1). One worker
    /// runs the suite serially on the calling thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
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
        let (run, _) = self.run_prefilled(None, vec![None; self.len()], None);
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
            return Ok(self.run_prefilled(None, prefilled, shared).0);
        };
        let fingerprints: Vec<String> = self.configs.iter().map(fingerprint).collect();
        if resume {
            let mut index = JournalIndex::load(path)?;
            for (slot, fp) in prefilled.iter_mut().zip(&fingerprints) {
                *slot = index.take(fp);
            }
        }
        let mut journal = Journal::open(path, !resume)?;
        let (run, io_error) =
            self.run_prefilled(Some((&mut journal, &fingerprints)), prefilled, shared);
        match io_error {
            Some(e) => Err(e),
            None => Ok(run),
        }
    }

    /// The shared engine under [`run`](Self::run) and
    /// [`run_journaled`](Self::run_journaled): every entry not `prefilled`
    /// (a journal hit) runs once on the pool, and its outcome is streamed
    /// to `journal` as it completes. Returns the run plus the first journal
    /// I/O error, if any (experiments keep running; the caller decides).
    /// Topologies come from `shared`, or else from a cache of the run's own.
    fn run_prefilled(
        &self,
        mut journal: Option<(&mut Journal, &[String])>,
        prefilled: Vec<Option<JournaledOutcome>>,
        shared: Option<&TopoCache>,
    ) -> (SuiteRun, Option<std::io::Error>) {
        let own_cache = TopoCache::new(TopoCache::DEFAULT_CAP);
        let topo_cache = shared.unwrap_or(&own_cache);
        let n = self.configs.len();
        debug_assert_eq!(prefilled.len(), n);
        let threads = self.effective_threads();
        let started = Instant::now();

        let mut finals: Vec<Option<JournaledOutcome>> = prefilled;
        let pending: Vec<usize> = (0..n).filter(|&i| finals[i].is_none()).collect();
        let mut journal_error: Option<std::io::Error> = None;
        let dispatch = Dispatch::new(&pending, &self.configs);
        let batch: Vec<&ExperimentConfig> =
            dispatch.order.iter().map(|&i| &self.configs[i]).collect();
        scoped_map_observed(
            &batch,
            threads,
            &|k, cfg: &&ExperimentConfig| {
                // Dropped after the run, panicking or not.
                let _finished = Finished {
                    dispatch: &dispatch,
                    position: k,
                    cache: topo_cache,
                };
                run_experiment_with(cfg, Some(topo_cache), None)
            },
            |k, outcome| {
                let i = dispatch.order[k];
                // Flatten panic (outer) and config (inner) failures into
                // the one typed error channel.
                let entry: JournaledOutcome = match outcome {
                    Ok(inner) => inner.clone(),
                    Err(message) => Err(ExperimentError::Panicked {
                        message: message.clone(),
                    }),
                };
                // Journal the outcome *now* — crash safety means a kill one
                // experiment later must not lose this one.
                if let Some((j, fps)) = journal.as_mut() {
                    if let Err(e) = j.record(&fps[i], &entry) {
                        journal_error.get_or_insert(e);
                    }
                }
                finals[i] = Some(entry);
            },
        );

        let wall_seconds = started.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(n);
        let mut per_wall = Vec::with_capacity(n);
        let (mut flows, mut events, mut iters) = (0u64, 0u64, 0u64);
        let mut experiment_wall = 0.0;
        let mut metrics: Option<SuiteMetrics> = None;
        for entry in finals {
            let entry = entry.expect("every entry prefilled or run once");
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
        let report = SuiteReport {
            experiments: n as u64,
            succeeded,
            failed: n as u64 - succeeded,
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

/// A run's dispatch plan: the pending entries grouped by
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
        assert_eq!(run.report.per_experiment_wall_seconds[1], 0.0);
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
    }
}
