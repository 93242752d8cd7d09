//! Emits a `BENCH_engine.json` perf snapshot for the rate engine: a
//! solver-level churn scenario checked against the textbook max-min
//! reference, plus end-to-end engine runs with their solver effort.
//!
//! The vendored criterion stub cannot write machine-readable output, so
//! this binary is the perf-trajectory recorder: run
//! `scripts/bench_engine.sh` after perf-relevant changes and diff the
//! snapshot.
//!
//! Usage: `engine_snapshot [output.json]` (default `BENCH_engine.json`).

use exaflow::prelude::*;
use exaflow::sim::maxmin::MaxMinSolver;
use exaflow::sim::trace_check::textbook_maxmin;
use exaflow::sim::{PathId, PathTable};
use exaflow_bench::allreduce_round0_paths;
use serde::Serialize;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Churn events in the solver-level scenario.
const EVENTS: usize = 256;

#[derive(Serialize)]
struct SolverChurn {
    name: &'static str,
    flows: usize,
    events: usize,
    seconds: f64,
    /// The final rates are bit-identical to `textbook_maxmin` over the
    /// same paths.
    matches_textbook: bool,
}

#[derive(Serialize)]
struct EngineRun {
    name: &'static str,
    makespan_seconds: f64,
    events: u64,
    flows: u64,
    wall_seconds: f64,
    rate_recomputes: u64,
    /// Freeze rounds of the run, and how many of them its passes visited;
    /// the others were jumped (`maxmin` module docs, "Merge replay").
    maxmin_iterations: u64,
    visited_rounds: u64,
}

/// Trace sink that mirrors a fault-free run's solver traffic onto a
/// solver of its own — one entry inserted per `flow_started`, removed per
/// `flow_finished`, one recompute per `rate_recompute` — because the
/// visit counter lives on the solver, not on `SimReport`.
struct SolverMirror {
    solver: Option<MaxMinSolver>,
    paths: PathTable,
    entries: HashMap<u32, u32>,
}

impl TraceSink for SolverMirror {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::RunStarted { capacities_bps, .. } = event {
            self.solver = Some(MaxMinSolver::new(capacities_bps.clone()).unwrap());
        }
        let solver = self.solver.as_mut().expect("run_started comes first");
        match event {
            TraceEvent::FlowStarted { flow, path, .. } => {
                let path = self.paths.intern(path);
                let id = solver.insert_entry(&self.paths, path);
                self.entries.insert(*flow, id);
            }
            // Degenerate flows finish without ever having started.
            TraceEvent::FlowFinished { flow, .. } => {
                if let Some(id) = self.entries.remove(flow) {
                    solver.remove_entry(id);
                }
            }
            TraceEvent::RateRecompute { .. } => solver.recompute(&self.paths),
            _ => {}
        }
    }
}

#[derive(Serialize)]
struct TopoCacheRun {
    name: &'static str,
    entries: usize,
    endpoints: usize,
    cache_off_wall_seconds: f64,
    cache_on_wall_seconds: f64,
    speedup: f64,
    hits: u64,
    misses: u64,
    reports_identical: bool,
}

#[derive(Serialize)]
struct AnalysisRun {
    name: String,
    qfdbs: u64,
    sources: usize,
    /// Wall time of the exact all-sources sweep on one thread.
    exact_seconds: f64,
    sampled_seconds: f64,
    exact_average: f64,
    sampled_average: f64,
    confidence_95: f64,
    /// Closed-form torus average distance — the ground truth the sampled
    /// estimate must bracket.
    reference_average: f64,
    within_confidence: bool,
}

/// One topology of `exaflow analyze --scale 131072 --sources all
/// --hybrids --threads 1`: the exact Table 1 row at the paper's scale.
#[derive(Serialize)]
struct ExactTable1Row {
    topology: String,
    build_seconds: f64,
    sweep_seconds: f64,
    average: f64,
    diameter: u32,
}

#[derive(Serialize)]
struct Snapshot {
    solver: SolverChurn,
    engine: Vec<EngineRun>,
    /// Exact-vs-sampled distance analysis wall times on the torus at
    /// 2,048 / 16,384 / 131,072 QFDBs (the paper's Table 1 scale).
    analysis: Vec<AnalysisRun>,
    /// The two baselines and two hybrids of `table1_specs` swept over all
    /// 131,072 sources on one thread.
    table1_exact_131072: Vec<ExactTable1Row>,
    topo_cache: TopoCacheRun,
}

/// Solver churn on a 4096-endpoint AllReduce active set (8192 resources
/// touched): each event retires one flow and, a recompute later, admits it
/// again — two merged passes (a retire and re-admit of the
/// same path between two recomputes is settled as no change and measures
/// nothing).
fn solver_churn() -> SolverChurn {
    let (resources, paths) = allreduce_round0_paths(&[16, 16, 16]);
    let caps = vec![10e9; resources];
    let flows = paths.len();

    let mut table = PathTable::new();
    let path_ids: Vec<PathId> = paths.iter().map(|p| table.intern(p)).collect();
    let mut solver = MaxMinSolver::new(caps.clone()).unwrap();
    let mut ids: Vec<u32> = path_ids
        .iter()
        .map(|&p| solver.insert_entry(&table, p))
        .collect();
    solver.recompute(&table);
    let t = Instant::now();
    for e in 0..EVENTS {
        let k = (e * 101) % flows;
        solver.remove_entry(ids[k]);
        solver.recompute(&table);
        ids[k] = solver.insert_entry(&table, path_ids[k]);
        solver.recompute(&table);
        black_box(solver.entry_rate(ids[k]));
    }
    let seconds = t.elapsed().as_secs_f64();

    let (want, _) = textbook_maxmin(&caps, &paths);
    let matches_textbook = ids
        .iter()
        .zip(&want)
        .all(|(id, r)| solver.entry_rate(*id).to_bits() == r.to_bits());
    SolverChurn {
        name: "solver_churn_allreduce_4096ep",
        flows,
        events: EVENTS,
        seconds,
        matches_textbook,
    }
}

fn engine_run(name: &'static str, spec: &TopologySpec, workload: &WorkloadSpec) -> EngineRun {
    let topo = spec.build().unwrap();
    let eps = topo.num_endpoints();
    let dag = workload.generate(&TaskMapping::linear(workload.num_tasks(), eps));
    engine_run_dag(name, topo.as_ref(), &dag)
}

fn engine_run_dag(name: &'static str, topo: &dyn Topology, dag: &FlowDag) -> EngineRun {
    let t = Instant::now();
    let report = Simulator::new(topo).run(dag).unwrap();
    let wall_seconds = t.elapsed().as_secs_f64();

    // A second, traced run feeds the mirror; it must land on the engine's
    // own iteration count or it mirrored something else.
    let mut mirror = SolverMirror {
        solver: None,
        paths: PathTable::new(),
        entries: HashMap::new(),
    };
    Simulator::new(topo)
        .run_with(
            dag,
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
            Some(&mut mirror),
        )
        .unwrap();
    let mirrored = mirror.solver.expect("traced run emits a header");
    assert_eq!(mirrored.iterations, report.maxmin_iterations, "{name}");

    EngineRun {
        name,
        makespan_seconds: report.makespan_seconds,
        events: report.events,
        flows: report.flows,
        wall_seconds,
        rate_recomputes: report.rate_recomputes,
        maxmin_iterations: report.maxmin_iterations,
        visited_rounds: mirrored.visited_rounds,
    }
}

/// End-to-end sweep wall-clock with the shared topology cache on vs off:
/// a 50-entry grid over ONE topology spec — the shape the cache exists
/// for — where cache-off builds the same graph 50 times and cache-on
/// builds it once. The per-result comparison drops only wall clocks;
/// everything physical must be bit-identical.
fn topo_cache_run() -> TopoCacheRun {
    const ENTRIES: usize = 50;
    let spec = TopologySpec::Torus { dims: vec![12, 12] };
    let eps = spec.build().unwrap().num_endpoints();
    let configs: Vec<ExperimentConfig> = (0..ENTRIES as u64)
        .map(|i| ExperimentConfig {
            topology: spec.clone(),
            workload: WorkloadSpec::UnstructuredApp {
                tasks: eps,
                flows_per_task: 4,
                bytes: 256 << 10,
                seed: i + 1,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        })
        .collect();

    let canonical = |run: &SuiteRun| -> Vec<String> {
        run.results
            .iter()
            .map(|r| {
                let mut res = r.as_ref().unwrap().clone();
                res.wall_seconds = 0.0;
                serde_json::to_string(&res).unwrap()
            })
            .collect()
    };
    let t = Instant::now();
    let off = ExperimentSuite::new(configs.clone())
        .threads(1)
        .topo_cache(0)
        .run();
    let cache_off_wall_seconds = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let on = ExperimentSuite::new(configs).threads(1).run();
    let cache_on_wall_seconds = t.elapsed().as_secs_f64();
    let stats = on.report.topo_cache.expect("default cache is on");
    TopoCacheRun {
        name: "sweep_50x_unstructured_144ep_torus",
        entries: ENTRIES,
        endpoints: eps,
        cache_off_wall_seconds,
        cache_on_wall_seconds,
        speedup: cache_off_wall_seconds / cache_on_wall_seconds,
        hits: stats.hits,
        misses: stats.misses,
        reports_identical: canonical(&on) == canonical(&off),
    }
}

/// Exact-vs-sampled distance-analysis wall time on the torus at one
/// scale. The sampled estimator uses the spec-fingerprint seed so the
/// recorded averages are reproducible bit for bit.
fn analysis_run(qfdbs: u64, sources: usize) -> AnalysisRun {
    let scale = SystemScale::new(qfdbs).unwrap();
    let spec = scale.torus_spec();
    let topo = spec.build().unwrap();
    let reference_average = Torus::new(&scale.torus_dims()).average_distance();

    let t = Instant::now();
    let exact = distance_sweep(topo.as_ref(), 1);
    let exact_seconds = t.elapsed().as_secs_f64();

    let seed = spec_seed(&spec);
    let t = Instant::now();
    let sampled = distance_estimate(topo.as_ref(), sources, seed, 1);
    let sampled_seconds = t.elapsed().as_secs_f64();
    let confidence_95 = sampled.confidence_95.unwrap_or(0.0);
    AnalysisRun {
        name: format!("torus_distance_{qfdbs}"),
        qfdbs,
        sources,
        exact_seconds,
        sampled_seconds,
        exact_average: exact.average,
        sampled_average: sampled.average,
        confidence_95,
        reference_average,
        within_confidence: (sampled.average - reference_average).abs() <= confidence_95 + 1e-9,
    }
}

/// Build and sweep each Table 1 spec at the paper's scale, timing the two
/// halves apart.
fn table1_exact_rows() -> Vec<ExactTable1Row> {
    let specs = table1_specs(SystemScale::PAPER, true).expect("paper scale hosts t = 2");
    specs
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let topo = spec.build().unwrap();
            let build_seconds = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let stats = distance_sweep(topo.as_ref(), 1);
            ExactTable1Row {
                topology: topo.name(),
                build_seconds,
                sweep_seconds: t.elapsed().as_secs_f64(),
                average: stats.average,
                diameter: stats.diameter,
            }
        })
        .collect()
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let scale = SystemScale::DEFAULT_SIM;
    let [gx, gy, gz] = scale.torus_dims();

    let solver = solver_churn();
    eprintln!(
        "{}: {:.4}s ({})",
        solver.name,
        solver.seconds,
        if solver.matches_textbook {
            "matches the textbook"
        } else {
            "MISMATCH"
        }
    );

    // The incremental solver's target regime: staggered flow sizes mean
    // every completion is its own event perturbing one tiny component —
    // at exascale the dominant shape (EvalNet/OutFlank observation).
    let big_torus = Torus::new(&[16, 16, 16]); // 4096 endpoints
    let staggered_dag = {
        let mut b = FlowDagBuilder::new();
        for i in 0..big_torus.num_endpoints() as u32 {
            b.add_flow(
                NodeId(i),
                NodeId(i ^ 1),
                presets::MIB + 4096 * i as u64,
                &[],
            );
        }
        b.build()
    };
    let staggered = engine_run_dag("staggered_pairs_4096ep_torus", &big_torus, &staggered_dag);

    let heavy = SystemScale::new(1024).unwrap();
    let reduce_scale = SystemScale::new(32_768).unwrap();
    let engine = vec![
        staggered,
        engine_run(
            "allreduce_2048_torus",
            &scale.torus_spec(),
            &WorkloadSpec::AllReduce {
                tasks: scale.qfdbs as usize,
                bytes: presets::MIB,
            },
        ),
        engine_run(
            "flood_2048_torus",
            &scale.torus_spec(),
            &WorkloadSpec::Flood {
                gx,
                gy,
                gz,
                bytes: 256 << 10,
                waves: 4,
            },
        ),
        // Random heavy traffic: one giant sharing component, so a change
        // reaches far into the log — the merge replay's regime.
        engine_run(
            "unstructured_app_1024_fattree",
            &heavy.fattree_spec(),
            &WorkloadSpec::UnstructuredApp {
                tasks: heavy.qfdbs as usize,
                flows_per_task: 1,
                bytes: presets::MIB,
                seed: 1,
            },
        ),
        engine_run(
            "unstructured_mgnt_1024_torus",
            &heavy.torus_spec(),
            &WorkloadSpec::UnstructuredMgnt {
                tasks: heavy.qfdbs as usize,
                flows_per_task: 1,
                seed: 1,
            },
        ),
        // Every event retires 512 ring flows and re-issues their paths:
        // the deferred settle's regime (one water-fill for 256 events).
        engine_run(
            "nbodies_512_fattree",
            &scale.fattree_spec(),
            &WorkloadSpec::NBodies {
                tasks: 512,
                bytes: presets::MIB,
            },
        ),
        // One batch of 32,767 entries sharing the root's ejection port.
        engine_run(
            "reduce_32768_torus",
            &reduce_scale.torus_spec(),
            &WorkloadSpec::Reduce {
                tasks: reduce_scale.qfdbs as usize,
                bytes: 64 << 10,
            },
        ),
    ];
    for run in &engine {
        eprintln!(
            "{}: {:.4}s, {} recomputes, {} / {} rounds visited",
            run.name,
            run.wall_seconds,
            run.rate_recomputes,
            run.visited_rounds,
            run.maxmin_iterations,
        );
    }

    let topo_cache = topo_cache_run();
    eprintln!(
        "{}: cache-off {:.4}s, cache-on {:.4}s, speedup {:.2}x, \
         {} hits / {} misses ({})",
        topo_cache.name,
        topo_cache.cache_off_wall_seconds,
        topo_cache.cache_on_wall_seconds,
        topo_cache.speedup,
        topo_cache.hits,
        topo_cache.misses,
        if topo_cache.reports_identical {
            "reports identical"
        } else {
            "REPORTS DIVERGED"
        }
    );

    // Distance-analysis trajectory: exact sweep and sampled estimator (512
    // stratified sources) at every scale up to the paper's 131,072 QFDBs.
    let analysis: Vec<AnalysisRun> = [2_048u64, 16_384, 131_072]
        .into_iter()
        .map(|qfdbs| analysis_run(qfdbs, 512))
        .collect();
    for run in &analysis {
        eprintln!(
            "{}: exact {:.4}s, sampled {:.4}s, avg {:.4} ± {:.2e} vs {:.4} ({})",
            run.name,
            run.exact_seconds,
            run.sampled_seconds,
            run.sampled_average,
            run.confidence_95,
            run.reference_average,
            if run.within_confidence {
                "within confidence"
            } else {
                "OUTSIDE CONFIDENCE"
            }
        );
    }

    let table1_exact_131072 = table1_exact_rows();
    for row in &table1_exact_131072 {
        eprintln!(
            "exact Table 1 at 131072, {}: build {:.3}s, all-sources sweep {:.3}s, avg {:.4}, diameter {}",
            row.topology, row.build_seconds, row.sweep_seconds, row.average, row.diameter
        );
    }

    let snapshot = Snapshot {
        solver,
        engine,
        analysis,
        table1_exact_131072,
        topo_cache,
    };
    let body = serde_json::to_string_pretty(&snapshot).expect("serialise snapshot");
    std::fs::write(&out, body).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
}
