//! The traced pass: replay every operation step by step from outside the
//! program, with a span around each call into a layer.
//!
//! Nothing here is inside the program. The only in-program numbers read are
//! ones it already reports: `ExperimentResult::wall_seconds` and the
//! `sim.trace` metrics `solver_seconds_total` / `full_passes`.
//!
//! `sim.trace` costs the engine a utilisation probe per recompute (up to 3x
//! on the collectives), but the solver is timed apart from it. So solver
//! time is taken from the traced pass and run time from the untraced
//! repetition beside it; `trace.overhead_frac` says how far the two are apart.

use crate::gen::Input;
use crate::ops::{float, uint, OpStat};
use exaflow::netgraph::NodeId;
use exaflow::{
    analyze_distances, run_experiment, ExperimentConfig, SourceBudget, SystemScale, TopoCache,
    TopologySpec,
};
use serde_json::{Map, Value};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// One timed call: `[start_s, end_s)` since the tracer was created, the span
/// that was open when it started, and the operation it belongs to.
pub struct Span {
    name: &'static str,
    op: Option<usize>,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans kept in memory until the benchmark ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, op: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_s = now;
        now - self.spans[id].start_s
    }

    /// Run `f` inside a leaf span; returns its result and its duration.
    fn timed<R>(
        &mut self,
        name: &'static str,
        op: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(name, op);
        let result = f();
        (result, self.exit(id))
    }

    /// Total duration and number of the spans called `name`.
    fn busy(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + (s.end_s - s.start_s), n + 1))
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut m = Map::new();
                m.insert("id", uint(id as u64));
                m.insert("name", Value::String(s.name.to_owned()));
                m.insert("op", s.op.map_or(Value::Null, |op| uint(op as u64)));
                m.insert("parent", s.parent.map_or(Value::Null, |p| uint(p as u64)));
                m.insert("start_s", float(s.start_s));
                m.insert("end_s", float(s.end_s));
                Value::Object(m)
            })
            .collect();
        Value::Array(spans)
    }
}

/// Per-layer metrics of one pass, by the names `BENCHMARK.json` lists.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the untraced repetition beside a traced pass measured.
#[derive(Default)]
pub struct Untraced {
    /// `ExperimentSuite::run`, start to end.
    pub suite_s: f64,
    /// Sum of the experiments' `wall_seconds` inside it.
    pub sim_s: f64,
    /// Route tables its topology cache built.
    pub tables_built: u64,
}

/// What the engine reported, summed over the operations of a pass.
#[derive(Default)]
struct SimTotals {
    /// Traced: includes the utilisation probe.
    run_s: f64,
    solver_s: f64,
    iterations: u64,
    recomputes: u64,
    full_passes: u64,
    events: u64,
    flows: u64,
    coalesced: u64,
    fault_events: u64,
    skipped_flows: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replay `input` once under `tracer`. Returns what every operation
/// produced and the pass's per-layer metrics.
pub fn traced_pass(
    input: &Input,
    untraced: &Untraced,
    tracer: &mut Tracer,
) -> (Vec<OpStat>, Layers) {
    match input {
        Input::Suite { entries } => traced_suite(entries, untraced, tracer),
        Input::Analyze {
            qfdbs,
            sources,
            specs,
        } => traced_analysis(*qfdbs, *sources, specs, tracer),
    }
}

fn traced_suite(entries: &[String], untraced: &Untraced, t: &mut Tracer) -> (Vec<OpStat>, Layers) {
    let cache = TopoCache::new(TopoCache::DEFAULT_CAP);
    let mut ops = Vec::with_capacity(entries.len());
    let mut sim = SimTotals::default();
    let mut built_directly: HashSet<String> = HashSet::new();
    let (mut hits, mut misses, mut cache_build_s) = (0u64, 0u64, 0.0f64);
    let (mut config_bytes, mut report_bytes) = (0u64, 0u64);
    let (mut generated_flows, mut routes, mut hops, mut repeated_pairs) = (0u64, 0u64, 0u64, 0u64);
    let mut path = Vec::new();

    for (i, entry) in entries.iter().enumerate() {
        let op = Some(i);
        let op_span = t.enter("op", op);
        config_bytes += entry.len() as u64;
        let (parsed, _) = t.timed("core.config.parse", op, || {
            serde_json::from_str::<ExperimentConfig>(entry)
        });
        let outcome = parsed
            .map_err(|e| format!("parse: {e}"))
            .and_then(|mut cfg| {
                // The generator cost of each distinct topology, apart from the
                // route table the cache adds to small ones.
                if built_directly
                    .insert(serde_json::to_string(&cfg.topology).expect("specs serialize"))
                {
                    let _ = t.timed("topo.build", op, || cfg.topology.build());
                }
                let (cached, took) = t.timed("core.topocache.get_or_build", op, || {
                    cache.get_or_build(&cfg.topology)
                });
                let (topo, hit) = cached.map_err(|e| e.to_string())?;
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                    cache_build_s += took;
                }
                let (dag, _) = t.timed("workloads.generate", op, || {
                    let tasks = cfg.workload.num_tasks();
                    let mapping = cfg.mapping.build(tasks, topo.num_endpoints());
                    cfg.workload.generate(&mapping)
                });
                generated_flows += dag.flows().len() as u64;
                let (routed_hops, _) = t.timed("topo.route", op, || {
                    let mut total = 0u64;
                    for flow in dag.flows() {
                        path.clear();
                        topo.route(NodeId(flow.src), NodeId(flow.dst), &mut path);
                        total += path.len() as u64;
                    }
                    total
                });
                routes += dag.flows().len() as u64;
                hops += routed_hops;
                let distinct: HashSet<(u32, u32)> =
                    dag.flows().iter().map(|f| (f.src, f.dst)).collect();
                repeated_pairs += (dag.flows().len() - distinct.len()) as u64;
                drop(dag);

                cfg.sim.trace = true;
                let (result, _) = t.timed("core.run_experiment", op, || run_experiment(&cfg));
                if let Ok(r) = &result {
                    sim.run_s += r.wall_seconds;
                    sim.iterations += r.maxmin_iterations;
                    sim.recomputes += r.rate_recomputes;
                    sim.events += r.events;
                    sim.flows += r.flows;
                    sim.coalesced += r.flows_coalesced;
                    sim.fault_events += r.fault_events_applied;
                    sim.skipped_flows += r.skipped_flows;
                    if let Some(m) = &r.metrics {
                        sim.solver_s += m.solver_seconds_total;
                        sim.full_passes += m.full_passes;
                    }
                }
                let (text, _) = t.timed("core.report.serialize", op, || {
                    serde_json::to_string(&result).expect("results serialize")
                });
                report_bytes += text.len() as u64;
                Ok(OpStat::of_experiment(&result))
            });
        ops.push(outcome.unwrap_or_else(|reason| OpStat::Failed { reason }));
        t.exit(op_span);
    }

    let mut m = Layers::new();
    m.insert("sim.maxmin.busy_s", sim.solver_s);
    m.insert("sim.maxmin.iterations", sim.iterations as f64);
    m.insert("sim.maxmin.recomputes", sim.recomputes as f64);
    m.insert(
        "sim.maxmin.full_pass_frac",
        ratio(sim.full_passes as f64, sim.recomputes as f64),
    );
    m.insert("sim.run.busy_s", untraced.sim_s);
    m.insert("sim.run.events", sim.events as f64);
    m.insert("sim.run.flows", sim.flows as f64);
    m.insert(
        "sim.run.us_per_event",
        ratio(untraced.sim_s * 1e6, sim.events as f64),
    );
    m.insert("sim.engine.self_s", untraced.sim_s - sim.solver_s);
    m.insert(
        "trace.overhead_frac",
        ratio(sim.run_s, untraced.sim_s) - 1.0,
    );
    // Computed from the DAGs, not read from the engine (it does not report
    // its route cache through `run_experiment`): the share of flows whose
    // (src, dst) pair an earlier flow of the same run already routed.
    m.insert(
        "sim.route_cache.hit_frac",
        ratio(repeated_pairs as f64, routes as f64),
    );
    m.insert(
        "sim.coalesce.frac",
        ratio(sim.coalesced as f64, sim.flows as f64),
    );
    m.insert("sim.fault.events_applied", sim.fault_events as f64);
    m.insert("sim.fault.skipped_flows", sim.skipped_flows as f64);
    let (build_s, builds) = t.busy("topo.build");
    m.insert("topo.build.busy_s", build_s);
    m.insert("topo.build.count", builds as f64);
    m.insert("topo.route.busy_s", t.busy("topo.route").0);
    m.insert("topo.route.routes", routes as f64);
    m.insert("topo.route.hops", hops as f64);
    m.insert("core.topocache.build_s", cache_build_s);
    m.insert("core.topocache.hits", hits as f64);
    m.insert("core.topocache.misses", misses as f64);
    m.insert("core.topocache.tables_built", untraced.tables_built as f64);
    m.insert("core.suite.non_sim_s", untraced.suite_s - untraced.sim_s);
    m.insert("core.config.parse_s", t.busy("core.config.parse").0);
    m.insert("core.config.bytes", config_bytes as f64);
    m.insert("core.report.serialize_s", t.busy("core.report.serialize").0);
    m.insert("core.report.bytes", report_bytes as f64);
    m.insert("workloads.generate.busy_s", t.busy("workloads.generate").0);
    m.insert("workloads.generate.flows", generated_flows as f64);
    (ops, m)
}

fn traced_analysis(
    qfdbs: u64,
    sources: usize,
    specs: &str,
    t: &mut Tracer,
) -> (Vec<OpStat>, Layers) {
    let failed = |reason: String| (vec![OpStat::Failed { reason }], Layers::new());
    let scale = match SystemScale::new(qfdbs) {
        Ok(scale) => scale,
        Err(e) => return failed(e),
    };
    let (parsed, _) = t.timed("core.config.parse", None, || {
        serde_json::from_str::<Vec<TopologySpec>>(specs)
    });
    let specs_parsed = match parsed {
        Ok(specs) => specs,
        Err(e) => return failed(format!("parse: {e}")),
    };
    let mut ops = Vec::with_capacity(specs_parsed.len());
    let (mut measured_sources, mut pairs, mut report_bytes) = (0u64, 0u64, 0u64);
    for (i, spec) in specs_parsed.iter().enumerate() {
        let op = Some(i);
        let op_span = t.enter("op", op);
        // `analyze_distances` builds the topology itself; building it once
        // more beside the call is how its share is told from the estimate's.
        let _ = t.timed("topo.build", op, || spec.build());
        let (report, _) = t.timed("analysis.analyze_distances", op, || {
            analyze_distances(
                scale,
                std::slice::from_ref(spec),
                SourceBudget::Sample(sources),
                1,
            )
        });
        match report {
            Ok(report) => {
                let (text, _) = t.timed("core.report.serialize", op, || {
                    serde_json::to_string(&report).expect("reports serialize")
                });
                report_bytes += text.len() as u64;
                for row in &report.rows {
                    measured_sources += row.stats.sources_measured as u64;
                    pairs += row.stats.histogram.iter().sum::<u64>();
                    ops.push(OpStat::of_distance_row(row));
                }
            }
            Err(e) => ops.push(OpStat::Failed {
                reason: e.to_string(),
            }),
        }
        t.exit(op_span);
    }
    let (build_s, builds) = t.busy("topo.build");
    let estimate_s = (t.busy("analysis.analyze_distances").0 - build_s).max(0.0);
    let mut m = Layers::new();
    m.insert("topo.build.busy_s", build_s);
    m.insert("topo.build.count", builds as f64);
    m.insert("core.config.parse_s", t.busy("core.config.parse").0);
    m.insert("core.config.bytes", specs.len() as f64);
    m.insert("core.report.serialize_s", t.busy("core.report.serialize").0);
    m.insert("core.report.bytes", report_bytes as f64);
    m.insert("analysis.estimate.busy_s", estimate_s);
    m.insert("analysis.estimate.sources", measured_sources as f64);
    m.insert("analysis.estimate.pairs", pairs as f64);
    m.insert(
        "analysis.estimate.ns_per_pair",
        ratio(estimate_s * 1e9, pairs as f64),
    );
    (ops, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span_and_sum_by_name() {
        let mut t = Tracer::new();
        let op = t.enter("op", Some(0));
        let ((), first) = t.timed("leaf", Some(0), || ());
        let ((), second) = t.timed("leaf", Some(0), || ());
        let whole = t.exit(op);
        assert_eq!(t.spans[1].parent, Some(op));
        assert_eq!(t.spans[op].parent, None);
        assert_eq!(t.busy("leaf"), (first + second, 2));
        assert!(whole >= first + second);
    }
}
