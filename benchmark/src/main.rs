//! The benchmark's child process: one workload, one seed, one JSON result.
//!
//! `run.sh` builds this and starts it once per workload. What is measured
//! is host time and memory; simulated statistics are only checked. See
//! `README.md` for the metric definitions.

mod compare;
mod gen;
mod host;
mod ops;
mod trace;

use exaflow::{
    analyze_distances, run_experiment, ExperimentConfig, ExperimentSuite, SourceBudget,
    SystemScale, TopologySpec,
};
use gen::Input;
use ops::{float, uint, OpStat};
use serde_json::{Map, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Layers, Tracer, Untraced};

/// Length of one measured run when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json` (a unit test holds them together).
const DEFAULT_SECONDS: f64 = 15.0;
/// A timing is a median over at least this many repetitions.
const MIN_REPS: usize = 3;
/// Fresh processes that time set-up before each repetition; `setup_s` is the
/// median of them all.
const SETUPS_PER_REP: usize = 2;

/// End-to-end metrics (name, unit), printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (name, unit), printed with `--trace 1`. A metric a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("sim.maxmin.busy_s", "s"),
    ("sim.maxmin.iterations", "count"),
    ("sim.maxmin.recomputes", "count"),
    ("sim.maxmin.full_pass_frac", "ratio"),
    ("sim.run.busy_s", "s"),
    ("sim.run.events", "count"),
    ("sim.run.flows", "count"),
    ("sim.run.us_per_event", "us"),
    ("sim.engine.self_s", "s"),
    ("sim.route_cache.hit_frac", "ratio"),
    ("sim.coalesce.frac", "ratio"),
    ("sim.fault.events_applied", "count"),
    ("sim.fault.skipped_flows", "count"),
    ("sim.pool.auto_over_1", "ratio"),
    ("topo.build.busy_s", "s"),
    ("topo.build.count", "count"),
    ("topo.route.busy_s", "s"),
    ("topo.route.routes", "count"),
    ("topo.route.hops", "count"),
    ("core.topocache.build_s", "s"),
    ("core.topocache.hits", "count"),
    ("core.topocache.misses", "count"),
    ("core.topocache.tables_built", "count"),
    ("core.suite.non_sim_s", "s"),
    ("core.suite.scale2_ratio", "ratio"),
    ("core.config.parse_s", "s"),
    ("core.config.bytes", "bytes"),
    ("core.report.serialize_s", "s"),
    ("core.report.bytes", "bytes"),
    ("workloads.generate.busy_s", "s"),
    ("workloads.generate.flows", "count"),
    ("analysis.estimate.busy_s", "s"),
    ("analysis.estimate.sources", "count"),
    ("analysis.estimate.pairs", "count"),
    ("analysis.estimate.ns_per_pair", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// What this process does; the last flag that names one wins, so a child
/// started with the parent's arguments plus `--setup-only` only sets up.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `--trace 0`: repeat the workload, print the end-to-end metrics.
    Measure,
    /// `--trace 1`: traced passes, print the per-layer metrics.
    Layers,
    SetupOnly,
    OneShot,
    Bless,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    smoke: bool,
    /// The benchmark's own directory (`expected/` is read from it).
    dir: PathBuf,
    /// Where result and trace files go.
    out: PathBuf,
}

const USAGE: &str = "usage: exaflow-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--bless] [--dir <benchmark dir>] [--out <dir>]
       exaflow-benchmark --compare <dir a> <dir b> --benchmark-json <file>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        mode: Mode::Measure,
        smoke: false,
        dir: PathBuf::from("benchmark"),
        out: PathBuf::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be > 0".into());
                }
            }
            "--trace" => {
                args.mode = match value()?.as_str() {
                    "0" => Mode::Measure,
                    "1" => Mode::Layers,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.mode = Mode::Bless,
            "--setup-only" => args.mode = Mode::SetupOnly,
            "--one-shot" => args.mode = Mode::OneShot,
            "--dir" => args.dir = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if !gen::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            gen::WORKLOADS,
            args.workload
        ));
    }
    if args.out.as_os_str().is_empty() {
        args.out = args.dir.join("out");
    }
    Ok(args)
}

/// What set-up leaves behind for the timed repetitions.
struct Prepared {
    input: Input,
    /// The suite document (empty for the analysis workload).
    document: String,
    reference: Option<Vec<OpStat>>,
}

/// Process start to first timed repetition: generate the inputs from the
/// seed, load the reference, run the warm-up experiments.
fn setup(args: &Args) -> Result<Prepared, String> {
    let input = gen::generate(&args.workload, args.seed, args.smoke)?;
    let document = match &input {
        Input::Suite { entries } => gen::suite_json(entries),
        Input::Analyze { .. } => String::new(),
    };
    // Smoke sizes have no pinned reference; nor do seeds other than 1 and 2.
    let reference = if args.smoke || args.mode == Mode::Bless {
        None
    } else {
        ops::load_reference(&args.dir, &args.workload, args.seed)?
    };
    for config in gen::warm_up_configs(args.smoke)? {
        let warm_up: ExperimentConfig =
            serde_json::from_str(&config).map_err(|e| format!("warm-up config: {e}"))?;
        run_experiment(&warm_up).map_err(|e| format!("warm-up experiment: {e}"))?;
    }
    Ok(Prepared {
        input,
        document,
        reference,
    })
}

/// One untraced repetition: what a user waits for, timed from outside.
#[derive(Default)]
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    ops: Vec<OpStat>,
    /// All zero for the analysis workload.
    beside: Untraced,
}

fn repetition(prepared: &Prepared, suite_threads: usize) -> Rep {
    let started = Instant::now();
    let cpu_started = host::process_cpu_seconds();
    let mut rep = Rep::default();
    let outcome: Result<(), String> = match &prepared.input {
        // As `exaflow sweep` does: parse the document, run it as one suite
        // with the default topology cache, serialise the results.
        Input::Suite { .. } => serde_json::from_str::<Vec<ExperimentConfig>>(&prepared.document)
            .map_err(|e| format!("parse suite: {e}"))
            .map(|configs| {
                let suite = ExperimentSuite::new(configs).threads(suite_threads);
                let suite_started = Instant::now();
                let run = suite.run();
                rep.beside.suite_s = suite_started.elapsed().as_secs_f64();
                black_box(serde_json::to_string(&run.results).expect("results serialize"));
                rep.beside.sim_s = run.results.iter().flatten().map(|r| r.wall_seconds).sum();
                rep.beside.tables_built = run.report.topo_cache.map_or(0, |c| c.tables_built);
                rep.ops = run.results.iter().map(OpStat::of_experiment).collect();
            }),
        // As `exaflow analyze` does.
        Input::Analyze {
            qfdbs,
            sources,
            specs,
        } => SystemScale::new(*qfdbs).and_then(|scale| {
            let specs: Vec<TopologySpec> =
                serde_json::from_str(specs).map_err(|e| format!("parse specs: {e}"))?;
            let report = analyze_distances(scale, &specs, SourceBudget::Sample(*sources), 1)
                .map_err(|e| e.to_string())?;
            black_box(serde_json::to_string(&report).expect("reports serialize"));
            rep.ops = report.rows.iter().map(OpStat::of_distance_row).collect();
            Ok(())
        }),
    };
    if let Err(reason) = outcome {
        rep.ops = vec![OpStat::Failed { reason }];
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.cpu_s = host::process_cpu_seconds() - cpu_started;
    rep
}

/// Operations of `observed` that failed or disagree with `expected`. A
/// length mismatch fails every operation, since nothing lines up.
fn count_failed(
    what: &str,
    observed: &[OpStat],
    expected: &[OpStat],
    agree: impl Fn(&OpStat, &OpStat) -> bool,
) -> u64 {
    if observed.len() != expected.len() {
        eprintln!(
            "error: {what}: {} operations observed, {} expected",
            observed.len(),
            expected.len()
        );
        return observed.len().max(1) as u64;
    }
    let mut failed = 0;
    for (i, (o, e)) in observed.iter().zip(expected).enumerate() {
        if matches!(o, OpStat::Failed { .. }) || !agree(o, e) {
            eprintln!("error: {what}: operation {i}: got {o:?}, expected {e:?}");
            failed += 1;
        }
    }
    failed
}

/// Check one repetition's operations: the first against the pinned
/// reference when there is one, every later one bit for bit against the
/// first.
fn check(prepared: &Prepared, first: Option<&[OpStat]>, ops: &[OpStat], what: &str) -> u64 {
    match (first, &prepared.reference) {
        (Some(first), _) => count_failed(what, ops, first, |a, b| a == b),
        (None, Some(reference)) => count_failed(what, ops, reference, OpStat::matches_reference),
        (None, None) => count_failed(what, ops, ops, |_, _| true),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Start this program again with `mode` added to its arguments and wait
/// for it. Returns spawn-to-exit wall seconds and what it printed.
fn child(argv: &[String], mode: &str) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let output = Command::new(&exe)
        .args(argv)
        .arg(mode)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("child {mode} failed: {}", output.status));
    }
    Ok((wall_s, String::from_utf8_lossy(&output.stdout).into_owned()))
}

/// `--one-shot`: set up, run the workload once as a user's process would,
/// and print this process's peak memory. Repetitions in one process reuse
/// and fragment the heap, so the parent's own peak depends on how many it
/// ran; this one does not.
fn one_shot(args: &Args) -> Result<ExitCode, String> {
    let prepared = setup(args)?;
    let rep = repetition(&prepared, 1);
    if check(&prepared, None, &rep.ops, "one-shot run") > 0 {
        return Ok(ExitCode::FAILURE);
    }
    println!("{}", host::peak_rss_mib()?);
    Ok(ExitCode::SUCCESS)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Provenance recorded in every output.
fn provenance(args: &Args) -> Map {
    let env = |key: &str| Value::String(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let mut m = Map::new();
    m.insert("workload", Value::String(args.workload.clone()));
    m.insert("seed", uint(args.seed));
    m.insert("smoke", Value::Bool(args.smoke));
    m.insert("git_sha", env("BENCH_GIT_SHA"));
    m.insert("rustc", env("BENCH_RUSTC"));
    m.insert("nproc", uint(nproc() as u64));
    m.insert("exaflow_threads", env("EXAFLOW_THREADS"));
    m
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(value).expect("values serialize");
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// Print every metric by name and unit, then the one-line result the
/// driver reads. Returns the process exit code.
fn report(table: &[(&str, &str)], values: &[f64], attempted: u64, failed: u64) -> ExitCode {
    let mut metrics = Map::new();
    for (&(name, unit), &value) in table.iter().zip(values) {
        println!("{name:<32} {value:>16.6} {unit}");
        let mut m = Map::new();
        m.insert("value", float(value));
        m.insert("unit", Value::String(unit.to_owned()));
        metrics.insert(name, Value::Object(m));
    }
    println!(
        "fail_frac                        {:>16.6} ratio ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    let mut line = Map::new();
    line.insert("correct", Value::Bool(failed == 0));
    line.insert("attempted", uint(attempted));
    line.insert("failed", uint(failed));
    line.insert("metrics", Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(line)).expect("values serialize")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace 0`: repeat the workload for `--seconds`, report medians.
fn measure(args: &Args, argv: &[String]) -> Result<ExitCode, String> {
    let peak_rss_mib: f64 = child(argv, "--one-shot")?
        .1
        .trim()
        .parse()
        .map_err(|e| format!("one-shot child printed no peak memory: {e}"))?;
    let prepared = setup(args)?;
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_walls = Vec::new();
    loop {
        // Set-up is timed from outside, each time in a fresh process, so
        // that one-time initialisation a later change adds shows every
        // time; and between the repetitions, so that it samples the same
        // stretch of host time as they do and not one second before it.
        for _ in 0..SETUPS_PER_REP {
            setup_walls.push(child(argv, "--setup-only")?.0);
        }
        let rep = repetition(&prepared, 1);
        let first = reps.first().map(|r| r.ops.as_slice());
        failed += check(
            &prepared,
            first,
            &rep.ops,
            &format!("repetition {}", reps.len() + 1),
        );
        attempted += rep.ops.len() as u64;
        let last = rep.wall_s;
        reps.push(rep);
        // Stop once another repetition would overrun the run length.
        let overrun = started.elapsed().as_secs_f64() + last > args.seconds;
        if reps.len() >= min_reps && (overrun || args.smoke) {
            break;
        }
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let (wall_s, cpu_s, setup_s) = (median(&walls), median(&cpus), median(&setup_walls));

    let mut doc = provenance(args);
    doc.insert("ops", uint(reps[0].ops.len() as u64));
    doc.insert("attempted_ops", uint(attempted));
    doc.insert("failed_ops", uint(failed));
    doc.insert("reference", Value::Bool(prepared.reference.is_some()));
    doc.insert("reps", uint(reps.len() as u64));
    doc.insert(
        "rep_wall_s",
        Value::Array(walls.iter().map(|&w| float(w)).collect()),
    );
    doc.insert(
        "rep_cpu_s",
        Value::Array(cpus.iter().map(|&c| float(c)).collect()),
    );
    doc.insert(
        "setup_wall_s",
        Value::Array(setup_walls.iter().map(|&w| float(w)).collect()),
    );
    doc.insert("wall_s", float(wall_s));
    doc.insert("cpu_s", float(cpu_s));
    doc.insert("peak_rss_mib", float(peak_rss_mib));
    doc.insert("setup_s", float(setup_s));
    write_json(
        &args.out.join(format!("{}.json", args.workload)),
        &Value::Object(doc),
    )?;

    println!(
        "# {} seed {}: {} operations x {} repetitions",
        args.workload,
        args.seed,
        reps[0].ops.len(),
        reps.len()
    );
    if args.workload == "collectives_grid_2048" {
        println!("# the paper's grid and linear placement are fixed: the seed does not enter");
    }
    Ok(report(
        &END_TO_END,
        &[wall_s, cpu_s, peak_rss_mib, setup_s],
        attempted,
        failed,
    ))
}

/// One experiment at `solver_threads = nproc` over the same at 1: what the
/// engine's own thread pool costs on this host (not gated; the spread is
/// several-fold).
fn pool_auto_over_1(smoke: bool) -> Result<f64, String> {
    let mut cfg: ExperimentConfig = serde_json::from_str(&gen::pool_probe_config(smoke)?)
        .map_err(|e| format!("pool probe config: {e}"))?;
    let mut wall = |threads: usize| {
        cfg.sim.solver_threads = threads;
        run_experiment(&cfg)
            .map(|r| r.wall_seconds)
            .map_err(|e| format!("pool probe: {e}"))
    };
    let single = wall(1)?;
    Ok(wall(nproc())? / single)
}

/// `--trace 1`: pairs of one untraced repetition and one traced pass for
/// `--seconds`; per-layer times are medians over the passes, counts must
/// repeat exactly.
fn layers(args: &Args) -> Result<ExitCode, String> {
    let prepared = setup(args)?;
    let started = Instant::now();
    let mut passes: Vec<Layers> = Vec::new();
    let mut first_ops: Option<Vec<OpStat>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let tracer = loop {
        let pair_started = Instant::now();
        let rep = repetition(&prepared, 1);
        failed += check(
            &prepared,
            first_ops.as_deref(),
            &rep.ops,
            "untraced repetition",
        );
        attempted += rep.ops.len() as u64;
        let first = first_ops.get_or_insert(rep.ops);

        let mut tracer = Tracer::new();
        let (ops, m) = trace::traced_pass(&prepared.input, &rep.beside, &mut tracer);
        failed += count_failed("traced pass", &ops, first, |a, b| a == b);
        attempted += ops.len() as u64;
        passes.push(m);
        let pair_s = pair_started.elapsed().as_secs_f64();
        if args.smoke || started.elapsed().as_secs_f64() + pair_s > args.seconds {
            break tracer;
        }
    };

    let mut extras = Layers::new();
    if args.workload == "heavy_random_1024" {
        extras.insert("sim.pool.auto_over_1", pool_auto_over_1(args.smoke)?);
    }
    if args.workload == "campaign_small_512" && nproc() >= 2 {
        let one = repetition(&prepared, 1).beside.suite_s;
        extras.insert(
            "core.suite.scale2_ratio",
            repetition(&prepared, 2).beside.suite_s / one,
        );
    }

    let value = |name: &str| -> f64 {
        if let Some(&v) = extras.get(name) {
            return v;
        }
        let values: Vec<f64> = passes.iter().filter_map(|m| m.get(name).copied()).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    for &(name, unit) in &PER_LAYER {
        let differs = passes.iter().any(|m| m.get(name) != passes[0].get(name));
        if unit == "count" && differs {
            eprintln!("error: count {name} differs between traced passes of one process");
            failed += 1;
        }
    }

    let values = PER_LAYER.map(|(name, _)| value(name));
    let mut doc = provenance(args);
    doc.insert("passes", uint(passes.len() as u64));
    let mut metrics = Map::new();
    for (&(name, _), &v) in PER_LAYER.iter().zip(&values) {
        metrics.insert(name, float(v));
    }
    doc.insert("metrics", Value::Object(metrics));
    write_json(
        &args.out.join(format!("{}.layers.json", args.workload)),
        &Value::Object(doc),
    )?;
    let trace_path = args.out.join(format!("trace-{}.json", args.workload));
    let mut trace_doc = provenance(args);
    trace_doc.insert("spans", tracer.to_json());
    write_json(&trace_path, &Value::Object(trace_doc))?;

    println!(
        "# {} seed {}: {} traced passes, spans of the last in {}",
        args.workload,
        args.seed,
        passes.len(),
        trace_path.display()
    );
    Ok(report(&PER_LAYER, &values, attempted, failed))
}

/// `--bless`: pin what one repetition produces as the reference.
fn bless(args: &Args) -> Result<ExitCode, String> {
    let prepared = setup(args)?;
    let rep = repetition(&prepared, 1);
    let path = ops::bless(&args.dir, &args.workload, args.seed, &rep.ops)?;
    println!("blessed {} ({} operations)", path.display(), rep.ops.len());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Every end-to-end number is taken on one thread: with the engine's
    // auto thread count this two-core host spends most of its time in the
    // kernel and cannot repeat a time within a tenth (see README.md).
    std::env::set_var("EXAFLOW_THREADS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("--compare") {
        compare::run(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| match args.mode {
            Mode::Measure => measure(&args, &argv),
            Mode::Layers => layers(&args),
            Mode::SetupOnly => setup(&args).map(|_| ExitCode::SUCCESS),
            Mode::OneShot => one_shot(&args),
            Mode::Bless => bless(&args),
        })
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let unit = m["unit"].as_str().unwrap_or("").to_owned();
                (m["name"].as_str().expect("a name").to_owned(), unit)
            })
            .collect()
    }

    /// `BENCHMARK.json` names exactly what this program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names(&doc["end_to_end"]), own(&END_TO_END));
        assert_eq!(names(&doc["per_layer"]), own(&PER_LAYER));
        let workloads: Vec<String> = names(&doc["workloads"])
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, gen::WORKLOADS);
        assert_eq!(doc["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
        assert_eq!(doc["paths"][0].as_str(), Some("benchmark"));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
