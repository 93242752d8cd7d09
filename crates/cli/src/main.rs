//! `exaflow` — command-line driver for the multi-tier interconnect study.
//!
//! ```text
//! exaflow run <config.json>      run an experiment from a JSON config
//! exaflow run -                  read the config from stdin
//! exaflow run c.json --trace t.jsonl
//!                                also stream every engine state transition
//!                                to t.jsonl as JSON Lines (one event per
//!                                line; see exaflow_sim::trace) and attach
//!                                engine metrics to the printed result; the
//!                                engine is sequential (parallelism pays
//!                                across runs: sweep, resilience, analyze)
//! exaflow sweep <suite.json>     run a whole suite (JSON array of configs)
//!                                in parallel; --threads N picks the pool
//!                                size (1 = serial); --metrics enables
//!                                tracing on every entry and aggregates
//!                                engine counters into the suite report;
//!                                --journal f.jsonl appends every finished
//!                                outcome to a crash-safe JSONL journal and
//!                                --resume reuses journaled outcomes instead
//!                                of re-running them; each entry runs once,
//!                                and the sweep exits 3 when any entry ended
//!                                in a typed error (a panic and a deadline
//!                                overrun included)
//! exaflow resilience <spec.json> run a Monte-Carlo resilience campaign
//!                                (fault rates x recovery policies x
//!                                replicas) and print per-cell degradation
//!                                metrics as deterministic JSON; --journal /
//!                                --resume work as for sweep (a resumed
//!                                campaign report is bit-identical)
//! exaflow analyze                paper-scale distance analysis: build the
//!                                Table 1 topologies at --scale <qfdbs>
//!                                (default 2048) and sweep their distance
//!                                distributions; --sources all measures
//!                                every endpoint (exact, bit-identical at
//!                                any --threads), --sources <n> measures a
//!                                stratified deterministic sample seeded
//!                                from each spec's fingerprint and reports
//!                                stderr + 95% confidence bounds;
//!                                --hybrids adds NestTree/NestGHC(t=2,u=4)
//! exaflow reproduce <artefact>   regenerate one of the paper's artefacts:
//!                                fig2 | fig3 | fig4 | fig5 | table1 | table2,
//!                                or the resilience extension; prints its
//!                                text (fig2 also writes figure2/*.dot);
//!                                fig4, fig5, table1 and table2 take
//!                                --scale <qfdbs> (default 2048 for figures,
//!                                131072 for tables), --threads <n> and
//!                                --json <path>; fig2, fig3 and resilience
//!                                take no options; usage errors exit 2
//! exaflow topo <config.json>     build the topology and print its stats
//! exaflow sample <name>          print a sample experiment config
//! exaflow help                   this text
//! ```
//!
//! An experiment config is the JSON form of `exaflow::ExperimentConfig`:
//!
//! ```json
//! {
//!   "topology": {"topology": "nested", "upper": "GeneralizedHypercube",
//!                 "subtori": 64, "t": 2, "u": 4},
//!   "workload": {"workload": "all_reduce", "tasks": 512, "bytes": 1048576}
//! }
//! ```

use exaflow::prelude::*;
use exaflow::reproduce::{reproduce, Artefact};
use std::io::{Read, Write};

const SAMPLES: &[(&str, &str)] = &[
    (
        "allreduce-nestghc",
        r#"{
  "topology": {"topology": "nested", "upper": "GeneralizedHypercube", "subtori": 64, "t": 2, "u": 4},
  "workload": {"workload": "all_reduce", "tasks": 512, "bytes": 1048576}
}"#,
    ),
    (
        "sweep3d-torus",
        r#"{
  "topology": {"topology": "torus", "dims": [8, 8, 8]},
  "workload": {"workload": "sweep3d", "gx": 8, "gy": 8, "gz": 8, "bytes": 262144}
}"#,
    ),
    (
        "mapreduce-fattree",
        r#"{
  "topology": {"topology": "fattree", "k": 8, "n": 3},
  "workload": {"workload": "map_reduce", "tasks": 128, "distribute_bytes": 4194304,
               "shuffle_bytes": 65536, "gather_bytes": 65536}
}"#,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("sweep") => cmd_sweep(rest),
        Some("resilience") => cmd_resilience(rest),
        Some("analyze") => cmd_analyze(rest),
        Some("reproduce") => cmd_reproduce(rest),
        Some("topo") => cmd_topo(args.get(1).map(String::as_str)),
        Some("sample") => Ok(cmd_sample(args.get(1).map(String::as_str))),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_help();
            Ok(0)
        }
        Some(other) => {
            eprintln!("unknown command '{other}'");
            print_help();
            Ok(2)
        }
    };
    // A command's `Err` is a usage or input error: exit 1.
    std::process::exit(outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        1
    }));
}

/// Writes `text` and a newline to stdout. A reader that closed the pipe
/// early (`exaflow run c.json | head -1`) wants no more output, so a
/// broken pipe ends the process quietly with status 0; any other write
/// error ends it with status 1.
fn say(text: impl std::fmt::Display) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: write stdout: {e}");
        std::process::exit(1);
    }
}

fn print_help() {
    eprintln!("usage:");
    eprintln!("  exaflow run <config.json | -> [--trace <file.jsonl>]");
    eprintln!("                                  run an experiment, print the result as JSON;");
    eprintln!("                                  --trace streams engine events to a JSONL file");
    eprintln!("                                  and attaches engine metrics to the result");
    eprintln!("  exaflow sweep <suite.json | -> [--threads <n>] [--metrics]");
    eprintln!("                                 [--journal <f.jsonl>] [--resume]");
    eprintln!("                                  run a JSON array of configs in parallel,");
    eprintln!("                                  print per-config results + suite metrics;");
    eprintln!("                                  --metrics traces every entry and aggregates");
    eprintln!("                                  engine counters into the suite report;");
    eprintln!("                                  --journal records each outcome crash-safely,");
    eprintln!("                                  --resume replays the journal; each entry runs");
    eprintln!("                                  once; exit 3 if any entry ended in a typed");
    eprintln!("                                  error");
    eprintln!(
        "  exaflow resilience <spec.json | -> [--threads <n>] [--journal <f.jsonl>] [--resume]"
    );
    eprintln!("                                  run a Monte-Carlo fault-injection campaign,");
    eprintln!("                                  print per-(rate, policy) degradation metrics;");
    eprintln!("                                  --journal/--resume as for sweep (resumed");
    eprintln!("                                  reports are bit-identical);");
    eprintln!("                                  exit 3 on non-fault harness errors");
    eprintln!(
        "  exaflow analyze [--scale <qfdbs>] [--sources all|<n>] [--threads <n>] [--hybrids]"
    );
    eprintln!("                                  distance analysis of the Table 1 topologies at");
    eprintln!("                                  a system scale (default 2048 QFDBs; the paper's");
    eprintln!("                                  is 131072); --sources all = exact sweep, a");
    eprintln!("                                  number = stratified sample with error bounds;");
    eprintln!("                                  --hybrids adds NestTree/NestGHC(t=2,u=4);");
    eprintln!("                                  prints a kind-tagged JSON report");
    eprintln!("  exaflow reproduce <fig2|fig3|fig4|fig5|table1|table2|resilience>");
    eprintln!("                    [--scale <qfdbs>] [--threads <n>] [--json <path>]");
    eprintln!("                                  regenerate one of the paper's artefacts and");
    eprintln!("                                  print it (fig2 also writes figure2/*.dot);");
    eprintln!("                                  --scale defaults to 2048 QFDBs for figures and");
    eprintln!("                                  131072 for tables; --json writes the results;");
    eprintln!("                                  fig2, fig3 and resilience (random cable");
    eprintln!("                                  failures, an extension) take no options;");
    eprintln!("                                  usage errors exit 2");
    eprintln!("  exaflow topo <config.json | ->  build the topology of a config, print stats");
    eprintln!("  exaflow sample [name]           print a sample config (or list names)");
}

fn read_body(path: Option<&str>) -> Result<String, String> {
    let path = path.ok_or("missing config path (use '-' for stdin)")?;
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("read stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
    }
}

fn read_config(path: Option<&str>) -> Result<ExperimentConfig, String> {
    let body = read_body(path)?;
    serde_json::from_str(&body).map_err(|e| format!("parse config: {e}"))
}

/// Structured error document printed to stdout when an experiment fails:
/// the typed [`ExperimentError`] under an `"error"` key, so scripted
/// callers can match on `error.kind` instead of scraping stderr.
#[derive(serde::Serialize)]
struct ErrorOutput {
    error: ExperimentError,
}

/// Reports a failed experiment, campaign or analysis: the error on
/// stderr, its typed JSON on stdout, exit status 1.
fn fail(error: ExperimentError) -> i32 {
    eprintln!("error: {error}");
    say(serde_json::to_string_pretty(&ErrorOutput { error }).unwrap());
    1
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let mut path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(it.next().ok_or("--trace needs a file path")?),
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other if path.is_none() => path = Some(other),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let cfg = read_config(path)?;
    let outcome = match trace_path {
        Some(tp) => {
            let file = std::fs::File::create(tp).map_err(|e| format!("create {tp}: {e}"))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            let outcome = run_experiment_with(&cfg, None, Some(&mut sink));
            sink.finish()
                .map_err(|e| format!("write trace {tp}: {e}"))?;
            outcome
        }
        None => run_experiment(&cfg),
    };
    Ok(match outcome {
        Ok(result) => {
            say(serde_json::to_string_pretty(&result).unwrap());
            0
        }
        Err(e) => fail(e),
    })
}

/// JSON document printed by `exaflow sweep`: per-config outcomes (in
/// input order, `{"Ok": ...}` or `{"Err": {typed error}}`) plus suite
/// metrics.
#[derive(serde::Serialize, serde::Deserialize)]
struct SweepOutput {
    results: Vec<Result<ExperimentResult, ExperimentError>>,
    report: SuiteReport,
}

/// Shared argument shape for `sweep` and `resilience`:
/// `<path | -> [--threads <n>] [--journal <f.jsonl>] [--resume]`.
#[derive(Default)]
struct CampaignArgs<'a> {
    path: Option<&'a str>,
    threads: Option<usize>,
    journal: Option<&'a str>,
    resume: bool,
}

fn parse_campaign_args(args: &[String]) -> Result<CampaignArgs<'_>, String> {
    let mut parsed = CampaignArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => parsed.threads = Some(n),
                _ => return Err("--threads needs a positive integer".into()),
            },
            "--journal" => match it.next() {
                Some(p) => parsed.journal = Some(p),
                None => return Err("--journal needs a file path".into()),
            },
            "--resume" => parsed.resume = true,
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other if parsed.path.is_none() => parsed.path = Some(other),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if parsed.resume && parsed.journal.is_none() {
        return Err("--resume requires --journal <path>".into());
    }
    Ok(parsed)
}

fn cmd_sweep(args: &[String]) -> Result<i32, String> {
    let metrics = args.iter().any(|a| a == "--metrics");
    let rest: Vec<String> = args.iter().filter(|a| *a != "--metrics").cloned().collect();
    let parsed_args = parse_campaign_args(&rest)?;
    let body = read_body(parsed_args.path)?;
    let mut configs: Vec<ExperimentConfig> =
        serde_json::from_str(&body).map_err(|e| format!("parse suite: {e}"))?;
    if metrics {
        for cfg in &mut configs {
            cfg.sim.trace = true;
        }
    }
    let mut suite = ExperimentSuite::new(configs);
    if let Some(n) = parsed_args.threads {
        suite = suite.threads(n);
    }
    let run = match parsed_args.journal {
        Some(journal_path) => suite
            .run_journaled(std::path::Path::new(journal_path), parsed_args.resume)
            .map_err(|e| format!("journal {journal_path}: {e}"))?,
        None => suite.run(),
    };
    eprintln!(
        "sweep: {}/{} experiments succeeded in {:.2}s on {} thread(s)",
        run.report.succeeded, run.report.experiments, run.report.wall_seconds, run.report.threads
    );
    if let Some(tc) = &run.report.topo_cache {
        eprintln!(
            "sweep: topology cache {} hit(s), {} miss(es), at most {} resident",
            tc.hits, tc.misses, tc.peak_entries
        );
    }
    for (i, res) in run.results.iter().enumerate() {
        if let Err(e) = res {
            eprintln!("error: experiment {i}: {e}");
        }
    }
    let failed = run.report.failed;
    let out = SweepOutput {
        results: run.results,
        report: run.report,
    };
    say(serde_json::to_string_pretty(&out).unwrap());
    Ok(if failed > 0 { 3 } else { 0 })
}

/// JSON document printed by `exaflow resilience`: the campaign report
/// under a `"report"` key, kind-tagged so scripted callers can tell it
/// apart from sweep/run output.
#[derive(serde::Serialize)]
struct ResilienceOutput {
    kind: &'static str,
    report: ResilienceCampaignReport,
}

fn cmd_resilience(args: &[String]) -> Result<i32, String> {
    let parsed_args = parse_campaign_args(args)?;
    let body = read_body(parsed_args.path)?;
    let spec: ResilienceCampaignSpec =
        serde_json::from_str(&body).map_err(|e| format!("parse campaign: {e}"))?;
    let journal = parsed_args
        .journal
        .map(|p| (std::path::Path::new(p), parsed_args.resume));
    let report = match run_resilience_campaign(&spec, parsed_args.threads, journal) {
        Ok(report) => report,
        Err(e) => return Ok(fail(e)),
    };
    eprintln!(
        "resilience: {} runs ({} rates x {} policies x {} replicas), {} failed",
        report.total_runs,
        spec.fault_rates_per_s.len(),
        spec.policies.len(),
        report.replicas_per_cell,
        report.failed_runs,
    );
    for cell in &report.cells {
        eprintln!(
            "  rate {:>10.4}/s {:<16} delivered {:>6.2}% inflation p50 {:.3} p99 {:.3}",
            cell.fault_rate_per_s,
            cell.policy.name(),
            cell.delivered_flow_fraction * 100.0,
            cell.inflation_p50,
            cell.inflation_p99,
        );
    }
    let failed_runs = report.failed_runs;
    let out = ResilienceOutput {
        kind: "resilience_campaign",
        report,
    };
    say(serde_json::to_string_pretty(&out).unwrap());
    Ok(if failed_runs > 0 { 3 } else { 0 })
}

fn cmd_analyze(args: &[String]) -> Result<i32, String> {
    let mut scale_qfdbs = SystemScale::DEFAULT_SIM.qfdbs;
    let mut sources = SourceBudget::All;
    let mut threads = None;
    let mut hybrids = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(q) => scale_qfdbs = q,
                None => return Err("--scale needs a QFDB count".into()),
            },
            "--sources" => match it.next().map(String::as_str) {
                Some("all") => sources = SourceBudget::All,
                v => match v.and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => sources = SourceBudget::Sample(n),
                    _ => return Err("--sources needs 'all' or a positive integer".into()),
                },
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => return Err("--threads needs a positive integer".into()),
            },
            "--hybrids" => hybrids = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let scale = SystemScale::new(scale_qfdbs)?;
    let specs = table1_specs(scale, hybrids).map_err(|e| e.to_string())?;
    let threads = threads.unwrap_or_else(exaflow::analysis::default_threads);
    let started = std::time::Instant::now();
    let report = match analyze_distances(scale, &specs, sources, threads) {
        Ok(report) => report,
        Err(e) => return Ok(fail(e)),
    };
    eprintln!(
        "analyze: {} topolog{} at {} QFDBs, {} source(s) each, {} thread(s), {:.2}s",
        report.rows.len(),
        if report.rows.len() == 1 { "y" } else { "ies" },
        scale.qfdbs,
        match sources {
            SourceBudget::All => "all".to_string(),
            SourceBudget::Sample(n) => n.to_string(),
        },
        threads,
        started.elapsed().as_secs_f64(),
    );
    for row in &report.rows {
        let ci = row
            .stats
            .confidence_95
            .map(|c| format!(" ± {c:.3}"))
            .unwrap_or_default();
        eprintln!(
            "  {:<40} avg {:.2}{ci}, diameter {}{}",
            row.topology,
            row.stats.average,
            row.stats.diameter,
            if row.stats.exact {
                " (exact)"
            } else {
                " (sampled)"
            }
        );
    }
    say(serde_json::to_string_pretty(&report).unwrap());
    Ok(0)
}

fn cmd_reproduce(args: &[String]) -> Result<i32, String> {
    // Usage errors exit 2; a run that fails exits 1.
    let usage = |e: &str| {
        eprintln!("error: {e}");
        Ok(2)
    };
    let help = |a: &String| a == "-h" || a == "--help";
    let Some(artefact) = args.first().and_then(|a| Artefact::parse(a)) else {
        if args.first().is_some_and(help) {
            print_help();
            return Ok(0);
        }
        return usage("reproduce needs one of fig2, fig3, fig4, fig5, table1, table2, resilience");
    };
    let fixed = [Artefact::Fig2, Artefact::Fig3, Artefact::Resilience];
    if fixed.contains(&artefact) && args.len() > 1 {
        return usage(&format!("{} takes no options", args[0]));
    }
    if args.iter().any(help) {
        print_help();
        return Ok(0);
    }
    let (mut qfdbs, mut threads, mut json) = (artefact.default_scale().qfdbs, None, None);
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next()) {
            ("--scale", Some(v)) => match v.parse() {
                Ok(q) => qfdbs = q,
                Err(_) => return usage("--scale needs a QFDB count"),
            },
            ("--threads", Some(v)) => match v.parse() {
                Ok(n) if n >= 1 => threads = Some(n),
                _ => return usage("--threads needs a positive integer"),
            },
            ("--json", Some(path)) => json = Some(path.as_str()),
            ("--scale" | "--threads" | "--json", None) => {
                return usage(&format!("{arg} needs a value"))
            }
            (other, _) => return usage(&format!("unexpected argument '{other}'")),
        }
    }
    let scale = match SystemScale::new(qfdbs) {
        Ok(s) => s,
        Err(e) => return usage(&e),
    };
    let started = std::time::Instant::now();
    let out = reproduce(artefact, scale, threads)?;
    let json_file = json.zip(out.json.as_deref());
    let files = out.files.iter().map(|(p, b)| (p.as_str(), b.as_str()));
    for (path, body) in files.chain(json_file) {
        write_file(path, body)?;
    }
    eprintln!(
        "reproduce {}: {:.2}s",
        args[0],
        started.elapsed().as_secs_f64()
    );
    say(out.text);
    Ok(0)
}

/// Writes `body` to `path`, creating its directory first.
fn write_file(path: &str, body: &str) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

fn cmd_topo(path: Option<&str>) -> Result<i32, String> {
    let cfg = read_config(path)?;
    let topo = cfg.topology.build().map_err(|e| e.to_string())?;
    say(topo.name());
    say(exaflow::netgraph::NetworkStats::of(topo.network()));
    let stats = distance_estimate(topo.as_ref(), 64, 7, 1);
    say(format_args!(
        "distance: avg {:.2}, diameter {}{}",
        stats.average,
        stats.diameter,
        if stats.exact {
            " (exact)"
        } else {
            " (sampled)"
        }
    ));
    Ok(0)
}

fn cmd_sample(name: Option<&str>) -> i32 {
    match name {
        None => {
            for (n, _) in SAMPLES {
                say(n);
            }
            0
        }
        Some(n) => match SAMPLES.iter().find(|(k, _)| k == &n) {
            Some((_, body)) => {
                say(body);
                0
            }
            None => {
                eprintln!("unknown sample '{n}'; available:");
                for (k, _) in SAMPLES {
                    eprintln!("  {k}");
                }
                1
            }
        },
    }
}
