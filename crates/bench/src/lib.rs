//! Shared machinery for the table/figure regeneration binaries.
//!
//! Each binary regenerates one artefact of the paper:
//!
//! | binary   | artefact | contents |
//! |----------|----------|----------|
//! | `table1` | Table 1  | average distance + diameter per hybrid config |
//! | `table2` | Table 2  | switch counts, cost & power overheads |
//! | `fig2`   | Figure 2 | DOT drawings of the four example topologies |
//! | `fig3`   | Figure 3 | the four uplink-density connection rules |
//! | `fig4`   | Figure 4 | normalised execution time, heavy workloads |
//! | `fig5`   | Figure 5 | normalised execution time, light workloads |
//!
//! `table1`, `table2`, `fig4` and `fig5` accept `--scale <qfdbs>`
//! (simulation scale for figures, analysis scale for tables), `--threads
//! <n>` and `--json <path>` to additionally dump machine-readable results.

use exaflow::prelude::*;
use exaflow::presets;
use std::collections::BTreeMap;

/// Parsed common command-line options.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// System scale in QFDBs.
    pub scale: SystemScale,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Worker threads for suite/grid fan-out (default: all cores).
    pub threads: Option<usize>,
}

impl HarnessArgs {
    /// Parse `std::env::args`, with a default scale.
    pub fn parse(default_scale: u64) -> Result<Self, String> {
        let mut scale = default_scale;
        let mut json = None;
        let mut threads = None;
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    scale = v.parse().map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--json" => json = Some(it.next().ok_or("--json needs a path")?),
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let n: usize = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    threads = Some(n);
                }
                "--help" | "-h" => {
                    eprintln!("options: --scale <qfdbs> --json <path> --threads <n>");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(HarnessArgs {
            scale: SystemScale::new(scale)?,
            json,
            threads,
        })
    }

    /// The worker count for [`exaflow::scoped_map`]-style grid fan-out:
    /// `--threads` if given, else [`exaflow::analysis::default_threads`].
    pub fn grid_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(exaflow::analysis::default_threads)
    }

    /// Write `value` to the JSON path when requested.
    pub fn dump_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let body = serde_json::to_string_pretty(value).expect("serialise results");
            std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

/// One panel of Figure 4 or 5: a workload swept across the hybrid grid.
///
/// The whole grid — two baselines plus NestGHC/NestTree per viable (t, u)
/// — is submitted as one [`ExperimentSuite`] and fanned out across
/// `threads` workers (all cores when `None`). Returns, per cell, the
/// normalised times of the four curves (NestGHC, NestTree, Fattree,
/// Torus), normalised to the fattree baseline.
pub fn figure_panel(
    scale: SystemScale,
    workload: &WorkloadSpec,
    threads: Option<usize>,
) -> Result<FigurePanel, String> {
    let config_for = |spec: TopologySpec| ExperimentConfig {
        topology: spec,
        workload: workload.clone(),
        mapping: MappingSpec::Linear,
        sim: SimConfig::default(),
        failures: None,
        fault_injection: None,
    };
    let grid: Vec<(u32, u32)> = presets::hybrid_grid()
        .into_iter()
        .filter(|&(t, _)| scale.subtori(t).is_ok()) // tiny scales cannot host big subtori
        .collect();
    // Baselines are (t,u)-independent: configs 0 and 1; then one
    // GHC/Tree pair per grid point.
    let mut configs = vec![
        config_for(scale.fattree_spec()),
        config_for(scale.torus_spec()),
    ];
    for &(t, u) in &grid {
        configs.push(config_for(scale.nested_spec(
            UpperTierKind::GeneralizedHypercube,
            t,
            u,
        )?));
        configs.push(config_for(scale.nested_spec(
            UpperTierKind::Fattree,
            t,
            u,
        )?));
    }

    let mut suite = ExperimentSuite::new(configs);
    if let Some(n) = threads {
        suite = suite.threads(n);
    }
    let run = suite.run();
    for res in run.results.iter().flatten() {
        eprintln!(
            "  {:<22} {:<16} makespan {:>12.6} s  ({} flows, {} events, {:.2}s wall)",
            res.topology,
            res.workload,
            res.makespan_seconds,
            res.flows,
            res.events,
            res.wall_seconds
        );
    }
    eprintln!(
        "  suite: {} experiments in {:.2}s on {} thread(s) ({:.0} events/s, speedup {:.2}x)",
        run.report.experiments,
        run.report.wall_seconds,
        run.report.threads,
        run.report.events_per_second,
        run.report.speedup(),
    );
    let results: Vec<ExperimentResult> = run
        .results
        .into_iter()
        .collect::<Result<_, exaflow::ExperimentError>>()
        .map_err(|e| e.to_string())?;

    let base = results[0].makespan_seconds;
    if base <= 0.0 {
        return Err("fattree baseline has zero makespan".into());
    }
    let torus = results[1].makespan_seconds;
    let cells = grid
        .iter()
        .zip(results[2..].chunks_exact(2))
        .map(|(&(t, u), pair)| FigureCell {
            t,
            u,
            nest_ghc: pair[0].makespan_seconds / base,
            nest_tree: pair[1].makespan_seconds / base,
            fattree: 1.0,
            torus: torus / base,
        })
        .collect();
    Ok(FigurePanel {
        workload: workload.name().to_owned(),
        scale_qfdbs: scale.qfdbs,
        baseline_seconds: base,
        torus_seconds: torus,
        cells,
    })
}

/// One (t, u) cell of a figure panel.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FigureCell {
    pub t: u32,
    pub u: u32,
    pub nest_ghc: f64,
    pub nest_tree: f64,
    pub fattree: f64,
    pub torus: f64,
}

/// A complete workload panel.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FigurePanel {
    pub workload: String,
    pub scale_qfdbs: u64,
    pub baseline_seconds: f64,
    pub torus_seconds: f64,
    pub cells: Vec<FigureCell>,
}

impl FigurePanel {
    /// Render as the text table the paper's figures correspond to.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{}  (normalised to Fattree; {} QFDBs)",
            self.workload, self.scale_qfdbs
        )
        .unwrap();
        writeln!(
            out,
            "  {:>7} {:>10} {:>10} {:>10} {:>10}",
            "(t,u)", "NestGHC", "NestTree", "Fattree", "Torus3D"
        )
        .unwrap();
        for c in &self.cells {
            writeln!(
                out,
                "  ({},{:>2}) {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                c.t, c.u, c.nest_ghc, c.nest_tree, c.fattree, c.torus
            )
            .unwrap();
        }
        out
    }
}

/// Run a list of panels and collect them keyed by workload name. Each
/// panel's grid fans out across `threads` suite workers.
pub fn run_panels(
    scale: SystemScale,
    workloads: &[WorkloadSpec],
    threads: Option<usize>,
) -> Result<BTreeMap<String, FigurePanel>, String> {
    let mut out = BTreeMap::new();
    for w in workloads {
        eprintln!("== {} ==", w.name());
        let panel = figure_panel(scale, w, threads)?;
        println!("{}", panel.render());
        out.insert(w.name().to_owned(), panel);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_panel_tiny() {
        let scale = SystemScale::new(64).unwrap();
        let w = WorkloadSpec::Reduce {
            tasks: 64,
            bytes: 1 << 12,
        };
        let panel = figure_panel(scale, &w, Some(2)).unwrap();
        // t=8 is skipped at 64 QFDBs: 8 of 12 grid points remain.
        assert_eq!(panel.cells.len(), 8);
        // Reduce is topology-insensitive: every normalised value ~1.
        for c in &panel.cells {
            assert!((c.nest_ghc - 1.0).abs() < 1e-6, "{c:?}");
            assert!((c.torus - 1.0).abs() < 1e-6, "{c:?}");
        }
        let text = panel.render();
        assert!(text.contains("NestGHC"));
    }
}
