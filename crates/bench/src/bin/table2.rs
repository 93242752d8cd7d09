//! Regenerates **Table 2**: upper-tier switch counts and estimated cost and
//! power overheads for every hybrid configuration, plus the fattree
//! reference.
//!
//! Two switch counts are printed per configuration:
//!
//! * `paper` — the closed-form counts reverse-engineered from Table 2
//!   itself (exact reproduction; see `exaflow-system::cost`),
//! * `built` — the switches actually instantiated by our topology
//!   generators at the requested scale (`--scale`, default the paper's
//!   131 072; `--scale 512` keeps this cheap).

use exaflow::prelude::*;
use exaflow::presets;
use exaflow_bench::HarnessArgs;
use exaflow_system::UpperTier;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    t: u32,
    u: u32,
    paper_switches_ghc: u64,
    paper_switches_tree: u64,
    built_switches_ghc: u64,
    built_switches_tree: u64,
    cost_pct_ghc: f64,
    cost_pct_tree: f64,
    power_pct_ghc: f64,
    power_pct_tree: f64,
}

fn main() {
    let args = HarnessArgs::parse(131_072).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let scale = args.scale;
    let model = CostModel::default();
    let n = scale.qfdbs;

    let grid: Vec<(u32, u32)> = presets::hybrid_grid()
        .into_iter()
        .filter(|&(t, _)| scale.subtori(t).is_ok())
        .collect();
    // Instantiating both topologies per grid point dominates the run at
    // paper scale — fan the points out across the worker pool.
    let rows: Vec<Row> = scoped_map(&grid, args.grid_threads(), |_, &(t, u)| {
        let built = |kind: UpperTierKind| -> u64 {
            let spec = scale.nested_spec(kind, t, u).unwrap();
            spec.build().unwrap().network().num_switches() as u64
        };
        let ghc_paper = model.paper_switch_count(UpperTier::GeneralizedHypercube, n, u);
        let tree_paper = model.paper_switch_count(UpperTier::Fattree, n, u);
        let ghc_over = model.overheads(ghc_paper, n);
        let tree_over = model.overheads(tree_paper, n);
        Row {
            t,
            u,
            paper_switches_ghc: ghc_paper,
            paper_switches_tree: tree_paper,
            built_switches_ghc: built(UpperTierKind::GeneralizedHypercube),
            built_switches_tree: built(UpperTierKind::Fattree),
            cost_pct_ghc: ghc_over.cost_increase_pct,
            cost_pct_tree: tree_over.cost_increase_pct,
            power_pct_ghc: ghc_over.power_increase_pct,
            power_pct_tree: tree_over.power_increase_pct,
        }
    })
    .into_iter()
    .map(|o| o.value.unwrap_or_else(|e| panic!("grid point failed: {e}")))
    .collect();

    println!("Table 2: switches and cost/power overhead ({n} QFDBs)");
    println!(
        "{:>7} | {:>11} {:>11} | {:>11} {:>11} | {:>7} {:>7} | {:>7} {:>7}",
        "(t,u)",
        "paper GHC",
        "paper Tree",
        "built GHC",
        "built Tree",
        "cost%G",
        "cost%T",
        "pwr%G",
        "pwr%T"
    );
    for r in &rows {
        println!(
            "({},{:>2})  | {:>11} {:>11} | {:>11} {:>11} | {:>6.2}% {:>6.2}% | {:>6.2}% {:>6.2}%",
            r.t,
            r.u,
            r.paper_switches_ghc,
            r.paper_switches_tree,
            r.built_switches_ghc,
            r.built_switches_tree,
            r.cost_pct_ghc,
            r.cost_pct_tree,
            r.power_pct_ghc,
            r.power_pct_tree
        );
    }
    let ft = model.paper_fattree_switch_count(n);
    let fo = model.overheads(ft, n);
    println!(
        "reference Fattree: {} switches, +{:.2}% cost, +{:.2}% power (paper: 9216, 5.27%, 1.76%)",
        ft, fo.cost_increase_pct, fo.power_increase_pct
    );

    args.dump_json(&rows);
}
