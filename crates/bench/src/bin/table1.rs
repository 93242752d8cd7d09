//! Regenerates **Table 1**: average distance (uniform traffic) and diameter
//! for NestGHC(t,u) and NestTree(t,u) across the paper's (t,u) grid, plus
//! the fattree and torus reference values from the table caption.
//!
//! By default the analysis runs at the paper's full scale (131 072 QFDBs)
//! and is *exact*: every topology is swept over all sources and all
//! destinations (see `exaflow-analysis`). Distances are counted by
//! equidistant class, so no topology wires a link: the sweep holds each
//! topology's shapes and tier radices, not its network.
//! Use `--scale` to change, `--threads` to size the sweep's worker pool,
//! `--json` to dump.

use exaflow::prelude::*;
use exaflow::presets;
use exaflow_bench::HarnessArgs;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    t: u32,
    u: u32,
    avg_ghc: f64,
    avg_tree: f64,
    diam_ghc: u32,
    diam_tree: u32,
}

fn main() {
    let args = HarnessArgs::parse(131_072).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let scale = args.scale;
    let threads = args.grid_threads();
    eprintln!(
        "Table 1 at {} QFDBs (all sources, {threads} threads)",
        scale.qfdbs
    );

    let sweep = |spec: TopologySpec| {
        let topo = spec.build().unwrap_or_else(|e| panic!("{e}"));
        distance_sweep(topo.as_ref(), threads)
    };
    let rows: Vec<Row> = presets::hybrid_grid()
        .into_iter()
        .filter(|&(t, _)| {
            let ok = scale.subtori(t).is_ok();
            if !ok {
                eprintln!("skipping t={t}: scale not divisible");
            }
            ok
        })
        .map(|(t, u)| {
            let ghc = sweep(
                scale
                    .nested_spec(UpperTierKind::GeneralizedHypercube, t, u)
                    .unwrap(),
            );
            let tree = sweep(scale.nested_spec(UpperTierKind::Fattree, t, u).unwrap());
            Row {
                t,
                u,
                avg_ghc: ghc.average,
                avg_tree: tree.average,
                diam_ghc: ghc.diameter,
                diam_tree: tree.diameter,
            }
        })
        .collect();

    println!("Table 1: average distance and diameter of the hybrid topologies");
    println!(
        "{:>7} | {:>12} {:>12} | {:>9} {:>9}",
        "(t,u)", "avg NestGHC", "avg NestTree", "diam GHC", "diam Tree"
    );
    for r in &rows {
        println!(
            "({},{:>2})  | {:>12.2} {:>12.2} | {:>9} {:>9}",
            r.t, r.u, r.avg_ghc, r.avg_tree, r.diam_ghc, r.diam_tree
        );
    }

    // Reference rows from the table caption.
    let tree_stats = sweep(scale.fattree_spec());
    let torus = Torus::new(&scale.torus_dims());
    let (torus_avg, torus_diam) = (torus.average_distance(), torus.diameter());
    println!(
        "reference Fattree: avg {:.2}, diameter {}",
        tree_stats.average, tree_stats.diameter
    );
    println!(
        "reference Torus:   avg {:.2}, diameter {}",
        torus_avg, torus_diam
    );
    println!("(paper at 131072 QFDBs: fattree avg 5.94 diam 6; torus avg 40 diam 80)");

    args.dump_json(&rows);
}
