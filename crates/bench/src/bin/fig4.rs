//! Regenerates **Figure 4**: normalised execution time of the six heavy
//! workloads (UnstructuredApp, UnstructuredHR, Bisection, AllReduce,
//! n-Bodies, Near-Neighbours) across the (t, u) hybrid grid for NestGHC,
//! NestTree, Fattree and Torus3D.
//!
//! `--scale <qfdbs>` (default 2048, the reproduction's simulation scale),
//! `--scale 512` for a smoke run, `--json <path>` for raw data.

use exaflow::presets;
use exaflow_bench::{run_panels, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(2048).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    eprintln!("Figure 4 (heavy workloads) at {} QFDBs", args.scale.qfdbs);
    let workloads = presets::heavy_workloads(args.scale);
    let panels = run_panels(args.scale, &workloads, args.threads).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    args.dump_json(&panels);
}
