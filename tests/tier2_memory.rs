//! Tier-2 memory bound: the peak resident set of one paper-scale cell.
//!
//! AllReduce at the paper's 131,072 tasks on the 64×64×32 torus is 17
//! rounds of 131,072 flows, 2.23 M flows in all, of which one round is
//! ever active. The engine's path table and route memo follow the active
//! set, so the peak is set by the DAG, the successor lists and the
//! solver's per-resource state, not by the routes of the whole run.
//!
//! The bound is read from the process's `VmHWM`, so this binary holds this
//! one test and nothing else may share its process. It is `#[ignore]`d out
//! of tier 1 and runs in release mode as its own step of the `tier2` CI
//! job. Linux only: the peak comes from `/proc/self/status`.
#![cfg(target_os = "linux")]

use exaflow::prelude::*;
use std::time::Instant;

/// The bound on the cell's peak resident set, MiB.
const PEAK_BOUND_MIB: f64 = 339.0;

/// The process's peak resident set so far, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[test]
#[ignore = "tier-2 paper-scale memory bound; run with --release --ignored in the tier2 CI job"]
fn paper_scale_torus_allreduce_peaks_under_its_memory_bound() {
    let scale = SystemScale::PAPER;
    let n = scale.qfdbs as usize;
    let bytes = 64u64 << 10;
    let topo = scale.torus_spec().build().unwrap();
    let dag = WorkloadSpec::AllReduce { tasks: n, bytes }
        .generate(&TaskMapping::linear(n, topo.num_endpoints()));
    let cfg = SimConfig {
        max_wall_s: Some(60.0),
        ..SimConfig::default()
    };
    let started = Instant::now();
    let report = Simulator::with_config(topo.as_ref(), cfg)
        .run(&dag)
        .unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
    let peak = peak_rss_mib();
    eprintln!(
        "{}: AllReduce at {n} tasks in {:.2} s of wall, peak RSS {peak:.1} MiB",
        topo.name(),
        started.elapsed().as_secs_f64()
    );
    assert_eq!(report.flows, 2_228_224);
    assert_eq!(report.events, 17);
    let message = bytes as f64 * 8.0 / exaflow::topo::LINK_RATE_BPS;
    let messages = report.makespan_seconds / message;
    assert!((messages - 157.0).abs() < 1e-9, "{messages} message times");
    assert!(
        peak <= PEAK_BOUND_MIB,
        "peak RSS {peak:.1} MiB over the {PEAK_BOUND_MIB} MiB bound"
    );
}
