//! Incremental vs full-recompute max-min solving under event-local churn.
//!
//! The acceptance scenario from the issue: a ≥ 4096-endpoint AllReduce
//! active set (round-0 recursive-doubling pairs on a 16×16×16 torus, one
//! flow per direction = 4096 flows), where each completion event perturbs
//! one flow. The reference engine re-runs progressive filling over the
//! whole active set per event; the incremental solver re-solves only the
//! dirty connected component of the flow–resource sharing graph — here a
//! handful of entries — and is orders of magnitude faster while staying
//! bit-identical (asserted below).
//!
//! Run with `cargo bench --bench solver_incremental`; the headline
//! `speedup` line is what `scripts/bench_engine.sh` snapshots.

use criterion::{criterion_group, criterion_main, Criterion};
use exaflow::sim::maxmin::MaxMinSolver;
use exaflow::sim::{PathId, PathTable};
use exaflow_bench::allreduce_round0_paths;
use std::hint::black_box;
use std::time::Instant;

/// Churn events per measured pass: enough to amortise setup, small enough
/// that the full-solve reference finishes promptly.
const EVENTS: usize = 256;

fn solver_incremental(c: &mut Criterion) {
    let (resources, paths) = allreduce_round0_paths(&[16, 16, 16]); // 4096 endpoints
    let caps = vec![10e9; resources];
    let flows = paths.len();
    let mut group = c.benchmark_group("solver_incremental");

    // Reference: one full water-filling pass over all flows per event.
    let mut full = MaxMinSolver::new(caps.clone()).unwrap();
    let mut rates = vec![0.0; flows];
    group.bench_function("full_per_event_4096ep", |b| {
        b.iter(|| {
            for _ in 0..EVENTS {
                full.solve(black_box(&paths), &mut rates);
            }
            black_box(rates[0])
        })
    });

    // Incremental: the active set persists across events; each event
    // retires one flow and, a recompute later, admits it again — two
    // dirty-component passes against the reference's one full solve. (A
    // retire and re-admit of the same path between two recomputes would be
    // settled as no change at all and measure nothing.)
    let mut table = PathTable::new();
    let path_ids: Vec<PathId> = paths.iter().map(|p| table.intern(p)).collect();
    let mut inc = MaxMinSolver::new(caps.clone()).unwrap();
    let mut ids: Vec<u32> = path_ids
        .iter()
        .map(|&p| inc.insert_entry(&table, p, true))
        .collect();
    inc.recompute(&table, true, 0.5);
    let churn = |inc: &mut MaxMinSolver, ids: &mut [u32]| {
        for e in 0..EVENTS {
            let k = (e * 101) % flows;
            inc.remove_entry(ids[k]);
            inc.recompute(&table, true, 0.5);
            ids[k] = inc.insert_entry(&table, path_ids[k], true);
            inc.recompute(&table, true, 0.5);
            black_box(inc.entry_rate(ids[k]));
        }
    };
    group.bench_function("incremental_per_event_4096ep", |b| {
        b.iter(|| churn(&mut inc, &mut ids))
    });
    group.finish();

    // Headline numbers, measured with explicit timers (the vendored
    // criterion stub runs each closure once and prints wall time only).
    let t = Instant::now();
    for _ in 0..EVENTS {
        full.solve(black_box(&paths), &mut rates);
    }
    let full_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    churn(&mut inc, &mut ids);
    let inc_s = t.elapsed().as_secs_f64();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(
            inc.entry_rate(*id).to_bits(),
            rates[i].to_bits(),
            "incremental diverged from full solve at flow {i}"
        );
    }
    eprintln!(
        "solver_incremental: {flows} flows, {EVENTS} events: full {:.4}s, \
         incremental {:.4}s, speedup {:.0}x (bit-identical rates)",
        full_s,
        inc_s,
        full_s / inc_s
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = solver_incremental
);
criterion_main!(benches);
