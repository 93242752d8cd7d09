//! Cost of the event-tracing subsystem.
//!
//! Three engine configurations over the same AllReduce run: tracing off
//! (the default every figure sweep uses — must cost nothing), metrics
//! only (`SimConfig::trace` with no sink), and a full `JsonlSink` stream
//! into an in-memory buffer. The off/on reports must stay bit-identical
//! modulo the metrics block, asserted below.
//!
//! Run with `cargo bench --bench trace_overhead`; the headline line
//! reports the relative overhead of each tier.

use criterion::{criterion_group, criterion_main, Criterion};
use exaflow::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 8;

fn setup() -> (Torus, FlowDag) {
    let topo = Torus::new(&[8, 8]);
    let spec = WorkloadSpec::AllReduce {
        tasks: 64,
        bytes: 64 << 10,
    };
    let dag = spec.generate(&TaskMapping::linear(64, 64));
    (topo, dag)
}

fn run_off(topo: &Torus, dag: &FlowDag) -> SimReport {
    Simulator::new(topo).run(dag).unwrap()
}

fn run_metrics(topo: &Torus, dag: &FlowDag) -> SimReport {
    let cfg = SimConfig {
        trace: true,
        ..SimConfig::default()
    };
    Simulator::with_config(topo, cfg).run(dag).unwrap()
}

fn run_jsonl(topo: &Torus, dag: &FlowDag) -> (SimReport, usize) {
    let mut sink = JsonlSink::new(Vec::<u8>::new());
    let report = Simulator::new(topo)
        .run_with(
            dag,
            &FaultSchedule::empty(),
            RecoveryPolicy::default(),
            Some(&mut sink),
        )
        .unwrap();
    (report, sink.finish().unwrap().len())
}

fn trace_overhead(c: &mut Criterion) {
    let (topo, dag) = setup();
    let mut group = c.benchmark_group("trace_overhead");
    group.bench_function("tracing_off", |b| {
        b.iter(|| black_box(run_off(&topo, &dag).makespan_seconds))
    });
    group.bench_function("metrics_only", |b| {
        b.iter(|| black_box(run_metrics(&topo, &dag).makespan_seconds))
    });
    group.bench_function("jsonl_sink", |b| {
        b.iter(|| black_box(run_jsonl(&topo, &dag).1))
    });
    group.finish();

    // Tracing must observe, not perturb: same physics in all three tiers.
    let off = run_off(&topo, &dag);
    let mut with_metrics = run_metrics(&topo, &dag);
    let (mut with_jsonl, bytes) = run_jsonl(&topo, &dag);
    assert!(with_metrics.metrics.is_some() && with_jsonl.metrics.is_some());
    with_metrics.metrics = None;
    with_jsonl.metrics = None;
    for (name, traced) in [("metrics", &with_metrics), ("jsonl", &with_jsonl)] {
        assert_eq!(
            serde_json::to_string(traced).unwrap(),
            serde_json::to_string(&off).unwrap(),
            "{name} tier perturbed the report"
        );
    }

    // Headline numbers with explicit timers (the vendored criterion stub
    // runs each closure once and prints wall time only).
    let t = Instant::now();
    for _ in 0..PASSES {
        black_box(run_off(&topo, &dag).makespan_seconds);
    }
    let off_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..PASSES {
        black_box(run_metrics(&topo, &dag).makespan_seconds);
    }
    let metrics_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..PASSES {
        black_box(run_jsonl(&topo, &dag).1);
    }
    let jsonl_s = t.elapsed().as_secs_f64();
    eprintln!(
        "trace_overhead: {} flows, {PASSES} passes: off {:.4}s, metrics {:.4}s ({:+.1}%), \
         jsonl {:.4}s ({:+.1}%), {bytes} trace bytes/run (reports bit-identical)",
        off.flows,
        off_s,
        metrics_s,
        (metrics_s / off_s - 1.0) * 100.0,
        jsonl_s,
        (jsonl_s / off_s - 1.0) * 100.0,
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = trace_overhead
);
criterion_main!(benches);
