//! Fault-path micro-benchmarks: the `FaultOverlay` hot paths the engine
//! hits on every mid-run fault — rerouting around a failed link and the
//! fail/restore transition itself.

use criterion::{criterion_group, criterion_main, Criterion};
use exaflow::prelude::*;
use exaflow::topo::FaultOverlay;
use std::hint::black_box;

/// One failed cable on each topology family; route pseudo-random pairs
/// through the overlay. Most pairs keep the deterministic route (the
/// common case), pairs crossing the cut take the BFS fallback.
fn overlay_route(c: &mut Criterion) {
    let torus = Torus::new(&[16, 16, 8]);
    let tree = KAryTree::new(13, 3);
    let topos: Vec<(&str, &dyn Topology)> = vec![("torus", &torus), ("fattree", &tree)];
    let mut group = c.benchmark_group("fault_overlay_route");
    for (name, topo) in topos {
        let n = topo.num_endpoints() as u32;
        let mut overlay = FaultOverlay::new(topo);
        // Fail the first physical cable so some routes must detour.
        let net = topo.network();
        let lid = (0..net.num_links() as u32)
            .map(LinkId)
            .find(|&l| !net.link(l).is_virtual)
            .unwrap();
        overlay.fail_link(lid);
        let mut path = Vec::with_capacity(64);
        let mut i = 0u32;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = i.wrapping_mul(1664525).wrapping_add(1013904223);
                let s = i % n;
                let d = (i >> 16) % n;
                path.clear();
                overlay
                    .try_route(NodeId(s), NodeId(d), &mut path)
                    .expect("reachable");
                black_box(path.len())
            })
        });
    }
    group.finish();
}

/// One detour: the same affected pair routed repeatedly under a stable
/// failure set. The overlay runs the BFS every time; the engine's route
/// memo pays it once per pair and failure epoch.
fn overlay_detour(c: &mut Criterion) {
    let topo = Torus::new(&[16, 16, 8]);
    let healthy = topo.route_vec(NodeId(0), NodeId(1));
    let mut overlay = FaultOverlay::new(&topo);
    overlay.fail_link(healthy[0]);
    let mut path = Vec::with_capacity(64);
    c.bench_function("fault_overlay_detour", |b| {
        b.iter(|| {
            path.clear();
            overlay
                .try_route(NodeId(0), NodeId(1), &mut path)
                .expect("reachable");
            black_box(path.len())
        })
    });
}

/// The fail → restore transition: one update of the down set each way.
fn overlay_transition(c: &mut Criterion) {
    let topo = Torus::new(&[16, 16, 8]);
    let victim = topo.route_vec(NodeId(0), NodeId(1))[0];
    let mut overlay = FaultOverlay::new(&topo);
    assert!(!topo.network().link(victim).is_virtual);
    c.bench_function("fault_overlay_fail_restore", |b| {
        b.iter(|| {
            black_box(overlay.fail_link(victim));
            black_box(overlay.restore_link(victim))
        })
    });
}

/// End-to-end engine cost of processing one mid-run fault transition:
/// a workload run with a cut-and-repair schedule vs the fault-free run.
fn engine_fault_transition(c: &mut Criterion) {
    use exaflow::sim::FaultSchedule;
    let topo = Torus::new(&[8, 8]);
    let w = WorkloadSpec::AllReduce {
        tasks: 64,
        bytes: 1 << 20,
    };
    let dag = w.generate(&TaskMapping::linear(64, 64));
    let sim = Simulator::new(&topo);
    let baseline = sim.run(&dag).unwrap().makespan_seconds;
    let cable = topo.route_vec(NodeId(0), NodeId(1))[0];
    let reverse = topo
        .network()
        .find_physical_link(NodeId(1), NodeId(0))
        .unwrap();
    let mut events = Vec::new();
    for (frac, action) in [(0.25, FaultAction::Down), (0.5, FaultAction::Up)] {
        for link in [cable.0, reverse.0] {
            events.push(FaultEvent {
                time_s: baseline * frac,
                link,
                action,
            });
        }
    }
    let schedule = FaultSchedule::new(events).unwrap();
    let mut group = c.benchmark_group("engine_fault_transition");
    group.bench_function("fault_free", |b| {
        b.iter(|| black_box(sim.run(&dag).unwrap().makespan_seconds))
    });
    group.bench_function("cut_and_repair", |b| {
        b.iter(|| {
            black_box(
                sim.run_with(&dag, &schedule, RecoveryPolicy::RerouteResume, None)
                    .unwrap()
                    .makespan_seconds,
            )
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = overlay_route, overlay_detour, overlay_transition, engine_fault_transition
);
criterion_main!(benches);
